#include "hssta/serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <future>
#include <iterator>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "hssta/check/check.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/chain.hpp"
#include "hssta/flow/detect.hpp"
#include "hssta/flow/report.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/timer.hpp"
#include "hssta/util/version.hpp"

namespace hssta::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// The `stats` verb's counter keys, indexed by Engine::Counter.
constexpr std::string_view kCounterNames[] = {
    "requests",
    "responses_ok",
    "responses_error",
    "rejected_backpressure",
    "rejected_shutdown",
    "batches",
    "sessions_opened",
    "sessions_closed",
    "sessions_evicted",
    "ecos",
    "analyzes",
    "sweeps",
    "models_parsed",
    "models_reused",
};

/// A handler's coded refusal; answer() turns it into the error response.
struct Refusal {
  const char* code;
  std::string message;
  std::optional<check::Report> report;  ///< "check_failed" only
};

[[noreturn]] void refuse(const char* code, std::string message) {
  throw Refusal{code, std::move(message), std::nullopt};
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Append up to `n` more bytes of `is` to `bytes`; false once `is` has
/// ended or failed (a directory opens, then fails its first read).
bool read_more(std::istream& is, std::string& bytes, size_t n) {
  const size_t have = bytes.size();
  bytes.resize(have + n);
  is.read(bytes.data() + have, static_cast<std::streamsize>(n));
  bytes.resize(have + static_cast<size_t>(is.gcount()));
  return static_cast<bool>(is);
}

/// The bytes of `path` when it holds a .hstm model, else nothing. The
/// format is decided on the prefix flow::detect_file_format reads, so a
/// path that never ends (/dev/zero) or a large non-model file costs one
/// bounded read; only .hstm content is read on to end of file, into the
/// same buffer. No size is taken from the stream on trust.
std::optional<std::string> hstm_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::string bytes;
  bool more = read_more(is, bytes, flow::kDetectPrefixBytes);
  if (flow::detect_format(bytes) != flow::FileFormat::kHstm)
    return std::nullopt;
  while (more) more = read_more(is, bytes, bytes.size());
  return bytes;
}

}  // namespace

Engine::Engine(EngineOptions opts) : opts_(std::move(opts)) {
  HSSTA_REQUIRE(opts_.queue_capacity > 0,
                "serve: queue_capacity must be positive");
  // Designs and sessions always analyze serially on their worker
  // (parallelism comes from running lanes side by side, and serial
  // analysis is bit-identical anyway); the config's thread knob must not
  // spawn a pool per loaded design.
  opts_.config.threads = 1;
  const size_t n = exec::effective_threads(opts_.threads);
  workers_.reserve(n);
  try {
    for (size_t i = 0; i < n; ++i)
      workers_.emplace_back([this] { work_loop(); });
  } catch (...) {
    request_stop();  // a joinable std::thread must not be destroyed
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

Engine::~Engine() {
  request_stop();
  for (std::thread& t : workers_) t.join();
}

void Engine::submit(std::string line, Done done) {
  bump(kRequests);
  Admitted job;
  try {
    job.request = parse_request(line);
  } catch (const std::exception& e) {
    bump(kResponsesError);
    done(error_response(std::nullopt, kBadRequest, e.what()));
    return;
  }
  if (is_session_verb(job.request.verb)) job.lane = job.request.session;

  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    closed = closed_;
    if (!closed && waiting_.size() < opts_.queue_capacity) {
      job.done = std::move(done);
      waiting_.push_back(std::move(job));
      work_cv_.notify_one();
      return;
    }
  }
  bump(kResponsesError);
  if (closed) {
    bump(kRejectedShutdown);
    done(error_response(job.request.id, kShuttingDown,
                        "server is shutting down"));
  } else {
    bump(kRejectedBackpressure);
    done(error_response(job.request.id, kBackpressure,
                        "request queue is full (capacity " +
                            std::to_string(opts_.queue_capacity) +
                            "); retry later"));
  }
}

std::string Engine::request(const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  submit(line, [&promise](std::string response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

bool Engine::stopped() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  return drained();
}

void Engine::wait_until_stopped() {
  std::unique_lock<std::mutex> lock(lanes_mu_);
  stopped_cv_.wait(lock, [&] { return drained(); });
}

void Engine::request_stop() {
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    closed_ = true;
  }
  work_cv_.notify_all();
  stopped_cv_.notify_all();
}

bool Engine::lane_running(uint64_t lane) const {
  return std::find(running_.begin(), running_.end(), lane) != running_.end();
}

bool Engine::drained() const {
  return closed_ && waiting_.empty() && running_.empty();
}

void Engine::work_loop() {
  const auto idle = [this](const Admitted& a) { return !lane_running(a.lane); };
  std::unique_lock<std::mutex> lock(lanes_mu_);
  for (;;) {
    // The oldest waiting request whose lane is idle, or none once
    // admission is closed and nothing waits.
    auto next = waiting_.end();
    work_cv_.wait(lock, [&] {
      next = std::find_if(waiting_.begin(), waiting_.end(), idle);
      return next != waiting_.end() || (closed_ && waiting_.empty());
    });
    if (next == waiting_.end()) break;
    // Evict before marking the lane: a request for a session idle past
    // the timeout must find it evicted, not keep it alive.
    evict_idle_sessions();
    Admitted job = std::move(*next);
    waiting_.erase(next);
    running_.push_back(job.lane);
    lock.unlock();

    bump(kBatches);
    job.done(answer(job.request));

    lock.lock();
    std::erase(running_, job.lane);
    work_cv_.notify_all();
    if (drained()) stopped_cv_.notify_all();
  }
}

void Engine::evict_idle_sessions() {
  if (opts_.idle_timeout_seconds <= 0.0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (!lane_running(it->first) &&
        seconds_between(it->second.last_used, now) >
            opts_.idle_timeout_seconds) {
      evicted_ids_.insert(it->first);
      it = sessions_.erase(it);
      bump(kSessionsEvicted);
    } else {
      ++it;
    }
  }
}

void Engine::bump(Counter c) { counters_[c].fetch_add(1, kRelaxed); }

std::string Engine::answer(const Request& req) {
  try {
    // The buffer lives inside the try: a handler that throws after
    // writing part of its payload leaves nothing behind.
    std::ostringstream os;
    util::JsonWriter w(os);
    begin_response(w, req.id, /*ok=*/true);
    handle(req, w);
    w.end_object();
    bump(kResponsesOk);
    return os.str();
  } catch (const Refusal& r) {
    bump(kResponsesError);
    if (!r.report) return error_response(req.id, r.code, r.message);
    std::ostringstream os;
    util::JsonWriter w(os);
    begin_response(w, req.id, /*ok=*/false);
    w.key("code").value(r.code);
    w.key("error").value(r.message);
    w.key("report");
    check::write_report(w, *r.report);
    w.end_object();
    return os.str();
  } catch (const std::exception& e) {
    bump(kResponsesError);
    return error_response(req.id, kInternal, e.what());
  }
}

void Engine::handle(const Request& req, util::JsonWriter& w) {
  switch (req.verb) {
    case Verb::kLoadDesign:
      return handle_load_design(req, w);
    case Verb::kOpenSession:
      return handle_open_session(req, w);
    case Verb::kEco:
      return handle_eco(req, w);
    case Verb::kAnalyze:
      return handle_analyze(req, w);
    case Verb::kSweep:
      return handle_sweep(req, w);
    case Verb::kCheck:
      return handle_check(req, w);
    case Verb::kStats:
      return handle_stats(req, w);
    case Verb::kSaveSession:
      return handle_save_session(req, w);
    case Verb::kRestoreSession:
      return handle_restore_session(req, w);
    case Verb::kCloseSession:
      return handle_close_session(req, w);
    case Verb::kShutdown:
      break;
  }
  return handle_shutdown(req, w);
}

const flow::Design& Engine::design(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = designs_.find(name);
  if (it == designs_.end())
    refuse(kUnknownDesign, "no design named '" + name + "' is loaded");
  return it->second;
}

Engine::Session& Engine::session(const Request& req) {
  const uint64_t id = req.session;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    it->second.last_used = Clock::now();
    return it->second;
  }
  if (evicted_ids_.count(id))
    refuse(kUnknownSession,
           "session " + std::to_string(id) +
               " was evicted after idle timeout (" +
               std::to_string(opts_.idle_timeout_seconds) +
               "s); open a new one");
  if (id == 0 || id >= next_session_)
    refuse(kUnknownSession, "unknown session " + std::to_string(id));
  refuse(kUnknownSession, "session " + std::to_string(id) + " is closed");
}

void Engine::apply_changes(incr::DesignState& state,
                           const std::vector<ChangeSpec>& specs) {
  try {
    std::vector<incr::Change> changes;
    changes.reserve(specs.size());
    for (const ChangeSpec& spec : specs) changes.push_back(resolve(spec));
    for (const incr::Change& c : changes) incr::apply_change(state, c);
  } catch (const std::exception& e) {
    refuse(kInvalidChange, e.what());
  }
}

incr::Change Engine::resolve(const ChangeSpec& spec) {
  if (spec.op != ChangeSpec::Op::kSwap)
    return resolve_change(spec, opts_.config);
  // Anything but .hstm content loads as in a one-shot run, so a netlist
  // variant and every unreadable or empty path keep that path's result
  // and error text.
  std::shared_ptr<const model::TimingModel> model = table_model(spec.file);
  if (!model) model = flow::load_variant_model(spec.file, opts_.config);
  return incr::ReplaceModule{spec.inst, std::move(model)};
}

std::shared_ptr<const model::TimingModel> Engine::table_model(
    const std::string& file) {
  // A .hstm parses from the bytes just read: no second read can see a
  // different file.
  const std::optional<std::string> bytes = hstm_bytes(file);
  if (!bytes) return nullptr;

  std::shared_ptr<const model::TimingModel> parsed;
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    const auto it = models_.find(file);
    if (it != models_.end() && it->second.bytes == *bytes)
      parsed = it->second.model.lock();
  }
  if (parsed) {
    bump(kModelsReused);
  } else {
    std::istringstream is(*bytes);
    parsed = std::make_shared<const model::TimingModel>(
        model::TimingModel::load(is));
    bump(kModelsParsed);
    std::lock_guard<std::mutex> lock(models_mu_);
    std::erase_if(models_,
                  [](const auto& e) { return e.second.model.expired(); });
    // A concurrent miss on the same bytes may have landed first; it wins.
    ParsedModel& entry = models_[file];
    std::shared_ptr<const model::TimingModel> live = entry.model.lock();
    if (live && entry.bytes == *bytes)
      parsed = std::move(live);
    else
      entry = ParsedModel{*bytes, parsed};
  }
  // The copy owns a reference to the parsed model, which lives as long as
  // any of its copies does. Copies share the parsed model's saved text.
  return std::shared_ptr<const model::TimingModel>(
      new model::TimingModel(*parsed),
      [parsed](const model::TimingModel* copy) { delete copy; });
}

void Engine::open(incr::DesignState state, const std::string* file,
                  util::JsonWriter& w) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= opts_.max_sessions)
    refuse(kSaturated, "session limit reached (" +
                           std::to_string(opts_.max_sessions) +
                           " open); close a session first");
  const uint64_t id = next_session_++;
  w.key("session").value(id);
  w.key("design").value(state.inputs().name);
  if (file) w.key("file").value(*file);
  w.key("delay");
  flow::delay_json(w, state.delay());
  sessions_.emplace(id, Session{std::move(state), Clock::now()});
  bump(kSessionsOpened);
}

void Engine::handle_load_design(const Request& req, util::JsonWriter& w) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (designs_.count(req.name))
      refuse(kBadRequest, "design '" + req.name + "' is already loaded");
  }

  // Build + analyze outside the lock (expensive; the control lane runs one
  // request at a time, so no two loads race anyway). A file that does not
  // open or parse, or modules that do not chain, are the client's error.
  WallTimer timer;
  // Each .hstm resolves through the model table, so identical files parse
  // once; every instance still gets its own copy, named u<index> as
  // build_chain_design names it. Netlists and unreadable paths stay on
  // build_chain_design's own path.
  flow::ChainOverrides table;
  try {
    for (size_t i = 0; i < req.files.size(); ++i)
      if (auto copy = table_model(req.files[i]))
        table.models[i] = std::move(copy);
  } catch (const std::exception&) {
    // A .hstm that does not parse is left to build_chain_design, which
    // reports the first failing file in file order.
  }
  flow::Design built = [&] {
    try {
      return flow::build_chain_design(req.name, req.files, opts_.config,
                                      table);
    } catch (const std::exception& e) {
      refuse(kBadRequest, e.what());
    }
  }();

  // Lint before the expensive analysis: a design with error-level static
  // diagnostics is refused with the full report, instead of the defect
  // surfacing as a deep exception (an opaque "internal" error) inside
  // analyze().
  check::Report lint = built.check();
  if (lint.worst() == check::Severity::kError) {
    std::string message =
        "design '" + req.name + "' failed static checks (" +
        std::to_string(lint.count(check::Severity::kError)) + " error(s))";
    throw Refusal{kCheckFailed, std::move(message), std::move(lint)};
  }

  // The incremental analysis is bit-identical to a from-scratch one, so
  // its delay is the answer; no second build is needed. Its analyzed
  // state is the warm base every session copies from.
  const timing::CanonicalForm& delay = built.analyze_incremental();
  const double seconds = timer.seconds();
  w.key("design").value(req.name);
  w.key("instances").value(built.num_instances());
  w.key("delay");
  flow::delay_json(w, delay);
  w.key("seconds").value(seconds);

  std::lock_guard<std::mutex> lock(mu_);
  designs_.emplace(req.name, std::move(built));
}

void Engine::handle_open_session(const Request& req, util::JsonWriter& w) {
  // Copy the analyzed warm base: the clean prefix (stitched graph,
  // provenance, design PCA, arrivals) shares by copy — nothing
  // recomputes until the session's first change.
  open(design(req.design).incremental(), nullptr, w);
}

void Engine::handle_eco(const Request& req, util::JsonWriter& w) {
  Session& s = session(req);
  apply_changes(s.state, req.changes);
  bump(kEcos);
  w.key("session").value(req.session);
  w.key("recorded").value(req.changes.size());
  w.key("pending").value(s.state.pending());
}

void Engine::handle_analyze(const Request& req, util::JsonWriter& w) {
  Session& s = session(req);
  WallTimer timer;
  apply_changes(s.state, req.changes);
  try {
    s.state.analyze();
  } catch (const std::exception& e) {
    // analyze() leaves derived state untouched on validation failure —
    // the session survives an invalid what-if.
    refuse(kInvalidChange, e.what());
  }
  bump(kAnalyzes);
  w.key("session").value(req.session);
  w.key("delay");
  flow::delay_json(w, s.state.delay());
  w.key("stats");
  flow::incr_stats_json(w, s.state.stats());
  w.key("seconds").value(timer.seconds());
}

void Engine::handle_sweep(const Request& req, util::JsonWriter& w) {
  Session& s = session(req);
  WallTimer timer;
  std::vector<incr::ScenarioResult> results;
  try {
    std::vector<incr::Scenario> scenarios;
    scenarios.reserve(req.scenarios.size());
    for (const ScenarioSpec& spec : req.scenarios) {
      incr::Scenario sc;
      sc.label = spec.label;
      sc.changes.reserve(spec.changes.size());
      for (const ChangeSpec& c : spec.changes)
        sc.changes.push_back(resolve(c));
      scenarios.push_back(std::move(sc));
    }
    // The runner needs an analyzed base with nothing pending: flush any
    // recorded-but-unanalyzed ecos first (same state an `analyze` would
    // leave). Scenarios then branch off the session's current state.
    if (s.state.pending()) s.state.analyze();
    const incr::ScenarioRunner runner(s.state);
    results = runner.run(scenarios);
  } catch (const std::exception& e) {
    refuse(kInvalidChange, e.what());
  }
  bump(kSweeps);
  w.key("session").value(req.session);
  w.key("seconds").value(timer.seconds());
  w.key("scenarios").begin_array();
  for (const incr::ScenarioResult& r : results) flow::scenario_json(w, r);
  w.end_array();
}

void Engine::handle_check(const Request& req, util::JsonWriter& w) {
  // Loaded designs are immutable after load and check() is read-only, so
  // it runs outside mu_ (keeping slow lints off the map).
  const check::Report report = design(req.design).check();
  w.key("design").value(req.design);
  w.key("report");
  check::write_report(w, report);
}

void Engine::handle_stats(const Request& /*req*/, util::JsonWriter& w) {
  static_assert(std::size(kCounterNames) == kNumCounters);
  size_t designs = 0, sessions = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    designs = designs_.size();
    sessions = sessions_.size();
  }
  w.key("version").value(kVersion);
  w.key("build").value(build_info());
  w.key("uptime_seconds").value(seconds_between(started_, Clock::now()));
  w.key("designs").value(designs);
  w.key("sessions").value(sessions);
  w.key("counters").begin_object();
  for (size_t c = 0; c < kNumCounters; ++c)
    w.key(kCounterNames[c]).value(counters_[c].load(kRelaxed));
  w.end_object();
  w.key("options").begin_object();
  w.key("threads").value(exec::effective_threads(opts_.threads));
  w.key("queue_capacity").value(opts_.queue_capacity);
  w.key("idle_timeout_seconds").value(opts_.idle_timeout_seconds);
  w.key("max_sessions").value(opts_.max_sessions);
  w.end_object();
}

void Engine::handle_save_session(const Request& req, util::JsonWriter& w) {
  Session& s = session(req);
  try {
    // Pending (recorded-but-unanalyzed) changes serialize with the state,
    // so a restore resumes exactly where the session left off.
    s.state.save_file(req.file);
  } catch (const std::exception& e) {
    refuse(kBadRequest, e.what());
  }
  w.key("session").value(req.session);
  w.key("file").value(req.file);
  w.key("pending").value(s.state.pending());
}

void Engine::handle_restore_session(const Request& req, util::JsonWriter& w) {
  // A control verb (it creates a session rather than addressing one), so
  // it runs on the sequential control lane; the expensive load + analyze
  // happens outside mu_ like load_design's build.
  std::optional<incr::DesignState> state;
  try {
    state.emplace(incr::DesignState::load_file(req.file));
    // Eager analyze: the restored session answers its first eco from warm
    // state, and the response can report the design delay like
    // open_session does. Bit-identical to the saved session's analyze()
    // by the serialization contract.
    (void)state->analyze();
  } catch (const std::exception& e) {
    refuse(kBadRequest, e.what());
  }
  open(std::move(*state), &req.file, w);
}

void Engine::handle_close_session(const Request& req, util::JsonWriter& w) {
  (void)session(req);  // refuses an evicted, unknown or closed id
  {
    // The session's lane is running this request, so no eviction sweep
    // can erase it first.
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.erase(req.session);
  }
  bump(kSessionsClosed);
  w.key("session").value(req.session);
  w.key("closed").value(true);
}

void Engine::handle_shutdown(const Request& /*req*/, util::JsonWriter& w) {
  // Closing admission rejects new requests ("shutting_down"); everything
  // already accepted — requests running beside this one included — still
  // drains before stopped() turns true.
  request_stop();
  w.key("stopping").value(true);
}

}  // namespace hssta::serve
