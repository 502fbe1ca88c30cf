#include "hssta/serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <optional>
#include <sstream>
#include <utility>

#include "hssta/check/check.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/chain.hpp"
#include "hssta/flow/report.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/timer.hpp"
#include "hssta/util/version.hpp"

namespace hssta::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
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
  n_requests_.fetch_add(1, kRelaxed);
  Admitted job;
  try {
    job.request = parse_request(line);
  } catch (const std::exception& e) {
    n_error_.fetch_add(1, kRelaxed);
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
  n_error_.fetch_add(1, kRelaxed);
  if (closed) {
    n_rejected_shutdown_.fetch_add(1, kRelaxed);
    done(error_response(job.request.id, kShuttingDown,
                        "server is shutting down"));
  } else {
    n_backpressure_.fetch_add(1, kRelaxed);
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

EngineStats Engine::stats_snapshot() const {
  EngineStats s;
  s.requests = n_requests_.load(kRelaxed);
  s.responses_ok = n_ok_.load(kRelaxed);
  s.responses_error = n_error_.load(kRelaxed);
  s.rejected_backpressure = n_backpressure_.load(kRelaxed);
  s.rejected_shutdown = n_rejected_shutdown_.load(kRelaxed);
  s.batches = n_batches_.load(kRelaxed);
  s.sessions_opened = n_opened_.load(kRelaxed);
  s.sessions_closed = n_closed_.load(kRelaxed);
  s.sessions_evicted = n_evicted_.load(kRelaxed);
  s.ecos = n_ecos_.load(kRelaxed);
  s.analyzes = n_analyzes_.load(kRelaxed);
  s.sweeps = n_sweeps_.load(kRelaxed);
  return s;
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

    n_batches_.fetch_add(1, kRelaxed);
    std::string response;
    try {
      response = handle(job.request);
    } catch (const std::exception& e) {
      n_error_.fetch_add(1, kRelaxed);
      response = error_response(job.request.id, kInternal, e.what());
    }
    job.done(std::move(response));

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
        seconds_between(it->second->last_used, now) >
            opts_.idle_timeout_seconds) {
      evicted_ids_.insert(it->first);
      it = sessions_.erase(it);
      n_evicted_.fetch_add(1, kRelaxed);
    } else {
      ++it;
    }
  }
}

std::string Engine::handle(const Request& req) {
  switch (req.verb) {
    case Verb::kLoadDesign:
      return handle_load_design(req);
    case Verb::kOpenSession:
      return handle_open_session(req);
    case Verb::kEco:
      return handle_eco(req);
    case Verb::kAnalyze:
      return handle_analyze(req);
    case Verb::kSweep:
      return handle_sweep(req);
    case Verb::kCheck:
      return handle_check(req);
    case Verb::kStats:
      return handle_stats(req);
    case Verb::kSaveSession:
      return handle_save_session(req);
    case Verb::kRestoreSession:
      return handle_restore_session(req);
    case Verb::kCloseSession:
      return handle_close_session(req);
    case Verb::kShutdown:
      break;
  }
  return handle_shutdown(req);
}

std::string Engine::handle_load_design(const Request& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (designs_.count(req.name)) {
      n_error_.fetch_add(1, kRelaxed);
      return error_response(req.id, kBadRequest,
                            "design '" + req.name + "' is already loaded");
    }
  }

  // Build + analyze outside the lock (expensive; the control lane runs one
  // request at a time, so no two loads race anyway). The warm base every
  // session will copy from is the design's incremental state, fully
  // analyzed here.
  WallTimer timer;
  flow::Design design =
      flow::build_chain_design(req.name, req.files, opts_.config);

  // Lint before the expensive analysis: a design with error-level static
  // diagnostics is rejected up front with the full report, instead of the
  // defect surfacing as a deep exception (an opaque "internal" error)
  // inside analyze().
  const check::Report lint = design.check();
  if (lint.worst() == check::Severity::kError) {
    n_error_.fetch_add(1, kRelaxed);
    std::ostringstream os;
    util::JsonWriter w(os);
    begin_response(w, req.id, /*ok=*/false);
    w.key("code").value(kCheckFailed);
    w.key("error").value(
        "design '" + req.name + "' failed static checks (" +
        std::to_string(lint.count(check::Severity::kError)) + " error(s))");
    w.key("report");
    check::write_report(w, lint);
    w.end_object();
    return os.str();
  }

  // The incremental analysis is bit-identical to a from-scratch one, so
  // its delay is the answer; no second build is needed.
  const timing::CanonicalForm delay = design.analyze_incremental();
  const double seconds = timer.seconds();

  auto loaded = std::make_unique<Loaded>(std::move(design));
  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("design").value(req.name);
  w.key("instances").value(loaded->design.num_instances());
  w.key("delay");
  flow::delay_json(w, delay);
  w.key("seconds").value(seconds);
  w.end_object();

  {
    std::lock_guard<std::mutex> lock(mu_);
    designs_.emplace(req.name, std::move(loaded));
  }
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_open_session(const Request& req) {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = designs_.find(req.design);
    if (it == designs_.end()) {
      n_error_.fetch_add(1, kRelaxed);
      return error_response(req.id, kUnknownDesign,
                            "no design named '" + req.design + "' is loaded");
    }
    if (sessions_.size() >= opts_.max_sessions) {
      n_error_.fetch_add(1, kRelaxed);
      return error_response(
          req.id, kSaturated,
          "session limit reached (" + std::to_string(opts_.max_sessions) +
              " open); close a session first");
    }
    const uint64_t id = next_session_++;
    // Copy the analyzed warm base: the clean prefix (stitched graph,
    // provenance, design PCA, arrivals) shares by copy — nothing
    // recomputes until the session's first change.
    auto session = std::make_shared<Session>(id, req.design,
                                             it->second->design.incremental());
    session->last_used = Clock::now();
    // Answer before publishing: once in the map, the session belongs to
    // its lane, which may already hold a request for this id.
    util::JsonWriter w(os);
    begin_response(w, req.id, /*ok=*/true);
    w.key("session").value(id);
    w.key("design").value(session->design);
    w.key("delay");
    flow::delay_json(w, session->state.delay());
    w.end_object();
    sessions_.emplace(id, std::move(session));
  }
  n_opened_.fetch_add(1, kRelaxed);
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::shared_ptr<Engine::Session> Engine::find_session(uint64_t id,
                                                      std::string& error,
                                                      const char*& code) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it != sessions_.end()) return it->second;
  code = kUnknownSession;
  if (evicted_ids_.count(id))
    error = "session " + std::to_string(id) +
            " was evicted after idle timeout (" +
            std::to_string(opts_.idle_timeout_seconds) + "s); open a new one";
  else if (id == 0 || id >= next_session_)
    error = "unknown session " + std::to_string(id);
  else
    error = "session " + std::to_string(id) + " is closed";
  return nullptr;
}

std::string Engine::handle_eco(const Request& req) {
  std::string error;
  const char* code = kInternal;
  const std::shared_ptr<Session> session =
      find_session(req.session, error, code);
  if (!session) {
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, code, error);
  }
  session->last_used = Clock::now();
  try {
    // Resolve every change before applying any, so a bad spec (missing
    // variant file, ...) leaves the session untouched.
    std::vector<incr::Change> changes;
    changes.reserve(req.changes.size());
    for (const ChangeSpec& spec : req.changes)
      changes.push_back(resolve_change(spec, opts_.config));
    for (const incr::Change& c : changes)
      incr::apply_change(session->state, c);
  } catch (const std::exception& e) {
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, kInvalidChange, e.what());
  }
  session->ecos += req.changes.size();
  n_ecos_.fetch_add(1, kRelaxed);

  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("session").value(session->id);
  w.key("recorded").value(req.changes.size());
  w.key("pending").value(session->state.pending());
  w.end_object();
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_analyze(const Request& req) {
  std::string error;
  const char* code = kInternal;
  const std::shared_ptr<Session> session =
      find_session(req.session, error, code);
  if (!session) {
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, code, error);
  }
  session->last_used = Clock::now();
  WallTimer timer;
  try {
    std::vector<incr::Change> changes;
    changes.reserve(req.changes.size());
    for (const ChangeSpec& spec : req.changes)
      changes.push_back(resolve_change(spec, opts_.config));
    for (const incr::Change& c : changes)
      incr::apply_change(session->state, c);
    session->state.analyze();
  } catch (const std::exception& e) {
    // analyze() leaves derived state untouched on validation failure —
    // the session survives an invalid what-if.
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, kInvalidChange, e.what());
  }
  session->ecos += req.changes.size();
  n_analyzes_.fetch_add(1, kRelaxed);

  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("session").value(session->id);
  w.key("delay");
  flow::delay_json(w, session->state.delay());
  w.key("stats");
  flow::incr_stats_json(w, session->state.stats());
  w.key("seconds").value(timer.seconds());
  w.end_object();
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_sweep(const Request& req) {
  std::string error;
  const char* code = kInternal;
  const std::shared_ptr<Session> session =
      find_session(req.session, error, code);
  if (!session) {
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, code, error);
  }
  session->last_used = Clock::now();
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
        sc.changes.push_back(resolve_change(c, opts_.config));
      scenarios.push_back(std::move(sc));
    }
    // The runner needs an analyzed base with nothing pending: flush any
    // recorded-but-unanalyzed ecos first (same state an `analyze` would
    // leave). Scenarios then branch off the session's current state.
    if (session->state.pending()) session->state.analyze();
    const incr::ScenarioRunner runner(session->state);
    results = runner.run(scenarios);
  } catch (const std::exception& e) {
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, kInvalidChange, e.what());
  }
  n_sweeps_.fetch_add(1, kRelaxed);

  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("session").value(session->id);
  w.key("seconds").value(timer.seconds());
  w.key("scenarios").begin_array();
  for (const incr::ScenarioResult& r : results) flow::scenario_json(w, r);
  w.end_array();
  w.end_object();
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_check(const Request& req) {
  const Loaded* loaded = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = designs_.find(req.design);
    if (it == designs_.end()) {
      n_error_.fetch_add(1, kRelaxed);
      return error_response(req.id, kUnknownDesign,
                            "no design named '" + req.design + "' is loaded");
    }
    loaded = it->second.get();
  }
  // Loaded designs are immutable after load and check() is read-only, so
  // running outside the lock is safe (and keeps slow lints off the map).
  const check::Report report = loaded->design.check();

  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("design").value(req.design);
  w.key("report");
  check::write_report(w, report);
  w.end_object();
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_stats(const Request& req) {
  const EngineStats s = stats_snapshot();
  size_t designs, sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    designs = designs_.size();
    sessions = sessions_.size();
  }

  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("version").value(kVersion);
  w.key("build").value(build_info());
  w.key("uptime_seconds").value(seconds_between(started_, Clock::now()));
  w.key("designs").value(designs);
  w.key("sessions").value(sessions);
  w.key("counters").begin_object();
  w.key("requests").value(s.requests);
  w.key("responses_ok").value(s.responses_ok);
  w.key("responses_error").value(s.responses_error);
  w.key("rejected_backpressure").value(s.rejected_backpressure);
  w.key("rejected_shutdown").value(s.rejected_shutdown);
  w.key("batches").value(s.batches);
  w.key("sessions_opened").value(s.sessions_opened);
  w.key("sessions_closed").value(s.sessions_closed);
  w.key("sessions_evicted").value(s.sessions_evicted);
  w.key("ecos").value(s.ecos);
  w.key("analyzes").value(s.analyzes);
  w.key("sweeps").value(s.sweeps);
  w.end_object();
  w.key("options").begin_object();
  w.key("threads").value(exec::effective_threads(opts_.threads));
  w.key("queue_capacity").value(opts_.queue_capacity);
  w.key("idle_timeout_seconds").value(opts_.idle_timeout_seconds);
  w.key("max_sessions").value(opts_.max_sessions);
  w.end_object();
  w.end_object();
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_save_session(const Request& req) {
  std::string error;
  const char* code = kInternal;
  const std::shared_ptr<Session> session =
      find_session(req.session, error, code);
  if (!session) {
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, code, error);
  }
  session->last_used = Clock::now();
  try {
    // Pending (recorded-but-unanalyzed) changes serialize with the state,
    // so a restore resumes exactly where the session left off.
    session->state.save_file(req.file);
  } catch (const std::exception& e) {
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, kBadRequest, e.what());
  }

  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("session").value(session->id);
  w.key("file").value(req.file);
  w.key("pending").value(session->state.pending());
  w.end_object();
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_restore_session(const Request& req) {
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
    n_error_.fetch_add(1, kRelaxed);
    return error_response(req.id, kBadRequest, e.what());
  }

  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= opts_.max_sessions) {
      n_error_.fetch_add(1, kRelaxed);
      return error_response(
          req.id, kSaturated,
          "session limit reached (" + std::to_string(opts_.max_sessions) +
              " open); close a session first");
    }
    const uint64_t id = next_session_++;
    // Copy the name out first: make_shared's argument evaluation order is
    // unspecified, so `state->inputs().name` may read a moved-from state.
    std::string design = state->inputs().name;
    auto session = std::make_shared<Session>(id, std::move(design),
                                             std::move(*state));
    session->last_used = Clock::now();
    // Answer before publishing, as open_session does.
    util::JsonWriter w(os);
    begin_response(w, req.id, /*ok=*/true);
    w.key("session").value(id);
    w.key("design").value(session->design);
    w.key("file").value(req.file);
    w.key("delay");
    flow::delay_json(w, session->state.delay());
    w.end_object();
    sessions_.emplace(id, std::move(session));
  }
  n_opened_.fetch_add(1, kRelaxed);
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

std::string Engine::handle_close_session(const Request& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(req.session);
    if (it != sessions_.end()) {
      sessions_.erase(it);
      n_closed_.fetch_add(1, kRelaxed);
      std::ostringstream os;
      util::JsonWriter w(os);
      begin_response(w, req.id, /*ok=*/true);
      w.key("session").value(req.session);
      w.key("closed").value(true);
      w.end_object();
      n_ok_.fetch_add(1, kRelaxed);
      return os.str();
    }
  }
  std::string error;
  const char* code = kInternal;
  (void)find_session(req.session, error, code);  // compose the message
  n_error_.fetch_add(1, kRelaxed);
  return error_response(req.id, code, error);
}

std::string Engine::handle_shutdown(const Request& req) {
  // Closing admission rejects new requests ("shutting_down"); everything
  // already accepted — requests running beside this one included — still
  // drains before stopped() turns true.
  request_stop();
  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, req.id, /*ok=*/true);
  w.key("stopping").value(true);
  w.end_object();
  n_ok_.fetch_add(1, kRelaxed);
  return os.str();
}

}  // namespace hssta::serve
