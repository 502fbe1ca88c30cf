// eco_serve — interactive what-if traffic in a closed loop. C clients,
// each with a private session, talk to an in-process serve::Engine (T
// workers) behind serve::SocketServer, against a 4 x c6288 chain built
// from .hstm models. Each client sends its next request when the previous
// one is answered. The seeded mix is mostly `analyze` with a sigma or a
// swap change, some rewires and moves, and a few sweeps; swaps use two
// pre-written geometry-compatible variants.
//
// Gates: every response is ok, and each client's final delay equals a
// local incr::DesignState replay of the changes the server accepted. The
// traced run times that replay per change kind (the incremental layer
// under the handler) and one variant's model load.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "harness.hpp"
#include "hssta/flow/chain.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/serve/client.hpp"
#include "hssta/serve/engine.hpp"
#include "hssta/serve/protocol.hpp"
#include "hssta/serve/socket.hpp"
#include "hssta/util/json.hpp"

namespace perfbench {

namespace {

using namespace hssta;

constexpr size_t kInstances = 4;
constexpr double kTracedLoopSeconds = 8.0;  ///< each loop of a traced run
/// The closed loop runs in slices of this length; the host is sampled
/// between slices, while no request is in flight.
constexpr double kSliceSeconds = 5.0;
const char* const kSocket = "serve.sock";
enum Kind { kSigma, kSwap, kRewire, kMove, kSweep, kKinds };
const char* const kKindNames[] = {"sigma", "swap", "rewire", "move", "sweep"};

/// Engine + transport + connected clients, torn down in dependency order.
struct ServeStack {
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<serve::SocketServer> server;
  std::unique_ptr<serve::Client> admin;
  std::vector<serve::Client> clients;
  std::vector<uint64_t> sessions;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    clients.clear();
    admin.reset();
    if (engine) {
      engine->request_stop();
      engine->wait_until_stopped();
    }
    if (server) server->stop();
  }
};

struct Fixture {
  std::vector<std::string> files;  ///< the chain: kInstances x base.hstm
  placement::Die die;              ///< one instance's outline
  size_t inputs = 0, outputs = 0;  ///< ports of one instance
  std::shared_ptr<ServeStack> stack;
};

util::JsonValue parse_ok(const std::string& response, const std::string& what) {
  util::JsonValue v = util::JsonReader::parse(response);
  const util::JsonValue* ok = v.find("ok");
  if (!ok || !ok->as_bool())
    throw std::runtime_error(what + " failed: " + response);
  return v;
}

/// The repository's synthetic c6288 and two seed-scaled variants, then the
/// engine, its socket and one warmed session per client.
Fixture setup(uint64_t seed, const Options& o, const flow::Config& cfg) {
  Rng rng(seed);
  Fixture fx;
  const model::TimingModel base = write_chain_models(rng, cfg);
  fx.files.assign(kInstances, kChainModelFiles[0]);
  fx.die = base.die();
  fx.inputs = base.graph().inputs().size();
  fx.outputs = base.graph().outputs().size();

  auto stack = std::make_shared<ServeStack>();
  serve::EngineOptions eo;
  eo.threads = o.threads;
  eo.idle_timeout_seconds = 0.0;
  eo.config = cfg;
  stack->engine = std::make_unique<serve::Engine>(eo);
  stack->server = std::make_unique<serve::SocketServer>(*stack->engine, kSocket);
  stack->admin = std::make_unique<serve::Client>(kSocket);
  std::string load = R"({"verb":"load_design","name":"chain","files":[)";
  for (size_t i = 0; i < kInstances; ++i)
    load += std::string(i ? "," : "") + "\"" + fx.files[i] + "\"";
  (void)parse_ok(stack->admin->request(load + "]}"), "load_design");
  // Each session's first analysis builds its incremental state from
  // scratch; that belongs to starting the session, not to the traffic.
  for (size_t c = 0; c < o.clients; ++c) {
    serve::Client& client = stack->clients.emplace_back(kSocket);
    const util::JsonValue v = parse_ok(
        client.request(R"({"verb":"open_session","design":"chain"})"),
        "open_session");
    const uint64_t session = v.at("session").as_count("session");
    (void)parse_ok(client.request(R"({"verb":"analyze","session":)" +
                                  std::to_string(session) + "}"),
                   "first analyze");
    stack->sessions.push_back(session);
  }
  fx.stack = std::move(stack);
  return fx;
}

/// One request a client sent, as needed for the latency record and the
/// replay: its kind, its change list (empty for sweeps, which leave the
/// session untouched) and what the server answered.
struct Sent {
  Kind kind = kSigma;
  std::string changes;  ///< JSON array text of the applied change list
  double round_trip_ms = 0.0;
  double handler_ms = 0.0;
  bool ok = false;
};

struct ClientLog {
  std::vector<Sent> sent;
  double final_mean = 0.0, final_sigma = 0.0;
};

/// The seeded request generator of one client.
class Script {
 public:
  Script(uint64_t seed, const Fixture& fx) : rng_(seed), fx_(fx) {}

  /// Next request: its kind, the request line and the change list.
  Kind next(uint64_t session, uint64_t id, std::string& line,
            std::string& changes) {
    if (deck_.empty()) shuffle_deck();
    const Kind kind = deck_.back();
    deck_.pop_back();
    const std::string head = R"({"id":)" + std::to_string(id) +
                             R"(,"session":)" + std::to_string(session);
    if (kind == kSweep) {
      changes.clear();
      line = head + R"(,"verb":"sweep","scenarios":[{"label":"a","changes":[)" +
             sigma() + R"(]},{"label":"b","changes":[)" + swap() +
             R"(]},{"label":"c","changes":[)" + sigma() + "," + swap() +
             "]}]}";
      return kind;
    }
    changes = "[" +
              (kind == kSigma    ? sigma()
               : kind == kSwap   ? swap()
               : kind == kRewire ? rewire()
                                 : move()) +
              "]";
    line = head + R"(,"verb":"analyze","changes":)" + changes + "}";
    return kind;
  }

 private:
  /// Kinds come from shuffled decks with a fixed mix, so every seed runs
  /// the same proportions (the seed changes order and parameters only).
  /// Moves and sweeps are the slow 10%. A request waits on about three
  /// others, the rest of its batch and the batch before it, so about a
  /// third of requests wait on a slow one: the p90 lands among those and
  /// the median well below them. With 15% slow, half the requests waited
  /// on one, and the median jumped between the two groups from run to run.
  void shuffle_deck() {
    for (const auto& [kind, n] : {std::pair{kSigma, 9}, {kSwap, 7},
                                  {kRewire, 2}, {kMove, 1}, {kSweep, 1}})
      deck_.insert(deck_.end(), n, kind);
    for (size_t i = deck_.size(); i > 1; --i)
      std::swap(deck_[i - 1], deck_[rng_.below(i)]);
  }

  std::string sigma() {
    return R"({"op":"sigma","param":)" + std::to_string(rng_.below(3)) +
           R"(,"scale":)" + num(rng_.scale(0.8, 1.25)) + "}";
  }
  std::string swap() {
    return R"({"op":"swap","inst":)" + std::to_string(rng_.below(kInstances)) +
           R"(,"file":")" + kChainModelFiles[rng_.below(3)] + "\"}";
  }
  /// Re-source one chain connection from another output of the same
  /// driving instance: always valid, never a cycle.
  std::string rewire() {
    const size_t conn = rng_.below((kInstances - 1) * fx_.inputs);
    const size_t from = conn / fx_.inputs, to_port = conn % fx_.inputs;
    return R"({"op":"rewire","conn":)" + std::to_string(conn) +
           R"(,"from_inst":)" + std::to_string(from) + R"(,"from_port":)" +
           std::to_string(rng_.below(fx_.outputs)) + R"(,"to_inst":)" +
           std::to_string(from + 1) + R"(,"to_port":)" +
           std::to_string(to_port) + "}";
  }
  /// Slide the last instance of the chain to a gap of 0, 1/4 or 1/2 of its
  /// width behind its neighbour, always a different gap from where the
  /// session has it: every move changes the design grid and PCA (the cost
  /// a move exists to measure), and the design stays the same size from
  /// seed to seed.
  std::string move() {
    gap_ = (gap_ + 1 + rng_.below(2)) % 3;
    const double gap = 0.25 * static_cast<double>(gap_);
    return R"({"op":"move","inst":)" + std::to_string(kInstances - 1) +
           R"(,"x":)" +
           num((static_cast<double>(kInstances - 1) + gap) * fx_.die.width) +
           R"(,"y":0})";
  }

  Rng rng_;
  const Fixture& fx_;
  std::vector<Kind> deck_;
  size_t gap_ = 0;  ///< the last instance's gap in quarter widths
};

/// Closed loop: every client sends its next request when the previous one
/// is answered, until the deadline.
void client_loop(const Fixture& fx, std::vector<Script>& scripts,
                 std::vector<ClientLog>& logs, double seconds, Tracer& tr) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::vector<std::string> errors(scripts.size());
  for (size_t c = 0; c < scripts.size(); ++c)
    threads.emplace_back([&, c] {
      try {
        serve::Client& client = fx.stack->clients[c];
        ClientLog& log = logs[c];
        while (Clock::now() < deadline) {
          Sent s;
          std::string line;
          const uint64_t id = log.sent.size() + 1;
          s.kind = scripts[c].next(fx.stack->sessions[c], id, line, s.changes);
          const Clock::time_point t0 = Clock::now();
          std::string resp;
          {
            const Tracer::Scope span = tr.span("client.request", (c << 32) | id);
            resp = client.request(line);
          }
          s.round_trip_ms = 1e3 * seconds_since(t0);
          const util::JsonValue v = util::JsonReader::parse(resp);
          const util::JsonValue* ok = v.find("ok");
          s.ok = ok && ok->as_bool();
          if (s.ok) s.handler_ms = 1e3 * v.at("seconds").as_number();
          log.sent.push_back(std::move(s));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("client: " + e);
}

/// Requests and batches the engine has seen so far (the stats verb).
std::pair<double, double> engine_counters(ServeStack& stack) {
  const util::JsonValue v =
      parse_ok(stack.admin->request(R"({"verb":"stats"})"), "stats");
  const util::JsonValue& c = v.at("counters");
  return {c.at("requests").as_number(), c.at("batches").as_number()};
}

struct ReplayStats {
  std::vector<double> analyze_ms[kKinds];
  double recomputed = 0.0, live = 0.0, full_builds = 0.0;
};

/// Replay each client's accepted changes on a local copy of the base
/// state. Traced runs analyze after every request (timed per change
/// kind); untraced runs analyze once at the end. The incremental engine
/// is bit-identical to a from-scratch analysis either way.
bool replay(const Fixture& fx, const flow::Config& cfg,
            const std::vector<ClientLog>& logs, bool per_request, Tracer& tr,
            ReplayStats& rs) {
  const flow::Design d = flow::build_chain_design("chain", fx.files, cfg);
  const incr::DesignState& base = d.incremental();
  std::map<std::string, std::shared_ptr<const model::TimingModel>> models;
  for (const char* f : kChainModelFiles) models[f] = flow::load_variant_model(f, cfg);
  bool all_equal = true;
  for (size_t c = 0; c < logs.size(); ++c) {
    incr::DesignState st = base;
    const uint64_t builds0 = st.stats().full_builds;
    uint64_t n = 0;
    for (const Sent& s : logs[c].sent) {
      ++n;
      if (!s.ok || s.changes.empty()) continue;
      const util::JsonValue changes = util::JsonReader::parse(s.changes);
      for (const util::JsonValue& cj : changes.items()) {
        const serve::ChangeSpec spec = serve::parse_change_spec(cj);
        if (spec.op == serve::ChangeSpec::Op::kSwap)
          incr::apply_change(st, incr::ReplaceModule{spec.inst, models.at(spec.file)});
        else
          incr::apply_change(st, serve::resolve_change(spec, cfg));
      }
      if (!per_request) continue;
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span = tr.span(
            std::string("incr.analyze.") + kKindNames[s.kind], (c << 32) | n);
        (void)st.analyze();
      }
      rs.analyze_ms[s.kind].push_back(1e3 * seconds_since(t0));
      rs.recomputed += static_cast<double>(st.stats().vertices_recomputed);
      rs.live += static_cast<double>(st.stats().vertices_live);
    }
    const timing::CanonicalForm& delay = st.analyze();
    rs.full_builds += static_cast<double>(st.stats().full_builds - builds0);
    all_equal = all_equal && delay.nominal() == logs[c].final_mean &&
                delay.sigma() == logs[c].final_sigma;
  }
  return all_equal;
}

}  // namespace

void run_eco_serve(const Options& o, Tracer& tr, Result& res,
                   HostSpeed& host) {
  const flow::Config cfg = bench_config(o.threads);
  Fixture fx =
      repeated_setup<Fixture>(res, 9, [&] { return setup(o.seed, o, cfg); });
  ServeStack& stack = *fx.stack;

  Rng seeds(o.seed ^ 0x65636f5f73657276ULL);
  std::vector<Script> scripts;
  for (size_t c = 0; c < o.clients; ++c) scripts.emplace_back(seeds.next(), fx);
  std::vector<ClientLog> logs(o.clients);

  // Untraced closed loop for the whole budget. A traced run runs two short
  // loops instead, untraced then under the tracer: a few hundred requests
  // each give the per-layer figures, and the replay of every request and
  // the other workloads' traced runs must fit in the same invocation.
  Tracer off(false);
  const auto [req0, batch0] = engine_counters(stack);
  const double loop_s =
      o.trace ? std::min(o.seconds / 2, kTracedLoopSeconds) : o.seconds;
  double wall = 0.0;  // the slices' wall time, without the host samples
  for (double left = loop_s; left > 0.0; left -= kSliceSeconds) {
    host.sample();
    const Clock::time_point t0 = Clock::now();
    client_loop(fx, scripts, logs, std::min(left, kSliceSeconds), off);
    wall += seconds_since(t0);
  }
  size_t untraced_n = 0;
  for (const ClientLog& l : logs) untraced_n += l.sent.size();
  if (o.trace) client_loop(fx, scripts, logs, loop_s, tr);
  const auto [req1, batch1] = engine_counters(stack);

  // Final state of every session, for the replay gate.
  for (size_t c = 0; c < o.clients; ++c) {
    const util::JsonValue v = parse_ok(
        stack.clients[c].request(R"({"verb":"analyze","session":)" +
                                 std::to_string(stack.sessions[c]) + "}"),
        "final analyze");
    logs[c].final_mean = v.at("delay").at("mean").as_number();
    logs[c].final_sigma = v.at("delay").at("sigma").as_number();
  }

  // Latency and failure accounting: a failed request counts as +inf.
  std::vector<double> rt, rt_traced, handler, wait, by_kind[kKinds];
  size_t ok = 0, seen = 0;
  for (const ClientLog& l : logs)
    for (const Sent& s : l.sent) {
      const bool traced_part = seen++ >= untraced_n;
      res.attempt();
      if (!s.ok) res.fail(std::string("error response to a ") +
                          kKindNames[s.kind] + " request");
      const double v = s.ok ? s.round_trip_ms : INFINITY;
      (traced_part ? rt_traced : rt).push_back(v);
      if (traced_part || !s.ok) continue;
      ++ok;
      handler.push_back(s.handler_ms);
      wait.push_back(s.round_trip_ms - s.handler_ms);
      by_kind[s.kind].push_back(s.round_trip_ms);
    }
  const double p50 = median(rt);
  res.set("latency_p50_ms", p50, "ms");
  res.set("latency_p90_ms", percentile(rt, 0.9), "ms");
  res.set("throughput_per_s", static_cast<double>(ok) / wall, "1/s");
  res.set("request_p50_ms", p50, "ms");
  res.set("request_p90_ms", percentile(rt, 0.9), "ms");
  res.set("requests_per_s", static_cast<double>(ok) / wall, "1/s");
  res.set("requests", static_cast<double>(rt.size()), "count");
  res.set("serve.handler_ms", median(handler), "ms");
  res.set("serve.wait_ms", median(wait), "ms");
  res.set("serve.batch_size", (req1 - req0) / std::max(1.0, batch1 - batch0),
          "count");
  for (int k = 0; k < kKinds; ++k)
    res.set(std::string("serve.") + kKindNames[k] + "_ms", median(by_kind[k]),
            "ms");

  ReplayStats rs;
  res.gate(replay(fx, cfg, logs, o.trace, tr, rs),
           "final session delays equal the local DesignState replay");
  if (!o.trace) return;

  res.set("trace.overhead_pct.eco_serve",
          100.0 * (median(rt_traced) - p50) / p50, "%");
  for (int k = 0; k < kSweep; ++k)
    res.set(std::string("incr.analyze_ms.") + kKindNames[k],
            median(rs.analyze_ms[k]), "ms");
  res.set("incr.recompute_ratio", rs.recomputed / std::max(1.0, rs.live),
          "ratio");
  res.set("incr.full_builds", rs.full_builds, "count");

  std::vector<double> load_ms;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t = Clock::now();
    const Tracer::Scope span = tr.span("model.load");
    (void)model::TimingModel::load_file(kChainModelFiles[1]);
    load_ms.push_back(1e3 * seconds_since(t));
  }
  res.set("model.load_ms", median(load_ms), "ms");
}

}  // namespace perfbench
