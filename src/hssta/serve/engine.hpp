/// \file engine.hpp
/// serve::Engine — the long-running analysis service behind hssta_serve.
///
/// One Engine holds the process-wide warm state the hierarchical flow
/// exists to amortize: loaded chain designs with their extracted models
/// (shared, immutable after load) plus one fully analyzed incremental
/// base per design. Clients open sessions against a design; each session
/// owns a private incr::DesignState *copy* of the warm base — the clean
/// prefix (stitched graph, provenance, design PCA, arrivals) is shared by
/// copy, none of it recomputes — and drives ECO what-ifs through the
/// change API. Nothing cold happens per request: a session's analyze
/// re-propagates only the dirty cone, exactly like `hssta_cli eco`, and
/// returns bit-identical numbers.
///
/// Swaps and load_design resolve .hstm files through a model table. Every
/// swap (in eco, analyze or a sweep scenario) reads its variant file,
/// because the file may have changed since the last request. The format
/// is decided on a bounded prefix: anything but a .hstm model (a netlist
/// variant, an unreadable or endless path) loads through
/// flow::load_variant_model as in a one-shot run, errors included. A .hstm
/// is read on to end of file, and the table compares its bytes with the
/// ones it last parsed from that path and parses again only when they
/// differ or nothing holds that model any more. load_design resolves each
/// of its .hstm files the same way and passes the copies to
/// flow::build_chain_design as ChainOverrides models, so a design of N
/// identical files parses one; its netlists and unreadable paths take
/// build_chain_design's own path. Each resolution gets a private copy of
/// the parsed model, never the shared object: a saved session embeds one
/// model per distinct pointer and the hierarchical checks attribute
/// findings by pointer, so sharing would change saved bytes and
/// fingerprints. The copies share the parsed model's saved text
/// (model::TimingModel::saved_text), so a sweep's fingerprints serialize
/// each parsed model at most once. A copy keeps its parsed model alive,
/// and a table entry lives exactly as long as a loaded design, a session
/// or a running sweep holds one of its copies.
///
/// Concurrency runs on per-session lanes. A session verb's lane is its
/// session id; every other verb shares one control lane.
///
///   submit() parses the line (a bad one is answered at once with
///   "bad_request"), picks the lane and admits the request into the
///   engine's FIFO. After shutdown it answers "shutting_down"; when
///   queue_capacity requests are already waiting to start it answers
///   "backpressure". Rejections echo the request's id.
///   `threads` workers each take the oldest waiting request whose lane is
///   idle, run it and deliver its response at once, then free the lane.
///
/// A lane runs one request at a time, in arrival order, so a session's
/// changes stay ordered no matter how many connections issue them, and
/// the control verbs run one after another. Sessions analyze serially, so
/// every response is bit-identical to the equivalent one-shot CLI
/// analysis at any client count and any `threads` setting. Responses are
/// delivered in completion order: while a worker is free, a fast request
/// never waits for a slow one on another lane. Same-lane responses keep
/// arrival order; the socket transport restores per-connection request
/// order itself.
///
/// Sessions idle longer than idle_timeout_seconds are evicted each time a
/// worker takes a request, before it marks that request's lane running.
/// Eviction skips sessions whose lane is running, so no session is evicted
/// mid-request, and a request for a session idle past the timeout gets an
/// "unknown_session" error naming the eviction.
///
/// Shutdown is graceful by construction: the shutdown verb (or
/// request_stop) closes admission, the workers finish every request
/// accepted before the close — in-flight sweeps included — and stopped()
/// turns true once nothing waits or runs; then each worker exits.
///
/// Every admitted request has one answer path: answer() opens the
/// response object, runs the verb's handler, closes the object and counts
/// the outcome. A handler writes only its payload members, or throws a
/// coded refusal that answer() turns into an error response (with the
/// check report for "check_failed"); any other exception answers
/// "internal". The response is built in a buffer that a throw discards,
/// so a handler that fails halfway leaves no partial payload behind.
/// The `stats` counters are one table, indexed by Engine::Counter.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hssta/flow/design.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/serve/protocol.hpp"

namespace hssta::serve {

struct EngineOptions {
  /// Worker threads (0 = hardware concurrency). Purely a throughput knob:
  /// responses are bit-identical at any width.
  size_t threads = 0;
  /// Admission-control depth: how many requests may wait to start. Beyond
  /// it new requests are rejected with a "backpressure" error at once.
  /// Must be positive.
  size_t queue_capacity = 256;
  /// Sessions idle longer than this are evicted (0 disables eviction).
  double idle_timeout_seconds = 600.0;
  /// Max concurrently open sessions; opens beyond it get "saturated".
  size_t max_sessions = 256;
  /// Base configuration for load_design and swap-variant loading.
  /// Server-side designs and sessions always analyze serially on their
  /// worker (parallelism comes from running lanes side by side), so
  /// cfg.threads is deliberately ignored here.
  flow::Config config;
};

class Engine {
 public:
  /// Receives exactly one response line (no trailing newline) per
  /// submitted request. Must not throw: it runs on a worker thread.
  using Done = std::function<void(std::string)>;

  /// Starts the workers. Throws hssta::Error when queue_capacity is 0.
  explicit Engine(EngineOptions opts = {});
  /// Stops (as if by request_stop) and drains before destruction.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submit one request line; `done` receives its response exactly once.
  /// A rejected line is answered inline, from submit() itself: a line that
  /// does not parse ("bad_request", no id), and a request arriving after
  /// shutdown ("shutting_down") or while queue_capacity requests wait to
  /// start ("backpressure"), both with the request's id. An admitted
  /// request is answered from the worker that ran it, as soon as it
  /// finishes. Requests on one lane are answered in submission order;
  /// across lanes, in completion order.
  void submit(std::string line, Done done);

  /// Synchronous round trip (tests, the stdio transport).
  [[nodiscard]] std::string request(const std::string& line);

  /// True once shutdown was processed (or request_stop called) and every
  /// accepted request has been answered.
  [[nodiscard]] bool stopped() const;
  /// Block until stopped() — the daemon main's parking spot.
  void wait_until_stopped();
  /// Stop as if a shutdown request had been processed (EOF on the
  /// controlling transport, signal handler). Idempotent.
  void request_stop();

  [[nodiscard]] const EngineOptions& options() const { return opts_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// The control verbs' lane. Session ids start at 1, so lane 0 is free
  /// (a session verb naming session 0 shares it and is answered
  /// "unknown_session").
  static constexpr uint64_t kControlLane = 0;

  /// One admitted request, waiting for its lane to be idle.
  struct Admitted {
    Request request;
    uint64_t lane = kControlLane;
    Done done;
  };

  /// The `stats` verb's counters, in the order it reports them; their
  /// names are the table kCounterNames in engine.cpp.
  enum Counter : size_t {
    kRequests,
    kResponsesOk,
    kResponsesError,
    kRejectedBackpressure,
    kRejectedShutdown,
    kBatches,  ///< dispatches: one per request a worker handled
    kSessionsOpened,
    kSessionsClosed,
    kSessionsEvicted,
    kEcos,
    kAnalyzes,
    kSweeps,
    kModelsParsed,  ///< a .hstm parsed (swap or load_design): no live
                    ///< entry held its bytes
    kModelsReused,  ///< a swap or load_design reused a parsed model
    kNumCounters
  };

  struct Session {
    incr::DesignState state;
    /// Written at creation, then only while the session's lane runs;
    /// eviction reads it only while the lane does not run, so lanes_mu_
    /// orders every write before every read.
    Clock::time_point last_used;
  };

  void work_loop();
  /// Evict sessions idle past the timeout whose lane is not running.
  /// Caller holds lanes_mu_.
  void evict_idle_sessions();
  /// Caller holds lanes_mu_.
  [[nodiscard]] bool lane_running(uint64_t lane) const;
  /// Admission is closed and every accepted request has been answered.
  /// Caller holds lanes_mu_.
  [[nodiscard]] bool drained() const;

  void bump(Counter c);

  /// The response line of an admitted request: the one place that frames
  /// a handler's payload and counts its outcome. Runs on a worker, one
  /// request per lane at a time.
  [[nodiscard]] std::string answer(const Request& req);

  /// Verb handlers: each writes its payload members into the response
  /// object answer() opened, or throws a refusal.
  void handle(const Request& req, util::JsonWriter& w);
  void handle_load_design(const Request& req, util::JsonWriter& w);
  void handle_open_session(const Request& req, util::JsonWriter& w);
  void handle_eco(const Request& req, util::JsonWriter& w);
  void handle_analyze(const Request& req, util::JsonWriter& w);
  void handle_sweep(const Request& req, util::JsonWriter& w);
  void handle_check(const Request& req, util::JsonWriter& w);
  void handle_stats(const Request& req, util::JsonWriter& w);
  void handle_save_session(const Request& req, util::JsonWriter& w);
  void handle_restore_session(const Request& req, util::JsonWriter& w);
  void handle_close_session(const Request& req, util::JsonWriter& w);
  void handle_shutdown(const Request& req, util::JsonWriter& w);

  /// The loaded design `name`, or refuse "unknown_design".
  [[nodiscard]] const flow::Design& design(const std::string& name);
  /// req.session's session, marked used, or refuse "unknown_session"
  /// naming why: evicted, never opened, or closed.
  [[nodiscard]] Session& session(const Request& req);
  /// Resolve every change, then apply them all to `state`, or refuse
  /// "invalid_change". A spec that fails to resolve (a missing variant
  /// file, ...) leaves `state` untouched.
  void apply_changes(incr::DesignState& state,
                     const std::vector<ChangeSpec>& specs);
  /// The engine change of `spec`: a swap gets a copy of its variant model
  /// from the model table (flow::load_variant_model's for anything but
  /// .hstm content), any other change is resolve_change's.
  [[nodiscard]] incr::Change resolve(const ChangeSpec& spec);
  /// A private copy of the .hstm model in `file`, parsed only when no live
  /// table entry holds the file's current bytes; null when `file` does not
  /// hold .hstm content (unreadable paths included). Reads the file once.
  [[nodiscard]] std::shared_ptr<const model::TimingModel> table_model(
      const std::string& file);
  /// Publish `state` as a new session, or refuse "saturated". Writes the
  /// session id, its design, `file` when given and its delay first: once
  /// in the map, the session belongs to its lane, which may already hold
  /// a request for the new id.
  void open(incr::DesignState state, const std::string* file,
            util::JsonWriter& w);

  EngineOptions opts_;

  /// Admission and lanes: the FIFO of requests waiting to start, the lanes
  /// of the requests running, and the shutdown state. Taken before mu_
  /// when both are needed.
  mutable std::mutex lanes_mu_;
  std::condition_variable work_cv_;     ///< a lane freed, work or stop came
  std::condition_variable stopped_cv_;  ///< drained() may have become true
  std::deque<Admitted> waiting_;
  std::vector<uint64_t> running_;  ///< at most one entry per lane
  bool closed_ = false;

  /// Loaded designs + sessions. The map structure is guarded by mu_;
  /// a published Session is only touched from its own lane, a loaded
  /// design only from the control lane (map nodes never move).
  mutable std::mutex mu_;
  std::map<std::string, flow::Design> designs_;
  std::map<uint64_t, Session> sessions_;
  std::set<uint64_t> evicted_ids_;
  uint64_t next_session_ = 1;

  /// A .hstm as last parsed: its bytes and the model parsed from them,
  /// alive while some copy of it is (in a loaded design, a session or a
  /// running sweep).
  struct ParsedModel {
    std::string bytes;
    std::weak_ptr<const model::TimingModel> model;
  };
  /// The model table, keyed by variant path. It has its own mutex, not
  /// mu_: lanes resolve swaps concurrently, and the file reads and parses
  /// run outside it.
  std::mutex models_mu_;
  std::map<std::string, ParsedModel> models_;

  /// Atomics: bumped from worker threads and submitters.
  std::array<std::atomic<uint64_t>, kNumCounters> counters_{};
  Clock::time_point started_ = Clock::now();

  /// Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace hssta::serve
