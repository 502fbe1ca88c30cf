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
/// Concurrency rides the existing exec::Executor as a batch dispatcher:
///
///   submit() ──► BoundedQueue (admission control: a full queue answers
///                "backpressure" immediately instead of stalling readers)
///        dispatcher thread pops a batch, groups it — session verbs by
///        session id, everything else into one ordered control group —
///        and fans the groups across the executor with one parallel_for.
///
/// Per-session serialization falls out of the grouping: all of a
/// session's requests in a batch run in one group, in arrival order, so
/// a session's changes stay ordered no matter how many connections issue
/// them. Sessions analyze serially inside their group, so every response
/// is bit-identical to the equivalent one-shot CLI analysis at any client
/// count and any `threads` setting.
/// Responses are delivered in batch arrival order after the batch drains;
/// per-submitter request order is therefore preserved end to end.
///
/// Shutdown is graceful by construction: the shutdown verb closes the
/// queue (new requests are rejected with "shutting_down"), the dispatcher
/// drains every request accepted before the close — in-flight sweeps
/// included — and only then signals stopped().
///
/// Sessions idle longer than idle_timeout_seconds are evicted between
/// batches; a request against an evicted id gets an "unknown_session"
/// error naming the eviction.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hssta/exec/executor.hpp"
#include "hssta/exec/queue.hpp"
#include "hssta/flow/design.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/serve/protocol.hpp"

namespace hssta::serve {

struct EngineOptions {
  /// Worker threads for the request-batch executor (0 = hardware
  /// concurrency). Purely a throughput knob: responses are bit-identical
  /// at any width.
  size_t threads = 0;
  /// Bounded request queue capacity — the admission-control depth. A full
  /// queue rejects new requests with a "backpressure" error immediately.
  size_t queue_capacity = 256;
  /// Max requests dispatched per batch.
  size_t batch_max = 32;
  /// Sessions idle longer than this are evicted between batches
  /// (0 disables eviction).
  double idle_timeout_seconds = 600.0;
  /// Max concurrently open sessions; opens beyond it get "saturated".
  size_t max_sessions = 256;
  /// Base configuration for load_design and swap-variant loading.
  /// Server-side designs and sessions always analyze serially inside
  /// their worker slot (parallelism comes from batching requests across
  /// sessions), so cfg.threads is deliberately ignored here.
  flow::Config config;
};

/// Monotonic service counters (the `stats` verb's payload).
struct EngineStats {
  uint64_t requests = 0;
  uint64_t responses_ok = 0;
  uint64_t responses_error = 0;
  uint64_t rejected_backpressure = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t batches = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t sessions_evicted = 0;
  uint64_t ecos = 0;
  uint64_t analyzes = 0;
  uint64_t sweeps = 0;
};

class Engine {
 public:
  /// Receives exactly one response line (no trailing newline) per
  /// submitted request.
  using Done = std::function<void(std::string)>;

  explicit Engine(EngineOptions opts = {});
  /// Stops (as if by request_stop) and drains before destruction.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submit one request line. `done` is invoked either by the dispatcher
  /// after the request's batch completes (per-submitter arrival order
  /// preserved) or inline from submit() itself when the request is
  /// rejected up front (queue saturated / shutting down) — rejections may
  /// therefore overtake queued responses; they carry "code" so pipelined
  /// clients can tell.
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
  [[nodiscard]] EngineStats stats_snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::string line;
    Done done;
  };

  /// One parsed request within a batch, plus its slot for the response.
  struct Work {
    Pending pending;
    Request request;
    bool parsed = false;
    std::string response;  ///< pre-filled with the parse error when !parsed
  };

  struct Session {
    uint64_t id = 0;
    std::string design;
    incr::DesignState state;
    Clock::time_point last_used;
    uint64_t ecos = 0;

    Session(uint64_t id_, std::string design_, incr::DesignState state_)
        : id(id_), design(std::move(design_)), state(std::move(state_)) {}
  };

  /// One loaded design: the assembled flow::Design (keeps models/modules
  /// alive and caches the from-scratch analysis) plus the analyzed warm
  /// base sessions copy from. Immutable after load.
  struct Loaded {
    flow::Design design;
    explicit Loaded(flow::Design d) : design(std::move(d)) {}
  };

  void dispatch_loop();
  void run_batch(std::vector<Pending> batch);
  void evict_idle_sessions();

  /// Verb handlers; run on executor workers (or inline). Each returns the
  /// full response line.
  [[nodiscard]] std::string handle(const Request& req);
  [[nodiscard]] std::string handle_load_design(const Request& req);
  [[nodiscard]] std::string handle_open_session(const Request& req);
  [[nodiscard]] std::string handle_eco(const Request& req);
  [[nodiscard]] std::string handle_analyze(const Request& req);
  [[nodiscard]] std::string handle_sweep(const Request& req);
  [[nodiscard]] std::string handle_check(const Request& req);
  [[nodiscard]] std::string handle_stats(const Request& req);
  [[nodiscard]] std::string handle_save_session(const Request& req);
  [[nodiscard]] std::string handle_restore_session(const Request& req);
  [[nodiscard]] std::string handle_close_session(const Request& req);
  [[nodiscard]] std::string handle_shutdown(const Request& req);

  /// Locate a session or fill `error` with the right code/message.
  [[nodiscard]] std::shared_ptr<Session> find_session(uint64_t id,
                                                      std::string& error,
                                                      const char*& code);

  EngineOptions opts_;
  std::shared_ptr<exec::Executor> exec_;
  exec::BoundedQueue<Pending> queue_;
  std::thread dispatcher_;

  /// Loaded designs + sessions. The map structure is guarded by mu_;
  /// Session objects themselves are only touched by their (unique) batch
  /// group, Loaded objects only by the control group after load.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Loaded>> designs_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  std::set<uint64_t> evicted_ids_;
  uint64_t next_session_ = 1;

  std::atomic<bool> stop_requested_{false};
  mutable std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;
  bool stopped_ = false;

  /// Monotonic counters (atomics: bumped from worker threads).
  std::atomic<uint64_t> n_requests_{0}, n_ok_{0}, n_error_{0};
  std::atomic<uint64_t> n_backpressure_{0}, n_rejected_shutdown_{0};
  std::atomic<uint64_t> n_batches_{0};
  std::atomic<uint64_t> n_opened_{0}, n_closed_{0}, n_evicted_{0};
  std::atomic<uint64_t> n_ecos_{0}, n_analyzes_{0}, n_sweeps_{0};
  Clock::time_point started_ = Clock::now();
};

}  // namespace hssta::serve
