/// \file executor.hpp
/// The execution context of the compute layer.
///
/// The paper's cost profile is dominated by embarrassingly parallel loops:
/// one canonical propagation per input port (Section III's all-pairs IO
/// delay matrix), one fused forward + backward pass per input (Section IV.B
/// criticality), one scalar evaluation per Monte Carlo sample, one model
/// extraction per module instance (Fig. 5). Every hot API therefore accepts
/// an exec::Executor, which turns "how parallel" into a property of the
/// call site instead of the algorithm:
///
///   exec::ThreadPoolExecutor pool(4);
///   core::all_pairs_io_delays(g, pool);      // 4-way per-input fan-out
///   core::all_pairs_io_delays(g);            // serial, same bits
///
/// Contract:
///  * parallel_for(n, task) invokes task(i, ws) exactly once for every
///    i in [0, n), dealt round-robin over the T worker slots of the region
///    (index i runs on slot i mod T, no work stealing) so the index ->
///    thread mapping is deterministic; with n == T index i runs on slot i.
///    Per-index cost often follows a structural size (an input's cone), so
///    dealing spreads neighbouring heavy indices over every slot;
///  * each slot runs its indices in increasing order, and each invocation
///    receives the Workspace of the worker slot running it (scratch reuse
///    across iterations; see workspace.hpp);
///  * a slot stops at its first failing task; after the region drains, the
///    exception of the lowest failing index is rethrown on the calling
///    thread — the error a serial loop would have thrown, at every thread
///    count;
///  * regions do not nest: calling parallel_for on an executor that is
///    already running a region on the current call stack throws
///    hssta::Error (use a fresh SerialExecutor inside tasks that need an
///    execution context of their own);
///  * all library algorithms built on parallel_for are bit-identical at
///    every thread count — per-index results are independent and merges
///    use order-insensitive operations (max, integer sums, per-slot
///    writes), so "parallel" is never a numerical ablation.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "hssta/exec/workspace.hpp"

namespace hssta::exec {

class Executor {
 public:
  /// Loop body: `index` is the work item, `ws` the running worker's arena.
  using Task = std::function<void(size_t index, Workspace& ws)>;

  /// RAII: exclusive use of the executor across a whole
  /// reset-workspaces -> parallel_for -> merge-workspaces sequence.
  /// parallel_for takes the same (recursive) lock, so library algorithms
  /// that prepare and merge per-worker accumulators hold an Exclusive for
  /// the full sequence — two threads sharing one executor then serialize
  /// at algorithm granularity instead of interleaving workspace state.
  class Exclusive {
   public:
    explicit Exclusive(Executor& ex) : lock_(ex.caller_mu_) {}

   private:
    std::lock_guard<std::recursive_mutex> lock_;
  };

  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  virtual ~Executor() = default;

  /// Number of threads a region may occupy (1 for SerialExecutor).
  [[nodiscard]] virtual size_t concurrency() const = 0;

  /// Run task(i, ws) for every i in [0, n); blocks until all complete.
  virtual void parallel_for(size_t n, const Task& task) = 0;

  /// Worker arenas, indexed by worker slot (slot 0 is the calling thread).
  /// Valid between regions: callers reset per-region accumulators before a
  /// parallel_for and merge them afterwards — holding an Exclusive for the
  /// whole sequence when the executor may be shared across threads.
  [[nodiscard]] virtual size_t num_workspaces() const = 0;
  [[nodiscard]] virtual Workspace& workspace(size_t slot) = 0;

 protected:
  /// Serializes whole caller sequences (see Exclusive); recursive so a
  /// parallel_for inside an Exclusive scope of the same thread re-enters.
  std::recursive_mutex caller_mu_;
};

/// Runs everything inline on the calling thread with one workspace.
class SerialExecutor final : public Executor {
 public:
  [[nodiscard]] size_t concurrency() const override { return 1; }
  void parallel_for(size_t n, const Task& task) override;
  [[nodiscard]] size_t num_workspaces() const override { return 1; }
  [[nodiscard]] Workspace& workspace(size_t slot) override;

 private:
  Workspace workspace_;
};

/// Persistent thread pool with a round-robin parallel_for: worker slot w of
/// W handles indices w, w + W, w + 2W, ... The calling thread participates
/// as slot 0, so ThreadPoolExecutor(4) occupies exactly 4 threads.
/// Top-level regions from different threads are serialized against each
/// other.
class ThreadPoolExecutor final : public Executor {
 public:
  /// `threads` = 0 picks the hardware concurrency; 1 degenerates to inline
  /// execution (still a distinct executor instance).
  explicit ThreadPoolExecutor(size_t threads = 0);
  ~ThreadPoolExecutor() override;

  [[nodiscard]] size_t concurrency() const override { return threads_; }
  void parallel_for(size_t n, const Task& task) override;
  [[nodiscard]] size_t num_workspaces() const override { return threads_; }
  [[nodiscard]] Workspace& workspace(size_t slot) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  size_t threads_ = 0;
};

/// Resolve a thread-count request: 0 -> hardware concurrency (at least 1),
/// anything else unchanged.
[[nodiscard]] size_t effective_threads(size_t threads);

/// SerialExecutor for threads <= 1, ThreadPoolExecutor otherwise (after
/// effective_threads resolution).
[[nodiscard]] std::shared_ptr<Executor> make_executor(size_t threads = 0);

}  // namespace hssta::exec
