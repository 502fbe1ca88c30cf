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
///   core::all_pairs_io_delays(g);            // exec::serial(), same bits
///
/// An executor holds threads and nothing else. Scratch belongs to the call:
/// an algorithm keeps one scratch instance per worker slot in a vector
/// sized concurrency(), indexes it by the slot each task receives, and
/// merges it after the region. So one executor may be shared by any number
/// of threads, and exec::serial() is the default of every algorithm.
///
/// Contract:
///  * parallel_for(n, task) invokes task(i, slot) exactly once for every
///    i in [0, n), dealt round-robin over the T worker slots of the region
///    (index i runs on slot i mod T, no work stealing) so the index ->
///    thread mapping is deterministic; with n == T index i runs on slot i.
///    slot < concurrency() always. Per-index cost often follows a
///    structural size (an input's cone), so dealing spreads neighbouring
///    heavy indices over every slot;
///  * each slot runs its indices in increasing order, on one thread, so a
///    per-slot scratch entry is never touched by two tasks at once;
///  * a slot stops at its first failing task; after the region drains, the
///    exception of the lowest failing index is rethrown on the calling
///    thread — the error a serial loop would have thrown, at every thread
///    count;
///  * a pool's regions do not nest: calling parallel_for on a
///    ThreadPoolExecutor that is already running a region on the current
///    call stack throws hssta::Error. SerialExecutor is a plain loop, so
///    exec::serial() nests anywhere (tasks that need an execution context
///    of their own pass exec::serial());
///  * all library algorithms built on parallel_for are bit-identical at
///    every thread count — per-index results are independent and merges
///    use order-insensitive operations (max, integer sums, per-slot
///    writes), so "parallel" is never a numerical ablation.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace hssta::exec {

/// Upper bound on any thread count: effective_threads throws above it (and
/// clamps the hardware default to it), so no input can size a pool, a
/// per-slot vector or the serve worker set beyond it.
inline constexpr size_t kMaxThreads = 256;

class Executor {
 public:
  /// Loop body: `index` is the work item, `slot` the worker slot running it
  /// (slot < concurrency()).
  using Task = std::function<void(size_t index, size_t slot)>;

  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  virtual ~Executor() = default;

  /// Number of worker slots a region may occupy (1 for SerialExecutor).
  [[nodiscard]] virtual size_t concurrency() const = 0;

  /// Run task(i, slot) for every i in [0, n); blocks until all complete.
  virtual void parallel_for(size_t n, const Task& task) = 0;
};

/// Runs everything inline on the calling thread, as slot 0.
class SerialExecutor final : public Executor {
 public:
  [[nodiscard]] size_t concurrency() const override { return 1; }
  void parallel_for(size_t n, const Task& task) override;
};

/// The process-wide SerialExecutor: stateless, so any number of threads
/// may run regions on it at once, nested or not. The default executor of
/// every library algorithm.
[[nodiscard]] Executor& serial();

/// Persistent thread pool with a round-robin parallel_for: worker slot w of
/// W handles indices w, w + W, w + 2W, ... The calling thread participates
/// as slot 0, so ThreadPoolExecutor(4) occupies exactly 4 threads.
/// Top-level regions from different threads are serialized against each
/// other.
class ThreadPoolExecutor final : public Executor {
 public:
  /// `threads` = 0 picks the hardware concurrency; 1 degenerates to inline
  /// execution (still a distinct executor instance). Throws hssta::Error
  /// above kMaxThreads; if a worker fails to start, the started ones are
  /// joined and the error is rethrown.
  explicit ThreadPoolExecutor(size_t threads = 0);
  ~ThreadPoolExecutor() override;

  [[nodiscard]] size_t concurrency() const override { return threads_; }
  void parallel_for(size_t n, const Task& task) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  size_t threads_ = 0;
};

/// Resolve a thread-count request: 0 -> hardware concurrency (at least 1,
/// at most kMaxThreads), anything else unchanged. Throws hssta::Error for a
/// request above kMaxThreads.
[[nodiscard]] size_t effective_threads(size_t threads);

/// SerialExecutor for threads <= 1, ThreadPoolExecutor otherwise (after
/// effective_threads resolution).
[[nodiscard]] std::shared_ptr<Executor> make_executor(size_t threads = 0);

}  // namespace hssta::exec
