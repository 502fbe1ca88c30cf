#include "hssta/exec/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hssta/util/error.hpp"

namespace hssta::exec {

namespace {

/// Pools whose regions are live on this thread's call stack. Used to
/// reject nested submission (which would deadlock a pool whose run lock is
/// already held, and has no meaningful static-schedule semantics).
thread_local std::vector<const Executor*> tl_active;

class ActiveRegion {
 public:
  explicit ActiveRegion(const Executor* e) { tl_active.push_back(e); }
  ~ActiveRegion() { tl_active.pop_back(); }
  ActiveRegion(const ActiveRegion&) = delete;
  ActiveRegion& operator=(const ActiveRegion&) = delete;
};

void require_not_active(const Executor* e) {
  if (std::find(tl_active.begin(), tl_active.end(), e) != tl_active.end())
    throw Error(
        "executor: nested parallel_for on an executor already running a "
        "region on this call stack");
}

}  // namespace

// --- SerialExecutor ---------------------------------------------------------

void SerialExecutor::parallel_for(size_t n, const Task& task) {
  for (size_t i = 0; i < n; ++i) task(i, 0);
}

Executor& serial() {
  static SerialExecutor instance;
  return instance;
}

// --- ThreadPoolExecutor -----------------------------------------------------

struct ThreadPoolExecutor::Impl {
  explicit Impl(size_t threads) : num_threads(threads), errors(threads) {}

  /// A worker slot's first failure in the current job, with its index.
  struct SlotError {
    size_t index = 0;
    std::exception_ptr error;
  };

  const size_t num_threads;

  /// Serializes top-level regions from different threads.
  std::mutex run_mu;

  std::mutex m;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  uint64_t generation = 0;
  size_t job_n = 0;
  size_t job_slots = 0;  ///< worker slots participating in the current job
  const Task* job_task = nullptr;
  size_t pending = 0;  ///< spawned workers that have not finished the job
  std::vector<SlotError> errors;  ///< per worker slot
  bool shutdown = false;

  std::vector<std::thread> workers;  ///< slots 1 .. num_threads-1

  /// Slot `slot` runs indices slot, slot + job_slots, ... in increasing
  /// order and stops at its first failure.
  void run_slot(const Executor* self, size_t slot) {
    const ActiveRegion region(self);
    const Task& task = *job_task;
    for (size_t i = slot; i < job_n; i += job_slots) {
      try {
        task(i, slot);
      } catch (...) {
        errors[slot] = SlotError{i, std::current_exception()};
        return;
      }
    }
  }

  /// Rethrow the failure with the lowest index. Every slot runs its indices
  /// in order up to its first failure, so the slot dealt the lowest failing
  /// index reached it: this is the error a serial loop would throw.
  void rethrow_lowest_failure() {
    const SlotError* first = nullptr;
    for (const SlotError& e : errors)
      if (e.error && (first == nullptr || e.index < first->index)) first = &e;
    if (first != nullptr) std::rethrow_exception(first->error);
  }

  /// Deal [0, n) round-robin over `slots` worker slots and rethrow the
  /// lowest failing index. Caller holds run_mu.
  void run_job(const Executor* self, size_t n, size_t slots,
               const Task& task) {
    if (slots == 1) {
      // Inline, but with the same bookkeeping (slot 0, whole range).
      {
        std::lock_guard<std::mutex> lock(m);
        job_n = n;
        job_slots = 1;
        job_task = &task;
        std::fill(errors.begin(), errors.end(), SlotError{});
      }
      run_slot(self, 0);
      rethrow_lowest_failure();
      return;
    }

    {
      std::lock_guard<std::mutex> lock(m);
      job_n = n;
      job_slots = slots;
      job_task = &task;
      pending = num_threads - 1;
      std::fill(errors.begin(), errors.end(), SlotError{});
      ++generation;
    }
    cv_start.notify_all();

    run_slot(self, 0);  // the calling thread is worker slot 0

    {
      std::unique_lock<std::mutex> lock(m);
      cv_done.wait(lock, [&] { return pending == 0; });
      job_task = nullptr;
    }
    rethrow_lowest_failure();
  }

  void worker_loop(const Executor* self, size_t slot) {
    uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(m);
        cv_start.wait(lock,
                      [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
      }
      if (slot < job_slots) run_slot(self, slot);
      {
        std::lock_guard<std::mutex> lock(m);
        if (--pending == 0) cv_done.notify_all();
      }
    }
  }

  /// Stop and join every started worker.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(m);
      shutdown = true;
    }
    cv_start.notify_all();
    for (std::thread& t : workers) t.join();
  }
};

ThreadPoolExecutor::ThreadPoolExecutor(size_t threads)
    : threads_(effective_threads(threads)) {
  impl_ = std::make_unique<Impl>(threads_);
  impl_->workers.reserve(threads_ - 1);
  try {
    for (size_t slot = 1; slot < threads_; ++slot)
      impl_->workers.emplace_back(
          [this, slot] { impl_->worker_loop(this, slot); });
  } catch (...) {
    impl_->stop();  // a joinable std::thread must not be destroyed
    throw;
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() { impl_->stop(); }

void ThreadPoolExecutor::parallel_for(size_t n, const Task& task) {
  require_not_active(this);
  if (n == 0) return;
  const std::lock_guard<std::mutex> lock(impl_->run_mu);
  impl_->run_job(this, n, std::min(threads_, n), task);
}

// --- helpers ----------------------------------------------------------------

size_t effective_threads(size_t threads) {
  if (threads > kMaxThreads)
    throw Error("thread count " + std::to_string(threads) +
                " exceeds exec::kMaxThreads (" + std::to_string(kMaxThreads) +
                ")");
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw, 1, kMaxThreads);
}

std::shared_ptr<Executor> make_executor(size_t threads) {
  const size_t t = effective_threads(threads);
  if (t <= 1) return std::make_shared<SerialExecutor>();
  return std::make_shared<ThreadPoolExecutor>(t);
}

}  // namespace hssta::exec
