#include "hssta/exec/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "hssta/util/error.hpp"

namespace hssta::exec {

namespace {

/// Executors whose regions are live on this thread's call stack. Used to
/// reject nested submission (which would deadlock a pool whose run lock is
/// already held, and has no meaningful static-chunk semantics).
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
  require_not_active(this);
  const Exclusive scope(*this);
  const ActiveRegion region(this);
  for (size_t i = 0; i < n; ++i) task(i, workspace_);
}

Workspace& SerialExecutor::workspace(size_t slot) {
  HSSTA_REQUIRE(slot == 0, "serial executor has exactly one workspace");
  return workspace_;
}

// --- ThreadPoolExecutor -----------------------------------------------------

struct ThreadPoolExecutor::Impl {
  explicit Impl(size_t threads)
      : num_threads(threads), workspaces(threads), errors(threads) {}

  const size_t num_threads;
  std::vector<Workspace> workspaces;

  std::mutex m;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  uint64_t generation = 0;
  size_t job_n = 0;
  size_t job_slots = 0;  ///< worker slots participating in the current job
  const Task* job_task = nullptr;
  size_t pending = 0;  ///< spawned workers that have not finished the job
  std::vector<std::exception_ptr> errors;  ///< per worker slot
  bool shutdown = false;

  std::vector<std::thread> workers;  ///< slots 1 .. num_threads-1

  void run_chunk(const Executor* self, size_t slot) {
    const size_t begin = slot * job_n / job_slots;
    const size_t end = (slot + 1) * job_n / job_slots;
    const ActiveRegion region(self);
    try {
      const Task& task = *job_task;
      Workspace& ws = workspaces[slot];
      for (size_t i = begin; i < end; ++i) task(i, ws);
    } catch (...) {
      errors[slot] = std::current_exception();
    }
  }

  /// Run `slots` uniform static chunks of [0, n) and rethrow the
  /// lowest-slot failure. Caller holds the Exclusive scope.
  void run_job(const Executor* self, size_t n, size_t slots,
               const Task& task) {
    if (slots == 1) {
      // Inline, but with the same chunk bookkeeping (slot 0, whole range).
      {
        std::lock_guard<std::mutex> lock(m);
        job_n = n;
        job_slots = 1;
        job_task = &task;
        errors[0] = nullptr;
      }
      run_chunk(self, 0);
      if (errors[0]) std::rethrow_exception(errors[0]);
      return;
    }

    {
      std::lock_guard<std::mutex> lock(m);
      job_n = n;
      job_slots = slots;
      job_task = &task;
      pending = num_threads - 1;
      std::fill(errors.begin(), errors.end(), nullptr);
      ++generation;
    }
    cv_start.notify_all();

    run_chunk(self, 0);  // the calling thread is worker slot 0

    {
      std::unique_lock<std::mutex> lock(m);
      cv_done.wait(lock, [&] { return pending == 0; });
      job_task = nullptr;
    }
    // Rethrow the lowest-slot failure so the surfaced error is
    // deterministic.
    for (size_t slot = 0; slot < num_threads; ++slot)
      if (errors[slot]) std::rethrow_exception(errors[slot]);
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
      if (slot < job_slots) run_chunk(self, slot);
      {
        std::lock_guard<std::mutex> lock(m);
        if (--pending == 0) cv_done.notify_all();
      }
    }
  }
};

ThreadPoolExecutor::ThreadPoolExecutor(size_t threads)
    : threads_(effective_threads(threads)) {
  impl_ = std::make_unique<Impl>(threads_);
  impl_->workers.reserve(threads_ - 1);
  for (size_t slot = 1; slot < threads_; ++slot)
    impl_->workers.emplace_back(
        [this, slot] { impl_->worker_loop(this, slot); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->shutdown = true;
  }
  impl_->cv_start.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

Workspace& ThreadPoolExecutor::workspace(size_t slot) {
  HSSTA_REQUIRE(slot < threads_, "workspace slot out of range");
  return impl_->workspaces[slot];
}

void ThreadPoolExecutor::parallel_for(size_t n, const Task& task) {
  require_not_active(this);
  // Serializes top-level regions from different threads (and nests inside
  // a caller's Exclusive scope on the same thread).
  const Exclusive scope(*this);
  if (n == 0) return;
  impl_->run_job(this, n, std::min(threads_, n), task);
}

// --- helpers ----------------------------------------------------------------

size_t effective_threads(size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::shared_ptr<Executor> make_executor(size_t threads) {
  const size_t t = effective_threads(threads);
  if (t <= 1) return std::make_shared<SerialExecutor>();
  return std::make_shared<ThreadPoolExecutor>(t);
}

}  // namespace hssta::exec
