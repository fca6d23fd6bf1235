#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "util/check.hpp"

namespace gpu_mcts::util {

/// One parallel_for call, on its caller's stack. A spawned thread touches it
/// only between claiming an index and counting that index done, and every
/// index is claimed before the caller can see them all done.
struct ThreadPool::Job {
  Call call;
  void* fn;
  std::size_t n;
  std::size_t next = 1;  ///< guarded by mutex_; index 0 is the caller's
  Job* later = nullptr;  ///< guarded by mutex_: the next queued job
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  /// Set once, by the index that sets `failed`.
  std::exception_ptr error = nullptr;
};

namespace {

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until `ready()` for ThreadPool::kIdlePollWindow, then parks on
/// `signal`, which every change that can make `ready()` true bumps.
template <class Ready>
void poll_then_park(const std::atomic<std::uint32_t>& signal, Ready ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kIdlePollWindow;
  for (unsigned spins = 1; !ready(); ++spins) {
    cpu_relax();
    if (spins % 64 != 0 || std::chrono::steady_clock::now() < deadline) {
      continue;
    }
    for (;;) {
      const std::uint32_t seen = signal.load(std::memory_order_acquire);
      if (ready()) return;
      signal.wait(seen, std::memory_order_acquire);
    }
  }
}

void run_index(auto& job, std::size_t index) {
  try {
    job.call(job.fn, index);
  } catch (...) {
    if (!job.failed.exchange(true, std::memory_order_relaxed)) {
      job.error = std::current_exception();
    }
  }
  // The last access to the job: once every index is counted, its caller
  // may return and end the job's lifetime.
  job.done.fetch_add(1, std::memory_order_release);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t participants) {
  const std::size_t spawned = std::max<std::size_t>(1, participants) - 1;
  threads_.reserve(spawned);
  try {
    for (std::size_t i = 0; i < spawned; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  stop();
  // parallel_for returns only after its job left the queue; a job still
  // here belongs to a caller racing the destructor, and a destructor
  // cannot throw.
  ensures_terminate(queue_ == nullptr,
                    "thread pool destroyed during a parallel_for");
}

void ThreadPool::stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run(std::size_t n, Call call, void* fn) {
  if (n == 0) return;
  Job job{call, fn, n};
  if (n == 1 || threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) run_index(job, i);
  } else {
    {
      const std::lock_guard lock(mutex_);
      Job** tail = &queue_;
      while (*tail != nullptr) tail = &(*tail)->later;
      *tail = &job;
    }
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    run_index(job, 0);
    Job* own = &job;
    for (std::size_t i = 0; claim(own, i);) run_index(job, i);
    poll_then_park(finished_, [&job] {
      return job.done.load(std::memory_order_acquire) == job.n;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

bool ThreadPool::claim(Job*& job, std::size_t& index) {
  const std::lock_guard lock(mutex_);
  Job* const target = job != nullptr ? job : queue_;
  if (target == nullptr || target->next == target->n) return false;
  index = target->next++;
  if (target->next == target->n) {
    // Fully handed out: unlink it so no thread reaches it after it is done.
    Job** link = &queue_;
    while (*link != target) link = &(*link)->later;
    *link = target->later;
  }
  job = target;
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    // Read the epoch before looking for work, so a job queued after the
    // look changes it and ends the poll below.
    const std::uint32_t seen = epoch_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_acquire)) return;
    Job* job = nullptr;
    std::size_t index = 0;
    if (claim(job, index)) {
      run_index(*job, index);
      finished_.fetch_add(1, std::memory_order_release);
      finished_.notify_all();
      continue;
    }
    poll_then_park(epoch_, [this, seen] {
      return epoch_.load(std::memory_order_acquire) != seen;
    });
  }
}

}  // namespace gpu_mcts::util
