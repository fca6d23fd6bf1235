// A small fixed-size thread pool.
//
// Used by the multi-threaded VirtualGpu execution backend (DESIGN.md §9),
// whose workers claim kernel blocks from the pool, and by the shared-tree
// searcher (`shared:W`), which runs its W searching threads on one.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace gpu_mcts::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

 private:
  void worker_loop();

  /// Waits for every future (so no task can outlive its captured state),
  /// then rethrows the first exception encountered, if any.
  static void wait_all(std::vector<std::future<void>>& futures);

  std::vector<std::thread> threads_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace gpu_mcts::util
