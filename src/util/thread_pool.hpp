// A small fixed-size pool of hot threads for fork-join loops.
//
// Used by the multi-threaded VirtualGpu execution backend (DESIGN.md §9),
// whose participants claim kernel blocks, and by the shared-tree searcher
// (`shared:W`), which runs its W searching threads on one.
//
// `ThreadPool(n)` means n participants: the thread that calls parallel_for
// runs index 0 itself, then claims further indices alongside the n - 1
// spawned threads, and waits for the indices they took by polling a
// completion count. A job lives on its caller's stack, so a parallel_for
// allocates nothing. A spawned thread that runs out of work polls for the
// next job for kIdlePollWindow before it parks on std::atomic::wait, so a
// launch that follows the last one within the window finds its threads
// already running instead of waking them from the OS; shutdown ends the
// poll at once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gpu_mcts::util {

class ThreadPool {
 public:
  /// How long an idle spawned thread (and a caller waiting for its indices)
  /// polls before it parks. On a 4-core host the gaps between one search
  /// round's kernel launches measured 100-250 us, and waking four parked
  /// threads put the last one's start 528 us into a 672 us launch.
  static constexpr std::chrono::microseconds kIdlePollWindow{200};

  /// A pool of `participants` threads (at least 1): the caller of
  /// parallel_for plus `participants - 1` spawned threads.
  explicit ThreadPool(std::size_t participants);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, n) and returns once all have run. Index
  /// 0 runs on the calling thread. Every index runs even when some throw;
  /// the first exception is then rethrown here. Concurrent callers are
  /// served in arrival order, and each also runs its own unclaimed indices.
  template <class F>
  void parallel_for(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    run(n,
        [](void* f, std::size_t i) { (*static_cast<Fn*>(f))(i); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Participants: the spawned threads plus the calling thread.
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size() + 1;
  }

 private:
  struct Job;
  using Call = void (*)(void*, std::size_t);

  void run(std::size_t n, Call call, void* fn);
  /// Hands out the next index of `job`, or of the oldest queued job when
  /// `job` is null; false when there is none.
  bool claim(Job*& job, std::size_t& index);
  void worker_loop();
  /// Ends every spawned thread's loop and joins it.
  void stop() noexcept;

  std::mutex mutex_;
  Job* queue_ = nullptr;  ///< guarded by mutex_: jobs with unclaimed indices
  /// Bumped on every queued job and on shutdown; idle threads wait on it.
  std::atomic<std::uint32_t> epoch_{0};
  /// Bumped after every index a spawned thread finishes; callers whose
  /// indices are still running park on it after their own poll window.
  std::atomic<std::uint32_t> finished_{0};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> threads_;
};

}  // namespace gpu_mcts::util
