#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gpu_mcts::util {
namespace {

using namespace std::chrono_literals;

TEST(ThreadPool, RunsSubmittedTasks) {
  // One pool serves job after job, whether its threads are still polling
  // or already parked.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int job = 0; job < 16; ++job) {
    pool.parallel_for(4, [&counter](std::size_t) { ++counter; });
    if (job == 8) std::this_thread::sleep_for(2 * ThreadPool::kIdlePollWindow);
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   3,
                   [](std::size_t i) {
                     if (i == 1) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, AtLeastOneWorker) {
  // No spawned thread: the caller is the one participant and runs every
  // index itself.
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<int> counter{0};
  pool.parallel_for(5, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 5);
}

TEST(ThreadPool, ManyTasksDrainCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    pool.parallel_for(500, [&counter](std::size_t) { ++counter; });
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, IndexZeroRunsOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int job = 0; job < 20; ++job) {
    std::atomic<bool> on_caller{false};
    pool.parallel_for(8, [&](std::size_t i) {
      if (i == 0) on_caller = std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(on_caller.load()) << "job " << job;
  }
}

/// Threads alive in this process (Linux: one /proc/self/task entry each).
std::ptrdiff_t live_threads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(ThreadPool, SpawnsOneThreadFewerThanParticipants) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads";
  }
  const std::ptrdiff_t before = live_threads();
  {
    ThreadPool pool(1);
    EXPECT_EQ(pool.worker_count(), 1u);
    EXPECT_EQ(live_threads() - before, 0);
  }
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  EXPECT_EQ(live_threads() - before, 3);
  pool.parallel_for(4, [](std::size_t) {});
  EXPECT_EQ(live_threads() - before, 3);
}

TEST(ThreadPool, CallerExceptionArrivesAfterEveryOtherIndex) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(12,
                                 [&ran](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("caller");
                                   }
                                   std::this_thread::sleep_for(1ms);
                                   ++ran;
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, WorkerExceptionArrivesAfterEveryOtherIndex) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(
          16,
          [&](std::size_t i) {
            if (i == 0) {
              // Hold the caller until a spawned thread has thrown, so the
              // exception comes from a worker's index.
              while (!thrown.load()) std::this_thread::yield();
            } else if (std::this_thread::get_id() != caller &&
                       !thrown.exchange(true)) {
              throw std::runtime_error("worker");
            } else {
              std::this_thread::sleep_for(1ms);
            }
            ++ran;
          }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 15);
}

TEST(ThreadPool, ConcurrentCallersEachRunEveryIndexOnce) {
  // Two stream workers launching on one device's pool at the same time.
  ThreadPool pool(4);
  constexpr std::size_t kIndices = 64;
  constexpr int kJobs = 50;
  std::vector<std::atomic<int>> hits_a(kIndices);
  std::vector<std::atomic<int>> hits_b(kIndices);
  const auto launch = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int job = 0; job < kJobs; ++job) {
      pool.parallel_for(kIndices, [&hits](std::size_t i) { ++hits[i]; });
    }
  };
  std::thread a(launch, std::ref(hits_a));
  std::thread b(launch, std::ref(hits_b));
  a.join();
  b.join();
  for (std::size_t i = 0; i < kIndices; ++i) {
    EXPECT_EQ(hits_a[i].load(), kJobs) << "index " << i;
    EXPECT_EQ(hits_b[i].load(), kJobs) << "index " << i;
  }
}

TEST(ThreadPool, DestructionEndsThePollAtOnce) {
  // Right after a job every spawned thread is polling; shutdown must end
  // that poll instead of waiting out kIdlePollWindow.
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int trial = 0; trial < 20; ++trial) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<int> arrived{0};
    pool->parallel_for(4, [&arrived](std::size_t) {
      ++arrived;
      while (arrived.load() < 4) std::this_thread::yield();
    });
    const auto start = std::chrono::steady_clock::now();
    pool.reset();
    fastest = std::min(fastest, std::chrono::steady_clock::now() - start);
  }
  EXPECT_LT(fastest, ThreadPool::kIdlePollWindow);
}

}  // namespace
}  // namespace gpu_mcts::util
