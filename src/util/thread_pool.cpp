#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gpu_mcts::util {

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t n = std::max<std::size_t>(1, workers);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Workers only exit once the queue is drained; destroying a pool with
  // pending work would silently lose tasks, and a destructor cannot throw.
  ensures_terminate(queue_.empty(), "thread pool destroyed with queued tasks");
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  expects(static_cast<bool>(task), "null task");
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const std::lock_guard lock(mutex_);
    check(!stopping_, "submit after shutdown");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  wait_all(futures);
}

void ThreadPool::wait_all(std::vector<std::future<void>>& futures) {
  // Drain every future before rethrowing: abandoning the remaining futures
  // on the first exception would let still-queued tasks run after the
  // caller's captured state is destroyed.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace gpu_mcts::util
