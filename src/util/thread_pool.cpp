#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace tracered::util {

ThreadPool::ThreadPool(std::size_t numThreads) {
  numThreads = std::max<std::size_t>(1, numThreads);
  workers_.reserve(numThreads);
  try {
    for (std::size_t i = 0; i < numThreads; ++i)
      workers_.emplace_back([this] { workerLoop(); });
  } catch (...) {
    // A later spawn failed (thread-resource exhaustion): shut down the
    // already-running workers before rethrowing, or their joinable
    // destructors would std::terminate.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // exceptions land in the task's future
  }
}

unsigned ThreadPool::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void runOnWorkers(ThreadPool& pool, std::size_t numWorkers,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(numWorkers);
  for (std::size_t w = 0; w < numWorkers; ++w)
    futures.push_back(pool.submit([&fn, w] { fn(w); }));
  // Wait on EVERY future before rethrowing: an early rethrow would unwind
  // while queued tasks still hold references to fn (and to caller state),
  // turning a clean worker exception into a use-after-free.
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

}  // namespace tracered::util
