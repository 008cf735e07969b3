// Minimal fixed-size thread pool for rank-sharded work.
//
// Reduction is embarrassingly parallel across ranks (each rank has its own
// store and policy), so the pool only needs to run a handful of worker
// closures and propagate their exceptions; there is no work stealing or
// priority machinery. Construction spawns the workers; destruction drains
// the queue and joins them.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tracered::util {

class ThreadPool {
 public:
  /// Spawns `numThreads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t numThreads);

  /// Drains pending tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `task`; the future completes when it has run and rethrows
  /// anything the task threw.
  std::future<void> submit(std::function<void()> task);

  /// std::thread::hardware_concurrency(), clamped to at least 1 (the
  /// standard allows it to report 0).
  static unsigned hardwareThreads();

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs `fn(workerIndex)` on `numWorkers` pool workers and waits for all of
/// them, rethrowing the first exception. The worker index lets callers keep
/// per-worker state (e.g. one SimilarityPolicy instance per worker).
void runOnWorkers(ThreadPool& pool, std::size_t numWorkers,
                  const std::function<void(std::size_t)>& fn);

}  // namespace tracered::util
