// Fixed-size thread pool with a parallel-for helper.
//
// The federated simulation trains many independent clients per iteration;
// parallel_for partitions the client index range across workers.  Each client
// draws from its own Rng stream, so the parallel schedule never changes
// results relative to serial execution.
//
// Sizing rule: parallel_for's caller drains indices beside the workers, so a
// pool whose owner runs the loop itself needs one worker fewer than the host
// has CPUs (make_caller_assisted_pool).  A pool of hardware_concurrency()
// workers would put one more runnable thread than CPUs on the host for the
// whole loop, and every client step would pay for the time slicing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cmfl::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (defaults to hardware concurrency, at
  /// least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs fn(i) for i in [0, n), blocking until all complete.  Exceptions
  /// thrown by fn propagate to the caller (first one wins).  Completion is
  /// tracked per call (not via the pool-global idle state), and the calling
  /// thread participates in the work, so concurrent unrelated submit()s do
  /// not extend the wait and nested parallel_for from a worker cannot
  /// deadlock.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Workers for a thread that runs parallel_for itself, by the rule above:
/// one fewer than the host's CPUs, 0 on a single-CPU host.
std::size_t caller_assisted_workers() noexcept;

/// A pool of caller_assisted_workers() workers (sched::WorkStealingPool
/// counts its caller the same way).  Null on a single-CPU host, where the
/// caller should run the loop serially.
std::unique_ptr<ThreadPool> make_caller_assisted_pool();

}  // namespace cmfl::util
