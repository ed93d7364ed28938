// sched::WorkStealingPool: exactly-once execution at every (n, threads)
// shape, forced steals under a blocked straggler, error propagation through
// the barrier, and the non-reentrancy guard.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "sched/work_pool.h"

namespace cmfl::sched {
namespace {

TEST(WorkStealingPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    WorkStealingPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (const std::size_t n : {0u, 1u, 3u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.run(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << " n " << n
                                     << " index " << i;
      }
    }
  }
}

TEST(WorkStealingPool, WorkersWakingAfterTheirRunEndedStayIdle) {
  // Tiny runs often finish on the caller before the workers wake.  A late
  // worker must neither run the finished job nor take a slice of the next
  // run without that run's job.
  WorkStealingPool pool(8);
  for (std::size_t r = 0; r < 4000; ++r) {
    const std::size_t n = 1 + r % 9;
    std::atomic<std::size_t> count{0};
    pool.run(n, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), n) << "run " << r;
  }
}

TEST(WorkStealingPool, PoolIsReusableAcrossRuns) {
  WorkStealingPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run(50, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 50u * 49u / 2u);
  }
}

TEST(WorkStealingPool, StragglerTailIsStolen) {
  // Two workers, 100 jobs: the caller owns [0, 50), the worker [50, 100).
  // Job 0 blocks until every *other* job has completed — the caller can
  // never run [1, 50) itself, so the worker must steal that tail for run()
  // to return at all.  Termination of this test is therefore itself the
  // proof of stealing; the counter must agree.
  WorkStealingPool pool(2);
  const std::uint64_t steals_before = pool.steals();
  std::mutex mu;
  std::condition_variable cv;
  std::size_t others_done = 0;
  pool.run(100, [&](std::size_t i) {
    if (i == 0) {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return others_done == 99; });
      return;
    }
    std::lock_guard lock(mu);
    ++others_done;
    cv.notify_all();
  });
  EXPECT_GE(pool.steals() - steals_before, 1u);
}

TEST(WorkStealingPool, FirstErrorIsRethrownAfterAllJobsRan) {
  WorkStealingPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(
      pool.run(64,
               [&](std::size_t i) {
                 hits[i].fetch_add(1, std::memory_order_relaxed);
                 if (i % 13 == 5) throw std::runtime_error("job failed");
               }),
      std::runtime_error);
  // The barrier completes the whole batch before rethrowing.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // The pool recovers: the next run is clean.
  std::atomic<std::size_t> count{0};
  pool.run(10, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10u);
}

TEST(WorkStealingPool, RunIsNotReentrant) {
  WorkStealingPool pool(2);
  EXPECT_THROW(pool.run(1,
                        [&](std::size_t) {
                          pool.run(1, [](std::size_t) {});
                        }),
               std::logic_error);
}

}  // namespace
}  // namespace cmfl::sched
