#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace ppg {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_all();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_all();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitAllRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_all(), std::runtime_error);
  // The pool stays usable after an error has been consumed.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_all();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitAllOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_all();  // nothing submitted — must not deadlock
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }  // ~ThreadPool joins after completing the queue
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, HardwareJobsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1u);
}

TEST(ThreadPool, ParallelForIndexCoversEveryIndexOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{7}, std::size_t{64}}) {
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> seen(n);
    parallel_for_index(jobs, n, [&seen](std::size_t i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(seen[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ThreadPool, ParallelForIndexEmptyRangeIsNoop) {
  bool called = false;
  parallel_for_index(4, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForIndexSerialPathPreservesOrder) {
  // jobs <= 1 must run inline, in index order, on the calling thread.
  std::vector<std::size_t> order;
  parallel_for_index(1, 5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForIndexPropagatesException) {
  EXPECT_THROW(parallel_for_index(3, 100,
                                  [](std::size_t i) {
                                    if (i == 42)
                                      throw std::runtime_error("cell boom");
                                  }),
               std::runtime_error);
}

TEST(ThreadPool, RunBatchCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{17}, std::size_t{500}}) {
    std::vector<std::atomic<int>> seen(n);
    pool.run_batch(n, [&seen](std::size_t i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(seen[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

TEST(ThreadPool, RunBatchIsReusableAcrossBatches) {
  // The engine runs one batch per simulated step on the same pool; each
  // batch must be a full barrier before the next begins.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run_batch(8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, RunBatchPropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_batch(100,
                              [](std::size_t i) {
                                if (i == 42)
                                  throw std::runtime_error("batch boom");
                              }),
               std::runtime_error);
  // The pool stays usable after the error has been consumed.
  std::atomic<int> count{0};
  pool.run_batch(4, [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 4);
}

}  // namespace
}  // namespace ppg
