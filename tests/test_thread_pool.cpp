#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace ppg {
namespace {

TEST(ParallelForIndex, HardwareJobsIsPositive) {
  EXPECT_GE(hardware_jobs(), 1u);
}

TEST(ParallelForIndex, CoversEveryIndexOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{7},
                                 std::size_t{64}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{17},
                                std::size_t{500}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> seen(n);
      parallel_for_index(jobs, n, [&seen](std::size_t i) {
        seen[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(seen[i].load(), 1)
            << "jobs=" << jobs << " n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelForIndex, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for_index(4, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForIndex, SerialPathPreservesOrder) {
  // jobs <= 1 must run inline, in index order, on the calling thread.
  std::vector<std::size_t> order;
  parallel_for_index(1, 5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForIndex, PropagatesException) {
  EXPECT_THROW(parallel_for_index(3, 100,
                                  [](std::size_t i) {
                                    if (i == 42)
                                      throw std::runtime_error("cell boom");
                                  }),
               std::runtime_error);
}

}  // namespace
}  // namespace ppg
