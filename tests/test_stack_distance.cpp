#include <gtest/gtest.h>

#include <vector>

#include "paging/cache_sim.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace_stats.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(StackDistance, FirstAccessesAreInfinite) {
  const auto d = stack_distances(test::make_trace({1, 2, 3}));
  EXPECT_EQ(d[0], kInfiniteDistance);
  EXPECT_EQ(d[1], kInfiniteDistance);
  EXPECT_EQ(d[2], kInfiniteDistance);
}

TEST(StackDistance, ImmediateReuseIsZero) {
  const auto d = stack_distances(test::make_trace({1, 1}));
  EXPECT_EQ(d[1], 0u);
}

TEST(StackDistance, CountsDistinctInterveningPages) {
  // 1 2 3 2 1 : the final 1 has seen {2,3} since its last access.
  const auto d = stack_distances(test::make_trace({1, 2, 3, 2, 1}));
  EXPECT_EQ(d[3], 1u);  // one distinct page (3) between the 2s
  EXPECT_EQ(d[4], 2u);  // {2,3}
}

TEST(StackDistance, RepeatedInterveningPageCountsOnce) {
  // 1 2 2 2 1 : distance of final 1 is 1, not 3.
  const auto d = stack_distances(test::make_trace({1, 2, 2, 2, 1}));
  EXPECT_EQ(d[4], 1u);
}

TEST(StackDistance, EmptyTrace) {
  EXPECT_TRUE(stack_distances(Trace{}).empty());
  EXPECT_TRUE(previous_accesses(Trace{}).empty());
}

class StackDistanceMatchesNaive
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StackDistanceMatchesNaive, OnRandomTraces) {
  Rng rng(GetParam());
  const Trace t = gen::uniform_random(20, 2000, rng);
  EXPECT_EQ(stack_distances(t), stack_distances_naive(t));
}

TEST_P(StackDistanceMatchesNaive, OnZipfTraces) {
  Rng rng(GetParam() + 100);
  const Trace t = gen::zipf(50, 2000, 1.0, rng);
  EXPECT_EQ(stack_distances(t), stack_distances_naive(t));
}

/// Position of the last earlier access to each request's page, by a plain
/// backwards scan (kNoPrevious when there is none).
std::vector<std::size_t> previous_naive(const Trace& t) {
  std::vector<std::size_t> out(t.size(), kNoPrevious);
  for (std::size_t i = 0; i < t.size(); ++i)
    for (std::size_t j = i; j-- > 0;)
      if (t[j] == t[i]) {
        out[i] = j;
        break;
      }
  return out;
}

TEST_P(StackDistanceMatchesNaive, PreviousAccessesOnRandomZipfSawtooth) {
  Rng rng(GetParam() + 200);
  for (const Trace& t : {gen::uniform_random(20, 1500, rng),
                         gen::zipf(80, 1500, 1.0, rng),
                         gen::sawtooth(3, 40, 50, 10, rng),
                         gen::single_use(300)}) {
    EXPECT_EQ(previous_accesses(t), previous_naive(t));
    EXPECT_EQ(stack_distances(t), stack_distances_naive(t));
    EXPECT_EQ(stack_distances(previous_naive(t)), stack_distances_naive(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackDistanceMatchesNaive,
                         ::testing::Values(1, 2, 3, 4, 5));

// The defining property: LRU(c) hits exactly the requests with stack
// distance < c. Cross-check the distances, and the fault curve the trace
// stats fold from their histogram, against the actual LRU simulator for a
// sweep of power-of-two capacities.
class ProfilePredictsLruFaults : public ::testing::TestWithParam<Height> {};

TEST_P(ProfilePredictsLruFaults, MatchesCacheSim) {
  const Height capacity = GetParam();
  Rng rng(99);
  const Trace t = gen::zipf(64, 5000, 0.9, rng);
  std::uint64_t faults = 0;
  for (const std::uint64_t d : stack_distances(t))
    faults += (d == kInfiniteDistance || d >= capacity) ? 1 : 0;
  const CacheSimResult sim =
      simulate_policy(PolicyKind::kLru, t, capacity, /*miss_cost=*/2);
  EXPECT_EQ(faults, sim.misses);
  const TraceStats stats = compute_trace_stats(t, /*max_capacity_log2=*/8);
  std::size_t lg = 0;
  while ((Height{1} << lg) < capacity) ++lg;
  ASSERT_LT(lg, stats.lru_fault_curve.size());
  EXPECT_EQ(stats.lru_fault_curve[lg], sim.misses);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ProfilePredictsLruFaults,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

TEST(StackDistance, CyclicTraceDistances) {
  // Cycling m pages gives every warm request distance m-1.
  const Trace t = gen::cyclic(8, 64);
  const std::vector<std::uint64_t> d = stack_distances(t);
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(d[i], i < 8 ? kInfiniteDistance : 7u) << "request " << i;
  const TraceStats stats = compute_trace_stats(t, /*max_capacity_log2=*/3);
  EXPECT_EQ(stats.lru_fault_curve[2], 64u);  // LRU thrashes below the set
  EXPECT_EQ(stats.lru_fault_curve[3], 8u);   // the whole cycle fits
}

}  // namespace
}  // namespace ppg
