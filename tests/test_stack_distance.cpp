#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "paging/cache_sim.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace_source.hpp"
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

/// Stack distances by the streaming OnlineStackDistance, a separate
/// implementation (compacting Fenwick over live pages, node hash map), so
/// it can check the batch passes on traces too long for the naive stack.
std::vector<std::uint64_t> online_distances(const Trace& t) {
  OnlineStackDistance online;
  std::vector<std::uint64_t> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = online.access(t[i]);
  return out;
}

/// `distances` in the 32-bit form packed_stack_distances() emits.
std::vector<std::uint32_t> packed(const std::vector<std::uint64_t>& distances) {
  std::vector<std::uint32_t> out;
  out.reserve(distances.size());
  for (const std::uint64_t d : distances)
    out.push_back(d == kInfiniteDistance ? kColdDistance
                                         : static_cast<std::uint32_t>(d));
  return out;
}

/// Requires every batch pass over `t` to agree with `expected`: both
/// stack_distances overloads and packed_stack_distances.
void expect_batch_distances(const Trace& t,
                            const std::vector<std::uint64_t>& expected) {
  EXPECT_EQ(stack_distances(t), expected);
  EXPECT_EQ(stack_distances(previous_accesses(t)), expected);
  EXPECT_EQ(packed_stack_distances(t), packed(expected));
}

// Windows that cross 64-position words, 256-position groups and 4096-
// position blocks: every warm request of a cycle over more than 4096
// pages, uniform traffic over 6000 pages, and a hot set mixed into a long
// cycle, so short and long windows interleave and a long window's marker
// leaves a committed group while short ones stay in the recent ones.
TEST(StackDistanceLongWindows, CycleOverMoreThan4096Pages) {
  const Trace t = gen::cyclic(5000, 30000);
  const std::vector<std::uint64_t> expected = online_distances(t);
  for (std::size_t i = 5000; i < t.size(); ++i)
    ASSERT_EQ(expected[i], 4999u) << "request " << i;
  expect_batch_distances(t, expected);
}

TEST(StackDistanceLongWindows, LongCycleMatchesOnline) {
  const Trace t = gen::cyclic(30000, 200000);
  expect_batch_distances(t, online_distances(t));
}

TEST(StackDistanceLongWindows, UniformOver6000PagesMatchesNaive) {
  Rng rng(6000);
  const Trace t = gen::uniform_random(6000, 10000, rng);
  expect_batch_distances(t, stack_distances_naive(t));
}

TEST(StackDistanceLongWindows, UniformOver6000PagesMatchesOnline) {
  Rng rng(6001);
  const Trace t = gen::uniform_random(6000, 40000, rng);
  expect_batch_distances(t, online_distances(t));
}

TEST(StackDistanceLongWindows, ZipfOverManyPagesMatchesOnline) {
  Rng rng(100000);
  const Trace t = gen::zipf(100000, 300000, 1.0, rng);
  expect_batch_distances(t, online_distances(t));
}

TEST(StackDistanceLongWindows, ShortAndLongWindowsMixed) {
  // Every other request comes from a 16-page hot set (windows of a few
  // dozen positions); the rest cycle over 3000 cold pages (windows of
  // 6000), with a random burst of one hot page now and then.
  Rng rng(7);
  Trace t;
  std::uint64_t cold = 0;
  for (std::size_t i = 0; i < 60000; ++i) {
    if (i % 2 == 0) {
      t.push_back(1000000 + rng.next_below(16));
    } else if (rng.next_below(100) == 0) {
      for (int r = 0; r < 70; ++r) t.push_back(1000000);
    } else {
      t.push_back(cold++ % 3000);
    }
  }
  expect_batch_distances(t, online_distances(t));
  const Trace head(std::vector<PageId>(t.begin(), t.begin() + 12000));
  expect_batch_distances(head, stack_distances_naive(head));
}

TEST(PreviousAccesses, InvalidPageIsCorruptTrace) {
  // kInvalidPage is the table's empty key, and a request for it is a
  // corrupt trace: every pass that reads a Trace throws at the first one.
  const Trace t(std::vector<PageId>{0, kInvalidPage - 1, 1,
                                    kInvalidPage - 1, 0, kInvalidPage, 0,
                                    kInvalidPage - 1, 1, kInvalidPage});
  test::expect_corrupt_trace_at([&] { previous_accesses(t); }, 5);
  test::expect_corrupt_trace_at([&] { stack_distances(t); }, 5);
  test::expect_corrupt_trace_at([&] { packed_stack_distances(t); }, 5);
  test::expect_corrupt_trace_at(
      [&] { with_stack_distances(VectorTraceSource::view(t)); }, 5);

  // The page just below the sentinel is an ordinary page, chained to its
  // own previous access.
  const Trace prefix(std::vector<PageId>(t.begin(), t.begin() + 5));
  EXPECT_EQ(previous_accesses(prefix), previous_naive(prefix));
  expect_batch_distances(prefix, stack_distances_naive(prefix));
}

TEST(PreviousAccesses, PageZero) {
  const Trace t = test::make_trace({0, 0, 3, 0, 3, 7, 0});
  EXPECT_EQ(previous_accesses(t), previous_naive(t));
  EXPECT_EQ(stack_distances(t), stack_distances_naive(t));
}

TEST(PreviousAccesses, StructuredIdsSharingTopBits) {
  // make_page(proc, local) ids of 64 processors, every 4th request a
  // polluter local counting up from 2^32: the ids differ only in a few
  // high bits and in their low bits.
  Trace t;
  for (std::size_t i = 0; i < 20000; ++i) {
    const auto proc = static_cast<ProcId>(i % 64);
    const std::uint64_t n = i / 64;
    t.push_back(make_page(proc, n % 4 == 3 ? (std::uint64_t{1} << 32) + n
                                           : n % 37));
  }
  EXPECT_EQ(previous_accesses(t), previous_naive(t));
  expect_batch_distances(t, stack_distances_naive(t));
}

TEST(PreviousAccesses, LongTraceOverFewPagesGrowsTheTable) {
  // 10^5 requests over 300 pages: the table doubles from its initial
  // size several times, and must grow with the pages, not the requests.
  Rng rng(300);
  const Trace t = gen::uniform_random(300, 100000, rng);
  EXPECT_EQ(previous_accesses(t), previous_naive(t));
  expect_batch_distances(t, online_distances(t));
}

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
