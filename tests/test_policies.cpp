#include <gtest/gtest.h>

#include <tuple>

#include "paging/cache_sim.hpp"
#include "paging/eviction_policy.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(LruPolicyTest, ClassicSequence) {
  // Capacity 3, trace 1 2 3 4 1 2 5 1 2 3 4 5 — the textbook example:
  // LRU faults 10 times.
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  const CacheSimResult r = simulate_policy(PolicyKind::kLru, t, 3, 2);
  EXPECT_EQ(r.misses, 10u);
  EXPECT_EQ(r.hits, 2u);
}

TEST(FifoPolicyTest, BeladyAnomalyWitness) {
  // The classic Belady-anomaly trace: FIFO with capacity 3 faults 9 times,
  // with capacity 4 faults 10 times.
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  EXPECT_EQ(simulate_policy(PolicyKind::kFifo, t, 3, 2).misses, 9u);
  EXPECT_EQ(simulate_policy(PolicyKind::kFifo, t, 4, 2).misses, 10u);
}

TEST(BeladyPolicyTest, OptimalOnTextbookTrace) {
  // OPT on the same trace with capacity 3 faults 7 times.
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  EXPECT_EQ(simulate_policy(PolicyKind::kBelady, t, 3, 2).misses, 7u);
}

TEST(BeladyPolicyTest, NoFaultsWhenEverythingFits) {
  const Trace t = gen::cyclic(4, 40);
  const CacheSimResult r = simulate_policy(PolicyKind::kBelady, t, 4, 2);
  EXPECT_EQ(r.misses, 4u);  // cold only
}

TEST(BeladyPolicyTest, HostilePageIsCorruptTrace) {
  // The next-use table is inverted from the previous-access table, which
  // rejects the reserved sentinel before any request is served.
  Trace t = gen::cyclic(4, 40);
  t.mutable_requests()[5] = kInvalidPage;
  test::expect_corrupt_trace_at(
      [&] { simulate_policy(PolicyKind::kBelady, t, 4, 2); }, 5);
}

TEST(ClockPolicyTest, ApproximatesLruOnSimpleTrace) {
  // With no re-references, CLOCK behaves exactly like FIFO.
  const Trace t = test::make_trace({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(simulate_policy(PolicyKind::kClock, t, 3, 2).misses, 6u);
}

TEST(ClockPolicyTest, SecondChanceSavesReferencedPage) {
  // Capacity 2: access 1, 2, touch 1, then insert 3. CLOCK should give 1 a
  // second chance and evict 2.
  const Trace t = test::make_trace({1, 2, 1, 3, 1});
  const CacheSimResult r = simulate_policy(PolicyKind::kClock, t, 2, 2);
  // 1,2 miss; 1 hits (sets ref); 3 misses evicting 2; final 1 hits.
  EXPECT_EQ(r.hits, 2u);
  EXPECT_EQ(r.misses, 3u);
}

TEST(LfuPolicyTest, EvictsLeastFrequent) {
  // 1 used three times, 2 once; inserting 3 must evict 2.
  const Trace t = test::make_trace({1, 1, 1, 2, 3, 1});
  const CacheSimResult r = simulate_policy(PolicyKind::kLfu, t, 2, 2);
  // misses: 1, 2, 3; hits: 1 (x2), final 1.
  EXPECT_EQ(r.misses, 3u);
  EXPECT_EQ(r.hits, 3u);
}

TEST(RandomPolicyTest, IsDeterministicGivenSeed) {
  Rng rng(5);
  const Trace t = gen::uniform_random(30, 3000, rng);
  const CacheSimResult a = simulate_policy(PolicyKind::kRandom, t, 8, 2, 77);
  const CacheSimResult b = simulate_policy(PolicyKind::kRandom, t, 8, 2, 77);
  EXPECT_EQ(a.misses, b.misses);
}

TEST(PolicyFactory, NamesMatchKinds) {
  for (const PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kClock,
        PolicyKind::kRandom, PolicyKind::kLfu, PolicyKind::kBelady}) {
    const auto policy = make_policy(kind, 4);
    EXPECT_STREQ(policy->name(), policy_kind_name(kind));
  }
}

// Property: Belady never faults more than any online policy, on any trace.
using PolicyAndSeed = std::tuple<PolicyKind, std::uint64_t>;
class BeladyDominance : public ::testing::TestWithParam<PolicyAndSeed> {};

TEST_P(BeladyDominance, BeladyIsOptimal) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  const Trace t = gen::zipf(40, 3000, 0.8, rng);
  for (const Height capacity : {2u, 5u, 16u}) {
    const auto belady =
        simulate_policy(PolicyKind::kBelady, t, capacity, 2);
    const auto other = simulate_policy(kind, t, capacity, 2, seed);
    EXPECT_LE(belady.misses, other.misses)
        << policy_kind_name(kind) << " capacity " << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOnlinePolicies, BeladyDominance,
    ::testing::Combine(::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                         PolicyKind::kClock,
                                         PolicyKind::kRandom,
                                         PolicyKind::kLfu),
                       ::testing::Values(1, 2, 3)));

// Property: LRU has the stack (inclusion) property — more capacity never
// causes more faults.
class LruInclusion : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruInclusion, FaultsMonotoneInCapacity) {
  Rng rng(GetParam());
  const Trace t = gen::uniform_random(64, 4000, rng);
  std::uint64_t prev = UINT64_MAX;
  for (Height c = 1; c <= 128; c *= 2) {
    const auto r = simulate_policy(PolicyKind::kLru, t, c, 2);
    EXPECT_LE(r.misses, prev) << "capacity " << c;
    prev = r.misses;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruInclusion, ::testing::Values(11, 22, 33));

// Property: every policy serves every request exactly once.
class PolicyConservation : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyConservation, HitsPlusMissesEqualsRequests) {
  Rng rng(4);
  const Trace t = gen::sawtooth(4, 32, 200, 6, rng);
  const auto r = simulate_policy(GetParam(), t, 10, 3);
  EXPECT_EQ(r.hits + r.misses, t.size());
  EXPECT_EQ(r.time, r.hits + 3 * r.misses);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyConservation,
                         ::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                           PolicyKind::kClock,
                                           PolicyKind::kRandom,
                                           PolicyKind::kLfu,
                                           PolicyKind::kBelady));

}  // namespace
}  // namespace ppg
