#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(Generators, CyclicWrapsAround) {
  const Trace t = gen::cyclic(3, 7);
  const std::vector<PageId> expect{0, 1, 2, 0, 1, 2, 0};
  EXPECT_EQ(t.requests(), expect);
}

TEST(Generators, CyclicSinglePage) {
  const Trace t = gen::cyclic(1, 4);
  EXPECT_EQ(t.requests(), (std::vector<PageId>{0, 0, 0, 0}));
}

TEST(Generators, PollutedCycleInterval) {
  // Every 3rd request is a polluter.
  const Trace t = gen::polluted_cycle(4, 9, 3, 0, 1000);
  for (std::size_t i = 1; i <= t.size(); ++i) {
    if (i % 3 == 0)
      EXPECT_GE(t[i - 1], 1000u) << "position " << i;
    else
      EXPECT_LT(t[i - 1], 4u) << "position " << i;
  }
}

TEST(Generators, PollutersNeverRepeat) {
  const Trace t = gen::polluted_cycle(4, 300, 2, 0, 1000);
  std::unordered_set<PageId> polluters;
  for (PageId p : t) {
    if (p >= 1000) {
      EXPECT_TRUE(polluters.insert(p).second);
    }
  }
  EXPECT_EQ(polluters.size(), 150u);
}

TEST(Generators, PollutedCycleZeroIntervalIsPureCycle) {
  const Trace t = gen::polluted_cycle(3, 6, 0);
  EXPECT_EQ(t.requests(), (std::vector<PageId>{0, 1, 2, 0, 1, 2}));
}

TEST(Generators, PollutedCycleRepeaterSequenceUnbroken) {
  // The cycle position must NOT advance on polluter requests: repeaters
  // appear in strict cyclic order when polluters are filtered out.
  const Trace t = gen::polluted_cycle(5, 50, 4, 0, 1000);
  std::uint64_t expected = 0;
  for (PageId p : t) {
    if (p >= 1000) continue;
    EXPECT_EQ(p, expected);
    expected = (expected + 1) % 5;
  }
}

TEST(Generators, SingleUseAllDistinct) {
  const Trace t = gen::single_use(100, 7);
  EXPECT_EQ(t.distinct_pages(), 100u);
  EXPECT_EQ(t[0], 7u);
  EXPECT_EQ(t[99], 106u);
}

TEST(Generators, UniformRandomStaysInRange) {
  Rng rng(1);
  const Trace t = gen::uniform_random(10, 1000, rng);
  for (PageId p : t) EXPECT_LT(p, 10u);
  EXPECT_GT(t.distinct_pages(), 5u);
}

TEST(Generators, ZipfIsSkewedTowardLowRanks) {
  Rng rng(2);
  const Trace t = gen::zipf(100, 20000, 1.2, rng);
  std::unordered_map<PageId, int> counts;
  for (PageId p : t) ++counts[p];
  // Rank 0 should be requested far more often than rank 50.
  EXPECT_GT(counts[0], 10 * (counts[50] + 1));
}

TEST(Generators, ZipfThetaZeroIsRoughlyUniform) {
  Rng rng(3);
  const Trace t = gen::zipf(4, 40000, 0.0, rng);
  std::unordered_map<PageId, int> counts;
  for (PageId p : t) ++counts[p];
  for (PageId p = 0; p < 4; ++p)
    EXPECT_NEAR(counts[p], 10000, 600) << "page " << p;
}

// The guide-table draw must return std::lower_bound's rank for every u in
// [0, 1), not just on average. The probes are the adversarial ones: every
// CDF value and its floating-point neighbours, every guide bucket edge
// b/B (B = bit_ceil(4n) buckets) and its neighbours, every b/n and its
// neighbours, and random 53-bit draws, over CDFs from one page to 2*10^4
// and from uniform to theta = 60 (whose tail rounds to runs of equal CDF
// values).
TEST(Generators, ZipfGuidedDrawMatchesLowerBound) {
  Rng rng(97);
  std::uint64_t probes = 0;
  std::uint64_t mismatches = 0;
  for (const std::uint64_t n : {1u, 2u, 3u, 5u, 17u, 100u, 1000u, 20000u}) {
    for (const double theta : {0.0, 0.5, 1.0, 1.3, 4.0, 60.0}) {
      const auto cdf = gen::make_zipf_cdf(n, theta);
      const gen::ZipfSampler sampler(cdf);
      const auto check = [&](double u) {
        if (!(u >= 0.0 && u < 1.0)) return;
        const auto want = static_cast<std::uint64_t>(
            std::lower_bound(cdf->begin(), cdf->end(), u) - cdf->begin());
        const std::uint64_t got = sampler.draw(u);
        if (got != want && mismatches++ == 0) {
          ADD_FAILURE() << "first mismatch: n=" << n << " theta=" << theta
                        << " u=" << u << " draw=" << got
                        << " lower_bound=" << want;
        }
        ++probes;
      };
      const auto check_around = [&](double u) {
        check(std::nextafter(u, 0.0));
        check(u);
        check(std::nextafter(u, 1.0));
      };
      for (const double value : *cdf) check_around(value);
      for (std::uint64_t b = 0; b <= n; ++b)
        check_around(static_cast<double>(b) / static_cast<double>(n));
      const std::uint64_t buckets = std::bit_ceil(4 * n);
      for (std::uint64_t b = 0; b <= buckets; ++b)
        check_around(static_cast<double>(b) / static_cast<double>(buckets));
      for (int i = 0; i < 2000; ++i) check(rng.next_double());
      check(0.0);
      check(std::nextafter(1.0, 0.0));
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << probes << " probes";
  EXPECT_GT(probes, 2000000u);
}

TEST(Generators, PhasedWorkingSetUsesFreshSets) {
  Rng rng(4);
  const Trace t = gen::phased_working_set(
      {{4, 100, false}, {8, 100, false}}, rng);
  EXPECT_EQ(t.size(), 200u);
  // Phase 1 touches pages [0,4); phase 2 touches [4,12).
  for (std::size_t i = 0; i < 100; ++i) EXPECT_LT(t[i], 4u);
  for (std::size_t i = 100; i < 200; ++i) {
    EXPECT_GE(t[i], 4u);
    EXPECT_LT(t[i], 12u);
  }
}

TEST(Generators, SawtoothAlternatesSetSizes) {
  Rng rng(5);
  const Trace t = gen::sawtooth(2, 16, 50, 4, rng);
  EXPECT_EQ(t.size(), 200u);
  EXPECT_GE(t.distinct_pages(), 2u + 16u);
}

TEST(Generators, RebaseMakesDisjointProcs) {
  const Trace base = gen::cyclic(5, 20);
  MultiTrace mt;
  mt.add(gen::rebase_to_proc(base, 0));
  mt.add(gen::rebase_to_proc(base, 1));
  EXPECT_TRUE(mt.validate_disjoint());
  // Structure preserved: same hit/miss pattern relative to first trace.
  EXPECT_EQ(mt.trace(0).distinct_pages(), base.distinct_pages());
  EXPECT_EQ(mt.trace(1).size(), base.size());
}

TEST(Generators, RebasePreservesEqualityStructure) {
  const Trace base = test::make_trace({9, 7, 9, 7, 3});
  const Trace rebased = gen::rebase_to_proc(base, 2);
  for (std::size_t i = 0; i < base.size(); ++i)
    for (std::size_t j = 0; j < base.size(); ++j)
      EXPECT_EQ(base[i] == base[j], rebased[i] == rebased[j]);
}

}  // namespace
}  // namespace ppg
