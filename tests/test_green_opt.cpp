#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

#include "green/box_runner.hpp"
#include "green/green_algorithm.hpp"
#include "green/green_opt.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(GreenOpt, EmptyTraceIsFree) {
  const GreenOptResult r = green_opt(Trace{}, HeightLadder{2, 8}, 4);
  EXPECT_EQ(r.impact, 0u);
  EXPECT_TRUE(r.profile.empty());
}

TEST(GreenOpt, SingleRequestUsesMinHeight) {
  const GreenOptResult r =
      green_opt(test::make_trace({1}), HeightLadder{2, 8}, 4);
  // One miss at height 2: busy 4 ticks, impact 8 (final box clipped).
  EXPECT_EQ(r.impact, 8u);
  ASSERT_EQ(r.profile.size(), 1u);
  EXPECT_EQ(r.profile[0].height, 2u);
}

TEST(GreenOpt, ProfileConformsAndReplays) {
  Rng rng(1);
  const Trace t = gen::zipf(24, 800, 0.9, rng);
  const HeightLadder ladder{2, 32};
  const GreenOptResult r = green_opt(t, ladder, 6);
  EXPECT_TRUE(r.profile.conforms_to(ladder));
  // Replaying the reconstructed profile must finish the trace with exactly
  // the DP's impact.
  const ProfileRunResult replay = run_profile(t, r.profile, 6);
  EXPECT_EQ(replay.impact, r.impact);
}

TEST(GreenOpt, PrefixTableMatchesPrefixTrace) {
  // A prefix of a trace's previous-access table is the prefix's own table,
  // so the DP on it must give the prefix trace's exact answer.
  Rng rng(2);
  const Trace t = gen::uniform_random(16, 500, rng);
  const std::vector<std::size_t> previous = previous_accesses(t);
  const HeightLadder ladder{2, 16};
  for (const std::size_t m : {std::size_t{1}, std::size_t{77}, t.size()}) {
    const Trace prefix(std::vector<PageId>(
        t.requests().begin(),
        t.requests().begin() + static_cast<std::ptrdiff_t>(m)));
    const GreenOptResult from_table =
        green_opt(std::span(previous).first(m), ladder, 4);
    const GreenOptResult from_trace = green_opt(prefix, ladder, 4);
    EXPECT_EQ(from_table.impact, from_trace.impact);
    EXPECT_EQ(from_table.profile.boxes(), from_trace.profile.boxes());
  }
}

// The DP reads hits off the previous-access table (a canonical box never
// evicts); the brute force simulates every box's LRU. Each seed checks 18
// tiny traces (n <= 12, <= 6 pages) at s in {2, 3, 5} on a one-epoch and a
// two-epoch schedule.
class GreenOptVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GreenOptVsBruteForce, DpMatchesExhaustiveSearch) {
  for (std::uint64_t j = 0; j < 18; ++j) {
    Rng rng(GetParam() * 1000 + j);
    const auto n = static_cast<std::size_t>(rng.next_in(2, 12));
    const Trace t = j % 2 == 0 ? gen::zipf(6, n, 0.8, rng)
                               : gen::uniform_random(6, n, rng);
    const auto split = static_cast<std::size_t>(rng.next_in(1, n - 1));
    const std::vector<EpochSchedule> schedules = {
        HeightLadder{1, 4},
        EpochSchedule({{0, HeightLadder{1, 4}}, {split, HeightLadder{2, 4}}}),
    };
    for (const EpochSchedule& schedule : schedules) {
      for (const Time s : {Time{2}, Time{3}, Time{5}}) {
        SCOPED_TRACE("trace " + std::to_string(j) + " epochs " +
                     std::to_string(schedule.num_epochs()) + " s " +
                     std::to_string(s));
        // max_boxes = n suffices: every box serves at least one request.
        EXPECT_EQ(green_opt(t, schedule, s).impact,
                  green_opt_impact_bruteforce(
                      t, schedule, s, static_cast<std::uint32_t>(n)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreenOptVsBruteForce,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The defining property: no green pager can beat the DP.
class GreenOptIsLowerBound : public ::testing::TestWithParam<GreenKind> {};

TEST_P(GreenOptIsLowerBound, PagerImpactAtLeastOpt) {
  Rng rng(42);
  const HeightLadder ladder{2, 32};
  const std::vector<Trace> traces = {
      gen::cyclic(20, 600),
      gen::single_use(300),
      gen::zipf(40, 600, 1.0, rng),
      gen::sawtooth(3, 24, 100, 6, rng),
  };
  for (const Trace& t : traces) {
    const Impact opt = green_opt(t, ladder, 5).impact;
    auto pager = make_green_pager(GetParam(), ladder, Rng(7));
    const ProfileRunResult r = run_green_paging(t, *pager, ladder, 5);
    EXPECT_GE(r.impact, opt) << green_kind_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPagers, GreenOptIsLowerBound,
                         ::testing::Values(GreenKind::kRand, GreenKind::kDet,
                                           GreenKind::kFixedMin,
                                           GreenKind::kFixedMax));

TEST(GreenOpt, PrefersSmallBoxesForSingleUseStream) {
  // Single-use stream: the minimal height is optimal.
  const Trace t = gen::single_use(64);
  const HeightLadder ladder{2, 16};
  const GreenOptResult r = green_opt(t, ladder, 4);
  for (const Box& b : r.profile) EXPECT_EQ(b.height, 2u);
}

TEST(GreenOpt, PrefersBigBoxForSmallHotCycle) {
  // Cycle over 4 pages with s large: a height-8 canonical box fills in
  // 4*s ticks and then hits for the remaining 4*s ticks (~16 impact per
  // request), while the minimal height 2 thrashes at 2*s = 100 impact per
  // request. OPT must spend most impact in boxes of height >= 8.
  const Trace t = gen::cyclic(4, 400);
  const HeightLadder ladder{2, 16};
  const GreenOptResult r = green_opt(t, ladder, 50);
  Impact tall_impact = 0;
  for (const Box& b : r.profile)
    if (b.height >= 8) tall_impact += b.impact();
  EXPECT_GT(tall_impact, r.impact / 2);
  // And it clearly beats the always-minimal strategy.
  auto min_pager = make_fixed_green(ladder, 2);
  const ProfileRunResult min_run = run_green_paging(t, *min_pager, ladder, 50);
  EXPECT_LT(r.impact, min_run.impact / 2);
}

TEST(GreenOpt, MonotoneInTracePrefix) {
  // Greedy greenness (paper Definition 1): OPT impact of a prefix is at
  // most the OPT impact of the full sequence.
  Rng rng(5);
  const Trace full = gen::zipf(20, 400, 0.9, rng);
  Trace prefix(std::vector<PageId>(full.requests().begin(),
                                   full.requests().begin() + 200));
  const HeightLadder ladder{2, 16};
  EXPECT_LE(green_opt(prefix, ladder, 4).impact,
            green_opt(full, ladder, 4).impact);
}

constexpr Time kDynS = 8;

TEST(DynamicGreen, RisingMinimumRaisesCost) {
  // On a pure stream, the optimal is always the minimum height; raising
  // the minimum threshold mid-run must strictly raise the optimal cost.
  const Trace t = gen::single_use(1000);
  const HeightLadder ladder{2, 16};
  const Impact flat = green_opt(t, ladder, kDynS).impact;
  const Impact rising =
      green_opt(t, EpochSchedule::doubling_min(2, 16, {200, 400, 600}), kDynS)
          .impact;
  EXPECT_GT(rising, flat);
  // Splitting the schedule into epochs that all hold the same ladder
  // changes nothing.
  const EpochSchedule split({{0, ladder}, {300, ladder}, {700, ladder}});
  EXPECT_EQ(green_opt(t, split, kDynS).impact, flat);
}

class DynamicOptIsLowerBound : public ::testing::TestWithParam<GreenKind> {};

TEST_P(DynamicOptIsLowerBound, PagersNeverBeatDynamicDp) {
  Rng rng(3);
  const std::vector<Trace> traces{
      gen::cyclic(10, 900),
      gen::single_use(800),
      gen::zipf(24, 900, 1.0, rng),
  };
  const EpochSchedule schedule =
      EpochSchedule::doubling_min(2, 16, {300, 600});
  for (const Trace& t : traces) {
    const GreenOptResult opt = green_opt(t, schedule, kDynS);
    auto pager =
        make_green_pager(GetParam(), schedule.epoch(0).ladder, Rng(9));
    const ProfileRunResult r = run_green_paging(t, *pager, schedule, kDynS);
    EXPECT_GE(r.impact, opt.impact) << green_kind_name(GetParam());
    // The DP's profile replays to its own value.
    EXPECT_EQ(run_profile(t, opt.profile, kDynS).impact, opt.impact);
  }
}

INSTANTIATE_TEST_SUITE_P(Pagers, DynamicOptIsLowerBound,
                         ::testing::Values(GreenKind::kRand, GreenKind::kDet,
                                           GreenKind::kFixedMin));

// Values pinned from the earlier DP that simulated every box's LRU; the
// table-scan DP must reproduce them exactly.
struct GoldenShape {
  const char* name;
  Trace trace;
};

// The three E1 shapes of bench/green_ratio at (k, p).
std::vector<GoldenShape> e1_shapes(Height k, std::uint32_t p,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t hot = std::max<std::uint64_t>(2, k / p);
  const std::uint64_t cold = std::max<std::uint64_t>(hot + 1, k / 2);
  std::vector<GoldenShape> shapes;
  shapes.push_back({"sawtooth", gen::sawtooth(hot, cold, 800, 10, rng)});
  shapes.push_back({"polluted-cycle", gen::polluted_cycle(cold, 8000, p)});
  shapes.push_back({"zipf", gen::zipf(2 * k, 8000, 1.0, rng)});
  return shapes;
}

/// Order-sensitive fold of a profile's (height, duration) pairs.
std::uint64_t profile_checksum(const BoxProfile& profile) {
  std::uint64_t sum = 0;
  std::uint64_t i = 0;
  for (const Box& b : profile)
    sum += ++i * (std::uint64_t{b.height} * 1000003u + b.duration);
  return sum;
}

struct GoldenPoint {
  std::uint32_t p;
  Height k;
  Time s;
  // Per shape: impact, box count, profile checksum.
  std::array<Impact, 3> impact;
  std::array<std::size_t, 3> boxes;
  std::array<std::uint64_t, 3> checksum;
};

TEST(GreenOptGolden, E1ShapesMatchPinnedValues) {
  const std::vector<GoldenPoint> points = {
      {4, 16, 16,
       {184048, 512000, 476672},
       {93, 2000, 1697},
       {47048892331u, 8004152076000u, 5942604907348u}},
      {16, 64, 8,
       {184032, 256000, 248832},
       {1147, 2000, 1926},
       {2820911020504u, 8004088044000u, 7448513932752u}},
  };
  for (const GoldenPoint& pt : points) {
    const HeightLadder ladder = HeightLadder::for_cache(pt.k, pt.p);
    const std::vector<GoldenShape> shapes = e1_shapes(pt.k, pt.p, 1000 + pt.p);
    for (std::size_t c = 0; c < shapes.size(); ++c) {
      SCOPED_TRACE(std::string(shapes[c].name) + " p=" + std::to_string(pt.p));
      const GreenOptResult r = green_opt(shapes[c].trace, ladder, pt.s);
      EXPECT_EQ(r.impact, pt.impact[c]);
      EXPECT_EQ(r.profile.size(), pt.boxes[c]);
      EXPECT_EQ(profile_checksum(r.profile), pt.checksum[c]);
    }
  }
}

TEST(GreenOptGolden, DoublingMinScheduleMatchesPinnedValues) {
  // green_ratio's dynamic section: the minimum doubles at each quarter.
  const std::uint32_t p = 16;
  const Height k = 64;
  const Time s = 16;
  const std::array<Impact, 3> expected = {601280, 1321920, 1321664};
  const std::vector<GoldenShape> shapes = e1_shapes(k, p, 2000 + p);
  for (std::size_t c = 0; c < shapes.size(); ++c) {
    SCOPED_TRACE(shapes[c].name);
    const std::size_t quarter = shapes[c].trace.size() / 4;
    const EpochSchedule schedule = EpochSchedule::doubling_min(
        HeightLadder::for_cache(k, p).h_min, k,
        {quarter, 2 * quarter, 3 * quarter});
    EXPECT_EQ(green_opt(shapes[c].trace, schedule, s).impact, expected[c]);
  }
}

}  // namespace
}  // namespace ppg
