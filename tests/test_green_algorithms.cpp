#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "green/box_runner.hpp"
#include "green/green_algorithm.hpp"
#include "trace/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

constexpr HeightLadder kLadder{4, 64};  // 5 rungs

TEST(DetGreen, EmitsBase4RulerSequence) {
  // Steps 1..16 in base 4: rung = number of trailing 3s.
  auto pager = make_det_green(kLadder);
  const std::vector<Height> expect{4, 4, 8,  4, 4, 4, 8, 4,   // t=1..8
                                   4, 4, 8,  4, 4, 4, 16, 4}; // t=9..16
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(pager->next_height(), expect[i]) << "step " << i + 1;
}

TEST(DetGreen, RungFrequenciesAreImpactBalanced) {
  // Rung r must appear with frequency ~3/4^(r+1), so that impact per rung
  // (frequency * 4^r) is equal across rungs — the derandomized Lemma 1.
  auto pager = make_det_green(kLadder);
  std::map<Height, std::uint64_t> counts;
  const std::uint64_t n = 1 << 20;
  for (std::uint64_t i = 0; i < n; ++i) ++counts[pager->next_height()];
  for (std::uint32_t r = 0; r + 1 < kLadder.num_heights(); ++r) {
    const double freq =
        static_cast<double>(counts[kLadder.height(r)]) / static_cast<double>(n);
    EXPECT_NEAR(freq, 3.0 / std::pow(4.0, r + 1), 0.01) << "rung " << r;
  }
}

TEST(DetGreen, EveryRungAppears) {
  auto pager = make_det_green(kLadder);
  std::set<Height> seen;
  for (int i = 0; i < (1 << 12); ++i) seen.insert(pager->next_height());
  EXPECT_EQ(seen.size(), kLadder.num_heights());
}

TEST(DetGreen, RebootRestartsSchedule) {
  auto pager = make_det_green(kLadder);
  pager->next_height();
  pager->next_height();
  pager->reboot(HeightLadder{8, 64});
  EXPECT_EQ(pager->next_height(), 8u);  // step 1 of the new schedule
}

TEST(FixedGreen, AlwaysSameHeight) {
  auto pager = make_fixed_green(kLadder, 16);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(pager->next_height(), 16u);
}

TEST(FixedGreen, SnapsToLadderOnReboot) {
  auto pager = make_fixed_green(kLadder, 16);
  pager->reboot(HeightLadder{32, 64});
  EXPECT_EQ(pager->next_height(), 32u);  // clamped up to new h_min
}

TEST(RandGreen, EmitsOnlyLadderHeights) {
  auto pager = make_rand_green(kLadder, Rng(1));
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(kLadder.contains(pager->next_height()));
}

TEST(RandGreen, DistributionMatchesInverseSquare) {
  // Pr[rung r] proportional to 4^-r: ratios between adjacent rungs = 4.
  auto pager = make_rand_green(kLadder, Rng(2));
  std::map<Height, int> counts;
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[pager->next_height()];
  // Normalizer: sum 4^-r for r=0..4.
  double z = 0;
  for (int r = 0; r < 5; ++r) z += std::pow(0.25, r);
  for (std::uint32_t r = 0; r < 5; ++r) {
    const double expected = std::pow(0.25, r) / z;
    const double observed =
        static_cast<double>(counts[kLadder.height(r)]) / n;
    EXPECT_NEAR(observed, expected, 0.005) << "rung " << r;
  }
}

TEST(RandGreen, ExponentZeroIsUniform) {
  auto pager = make_rand_green(kLadder, Rng(3), 0.0);
  std::map<Height, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[pager->next_height()];
  for (std::uint32_t r = 0; r < 5; ++r)
    EXPECT_NEAR(counts[kLadder.height(r)], n / 5, n / 50) << "rung " << r;
}

TEST(RandGreen, DeterministicGivenSeed) {
  auto a = make_rand_green(kLadder, Rng(7));
  auto b = make_rand_green(kLadder, Rng(7));
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a->next_height(), b->next_height());
}

TEST(GreenFactory, KindsProduceNamedPagers) {
  for (GreenKind kind : {GreenKind::kRand, GreenKind::kDet,
                         GreenKind::kFixedMin, GreenKind::kFixedMax}) {
    auto pager = make_green_pager(kind, kLadder, Rng(1));
    ASSERT_NE(pager, nullptr);
    EXPECT_NE(pager->name(), nullptr);
  }
}

TEST(RunGreenPaging, CompletesTheTrace) {
  const Trace t = gen::cyclic(16, 2000);
  auto pager = make_det_green(kLadder);
  BoxProfile profile;
  const ProfileRunResult r =
      run_green_paging(t, *pager, kLadder, 8, &profile);
  EXPECT_EQ(r.hits + r.misses, t.size());
  EXPECT_GT(r.impact, 0u);
  EXPECT_EQ(r.boxes_used, profile.size());
  EXPECT_EQ(profile.total_impact(), r.impact);
  EXPECT_EQ(profile.total_duration(), r.time);
}

TEST(RunGreenPaging, FixedMaxBeatsFixedMinOnBigWorkingSet) {
  // Working set of 48 pages: fits in the top rung (64) but thrashes at the
  // bottom rung (4). FIXED-MAX should finish with far fewer misses.
  const Trace t = gen::cyclic(48, 5000);
  auto big = make_fixed_green(kLadder, 64);
  auto small = make_fixed_green(kLadder, 4);
  const ProfileRunResult rb = run_green_paging(t, *big, kLadder, 8);
  const ProfileRunResult rs = run_green_paging(t, *small, kLadder, 8);
  EXPECT_LT(rb.misses, rs.misses / 2);
}

TEST(RunGreenPaging, FixedMinIsGreenerOnSingleUseStream) {
  // No reuse at all: every height misses on every request, so the minimal
  // height has minimal impact.
  const Trace t = gen::single_use(500);
  auto big = make_fixed_green(kLadder, 64);
  auto small = make_fixed_green(kLadder, 4);
  const ProfileRunResult rb = run_green_paging(t, *big, kLadder, 8);
  const ProfileRunResult rs = run_green_paging(t, *small, kLadder, 8);
  EXPECT_LT(rs.impact, rb.impact);
}

TEST(RunGreenPaging, HostilePageIsCorruptTrace) {
  // The reserved sentinel never reaches the previous-access table: the
  // whole trace is screened first, and the error names its position.
  Trace t = gen::cyclic(4, 40);
  t.mutable_requests()[5] = kInvalidPage;
  auto pager = make_det_green(kLadder);
  try {
    run_green_paging(t, *pager, kLadder, 8);
    ADD_FAILURE() << "served a hostile page";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    EXPECT_EQ(e.error().byte_offset, 5u);
  }
}

// Section 4's evolving thresholds: run_green_paging reboots the pager at
// each epoch boundary a box starts past.
constexpr Time kDynS = 8;

/// Forwards to `inner` and counts the reboots it receives.
class CountingPager final : public GreenPager {
 public:
  explicit CountingPager(std::unique_ptr<GreenPager> inner)
      : inner_(std::move(inner)) {}

  Height next_height() override { return inner_->next_height(); }
  void reboot(const HeightLadder& ladder) override {
    ++reboots;
    inner_->reboot(ladder);
  }
  const char* name() const override { return inner_->name(); }

  std::size_t reboots = 0;

 private:
  std::unique_ptr<GreenPager> inner_;
};

TEST(DynamicGreen, SingleEpochMatchesStaticRunner) {
  // One epoch never reboots, and the table replay agrees with BoxRunner's
  // LRU replay of the profile it emitted, box for box. At s = 1 a hit and
  // a miss cost the same, so only the counted misses can agree.
  Rng rng(1);
  const Trace t = gen::zipf(20, 1500, 0.9, rng);
  const HeightLadder ladder{2, 16};
  for (const Time s : {Time{1}, kDynS}) {
    CountingPager pager(make_det_green(ladder));
    BoxProfile profile;
    const ProfileRunResult r = run_green_paging(t, pager, ladder, s, &profile);
    const ProfileRunResult lru = run_profile(t, profile, s);
    EXPECT_EQ(r.impact, lru.impact) << "s = " << s;
    EXPECT_EQ(r.time, lru.time) << "s = " << s;
    EXPECT_EQ(r.hits, lru.hits) << "s = " << s;
    EXPECT_EQ(r.misses, lru.misses) << "s = " << s;
    EXPECT_EQ(r.boxes_used, lru.boxes_used) << "s = " << s;
    EXPECT_EQ(pager.reboots, 0u);
  }
}

TEST(DynamicGreen, RebootsFireAtEpochBoundaries) {
  const Trace t = gen::single_use(600);
  const EpochSchedule schedule =
      EpochSchedule::doubling_min(2, 16, {200, 400});
  CountingPager pager(make_det_green(HeightLadder{2, 16}));
  const ProfileRunResult r = run_green_paging(t, pager, schedule, kDynS);
  EXPECT_EQ(pager.reboots, 2u);
  EXPECT_EQ(r.hits + r.misses, t.size());
}

TEST(DynamicGreen, PagerHeightsConformPerEpoch) {
  // After a reboot the pager must emit heights on the NEW ladder — the
  // runner enforces it; this exercises the enforcement across epochs.
  const Trace t = gen::single_use(500);
  const EpochSchedule schedule =
      EpochSchedule::doubling_min(4, 32, {100, 200, 300});
  CountingPager pager(make_rand_green(HeightLadder{4, 32}, Rng(11)));
  const ProfileRunResult r = run_green_paging(t, pager, schedule, kDynS);
  EXPECT_EQ(r.hits + r.misses, t.size());
  EXPECT_GE(pager.reboots, 3u);
}

}  // namespace
}  // namespace ppg
