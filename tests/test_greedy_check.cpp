#include <gtest/gtest.h>

#include "green/greedy_check.hpp"
#include "green/green_opt.hpp"
#include "trace/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

constexpr HeightLadder kLadder{2, 16};
constexpr Time kS = 8;

TEST(GreedyCheck, EmptyTraceHasNoCheckpoints) {
  auto pager = make_det_green(kLadder);
  const GreedyCheckResult r =
      check_greedily_green(Trace{}, *pager, kLadder, kS);
  EXPECT_TRUE(r.checkpoints.empty());
  EXPECT_EQ(r.max_ratio, 0.0);
}

TEST(GreedyCheck, CheckpointsCoverTheTrace) {
  Rng rng(1);
  const Trace t = gen::zipf(16, 1200, 0.9, rng);
  auto pager = make_det_green(kLadder);
  const GreedyCheckResult r =
      check_greedily_green(t, *pager, kLadder, kS, 6);
  ASSERT_GE(r.checkpoints.size(), 1u);
  EXPECT_EQ(r.checkpoints.back().prefix_requests, t.size());
  for (std::size_t i = 1; i < r.checkpoints.size(); ++i) {
    EXPECT_GT(r.checkpoints[i].prefix_requests,
              r.checkpoints[i - 1].prefix_requests);
    // Both impacts are monotone in the prefix.
    EXPECT_GE(r.checkpoints[i].pager_impact,
              r.checkpoints[i - 1].pager_impact);
    EXPECT_GE(r.checkpoints[i].opt_impact,
              r.checkpoints[i - 1].opt_impact);
  }
}

TEST(GreedyCheck, RatiosAreAtLeastOne) {
  Rng rng(2);
  const Trace t = gen::sawtooth(2, 12, 200, 6, rng);
  auto pager = make_rand_green(kLadder, Rng(5));
  const GreedyCheckResult r =
      check_greedily_green(t, *pager, kLadder, kS, 4);
  for (const GreedyCheckpoint& cp : r.checkpoints)
    EXPECT_GE(cp.ratio, 1.0 - 1e-9);
}

// The paper's point: competitive online pagers are automatically greedily
// competitive (Definition 1) — every prefix is served within a bounded
// factor of that prefix's own optimum.
class OnlinePagersAreGreedilyGreen : public ::testing::TestWithParam<GreenKind> {
};

TEST_P(OnlinePagersAreGreedilyGreen, PrefixRatiosBounded) {
  Rng rng(3);
  const std::vector<Trace> traces{
      gen::cyclic(10, 800),
      gen::single_use(600),
      gen::zipf(24, 800, 1.0, rng),
  };
  for (const Trace& t : traces) {
    auto pager = make_green_pager(GetParam(), kLadder, Rng(7));
    const GreedyCheckResult r =
        check_greedily_green(t, *pager, kLadder, kS, 5);
    // Generous empirical bound: c * #rungs with slack one sweep of boxes.
    const double g = 4.0 * kLadder.num_heights();
    const Impact slack = static_cast<Impact>(kS) * 16 * 16 * 4;
    EXPECT_TRUE(r.is_greedily_competitive(g, slack))
        << green_kind_name(GetParam()) << " max ratio " << r.max_ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(Pagers, OnlinePagersAreGreedilyGreen,
                         ::testing::Values(GreenKind::kRand, GreenKind::kDet));

TEST(GreedyCheck, FlagsAGreenwashingPager) {
  // FIXED-MAX on a single-use stream: every prefix is served at the top
  // height while OPT uses the bottom — the prefix ratio is ~h_max/h_min
  // at every checkpoint, which a tight g rejects.
  const Trace t = gen::single_use(600);
  auto pager = make_fixed_green(kLadder, kLadder.h_max);
  const GreedyCheckResult r =
      check_greedily_green(t, *pager, kLadder, kS, 4);
  EXPECT_GT(r.max_ratio, 4.0);
  EXPECT_FALSE(r.is_greedily_competitive(2.0, /*slack=*/0));
}

TEST(GreedyCheck, HostilePageIsCorruptTrace) {
  // Rejected by the previous-access table the replay runs on, as in
  // run_green_paging.
  Trace t = gen::cyclic(4, 40);
  t.mutable_requests()[5] = kInvalidPage;
  auto pager = make_det_green(kLadder);
  try {
    check_greedily_green(t, *pager, kLadder, kS, 2);
    ADD_FAILURE() << "served a hostile page";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    EXPECT_EQ(e.error().byte_offset, 5u);
  }
}

TEST(GreedyCheck, RejectsOffLadderPager) {
  // A pager whose reboot was forgotten emits heights outside the ladder;
  // the checker must refuse to evaluate garbage.
  auto pager = make_fixed_green(HeightLadder{4, 64}, 64);
  const Trace t = gen::single_use(64);
  EXPECT_DEATH(check_greedily_green(t, *pager, kLadder, kS, 2),
               "pager left the ladder");
}

}  // namespace
}  // namespace ppg
