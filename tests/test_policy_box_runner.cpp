#include <gtest/gtest.h>

#include <vector>

#include "green/box_runner.hpp"
#include "green/green_algorithm.hpp"
#include "green/policy_box_runner.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(PolicyBoxRunner, LruVariantMatchesSpecializedRunner) {
  // The generic runner with kLru must reproduce BoxRunner exactly, box by
  // box, across resets and height changes.
  Rng rng(1);
  const Trace t = gen::zipf(32, 3000, 0.9, rng);
  BoxRunner fast(t, 5);
  PolicyBoxRunner generic(t, 5, PolicyKind::kLru);
  Rng boxes(2);
  while (!fast.finished()) {
    const auto height = static_cast<Height>(1u << boxes.next_below(5));
    const Time duration = 5 * static_cast<Time>(height);
    const bool fresh = boxes.next_bool(0.7);
    const BoxStepResult a = fast.run_box(height, duration, fresh);
    const BoxStepResult b = generic.run_box(height, duration, fresh);
    ASSERT_EQ(a.requests_completed, b.requests_completed);
    ASSERT_EQ(a.hits, b.hits);
    ASSERT_EQ(a.misses, b.misses);
    ASSERT_EQ(a.stall_time, b.stall_time);
    ASSERT_EQ(fast.position(), generic.position());
  }
  EXPECT_TRUE(generic.finished());
}

TEST(PolicyBoxRunner, CompartmentalizationResets) {
  const Trace t = test::make_trace({1, 1});
  PolicyBoxRunner runner(t, 4, PolicyKind::kFifo);
  runner.run_box(2, 4);
  const BoxStepResult second = runner.run_box(2, 4, /*fresh=*/true);
  EXPECT_EQ(second.misses, 1u);  // fresh compartment misses again
}

// E12's key finding at canonical duration: a box of s*h ticks pays for at
// most h misses, so no in-box policy ever evicts, and every policy replays
// DET-GREEN's canonical boxes with exactly run_green_paging's totals.
class InBoxPolicyConservation : public ::testing::TestWithParam<PolicyKind> {
};

TEST_P(InBoxPolicyConservation, CompletesAndConserves) {
  constexpr Time kS = 8;
  Rng rng(3);
  const HeightLadder ladder{2, 16};
  const std::vector<Trace> traces{
      gen::sawtooth(3, 20, 400, 6, rng),
      gen::cyclic(12, 4000),
      gen::zipf(40, 4000, 1.0, rng),
      gen::single_use(2000),
  };
  for (const Trace& t : traces) {
    auto reference_pager = make_det_green(ladder);
    const ProfileRunResult want =
        run_green_paging(t, *reference_pager, ladder, kS);
    auto pager = make_det_green(ladder);
    PolicyBoxRunner runner(t, kS, GetParam(), 17);
    ProfileRunResult got;
    while (!runner.finished()) {
      const Box box = canonical_box(pager->next_height(), kS);
      got.charge(box, runner.run_box(box.height, box.duration));
    }
    EXPECT_EQ(got.hits + got.misses, t.size());
    EXPECT_EQ(got.time, want.time) << policy_kind_name(GetParam());
    EXPECT_EQ(got.impact, want.impact) << policy_kind_name(GetParam());
    EXPECT_EQ(got.hits, want.hits) << policy_kind_name(GetParam());
    EXPECT_EQ(got.misses, want.misses) << policy_kind_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, InBoxPolicyConservation,
                         ::testing::ValuesIn(all_policy_kinds()));

TEST(PolicyBoxRunner, HostilePageIsCorruptTrace) {
  // The reserved sentinel is rejected at the span screen, as in BoxRunner,
  // before any policy's bookkeeping sees it; Belady's runner rejects it
  // when it is built, from the previous-access table of its next uses.
  Trace t = gen::cyclic(4, 40);
  t.mutable_requests()[5] = kInvalidPage;
  for (const PolicyKind kind : all_policy_kinds()) {
    try {
      PolicyBoxRunner runner(t, 2, kind);
      while (!runner.finished()) runner.run_box(4, 100);
      ADD_FAILURE() << "served a hostile page";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
      EXPECT_EQ(e.error().byte_offset, 5u);
    }
  }
}

}  // namespace
}  // namespace ppg
