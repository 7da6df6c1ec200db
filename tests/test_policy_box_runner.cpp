#include <gtest/gtest.h>

#include "green/box_runner.hpp"
#include "green/policy_box_runner.hpp"
#include "test_helpers.hpp"
#include "trace/fault_source.hpp"
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

class InBoxPolicyConservation : public ::testing::TestWithParam<PolicyKind> {
};

TEST_P(InBoxPolicyConservation, CompletesAndConserves) {
  Rng rng(3);
  const Trace t = gen::sawtooth(3, 20, 400, 6, rng);
  const HeightLadder ladder{2, 16};
  auto pager = make_det_green(ladder);
  const ProfileRunResult r =
      run_green_paging_with_policy(t, *pager, 6, GetParam(), 17);
  EXPECT_EQ(r.hits + r.misses, t.size());
  EXPECT_GT(r.impact, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, InBoxPolicyConservation,
                         ::testing::ValuesIn(all_policy_kinds()));

TEST(PolicyBoxRunner, HostilePageIsCorruptTrace) {
  // The reserved sentinel is rejected at the span screen, as in BoxRunner,
  // before any policy's bookkeeping sees it.
  Trace t = gen::cyclic(4, 40);
  t.mutable_requests()[5] = kInvalidPage;
  for (const PolicyKind kind : all_policy_kinds()) {
    PolicyBoxRunner runner(t, 2, kind);
    try {
      while (!runner.finished()) runner.run_box(4, 100);
      ADD_FAILURE() << "served a hostile page";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
      EXPECT_EQ(e.error().byte_offset, 5u);
    }
  }
}

TEST(PolicyBoxRunner, StalledSourceIsCorruptTrace) {
  // A stalled stream serves no request and never reports done(): the
  // green-paging loop must fail at the stall instead of opening boxes
  // forever.
  const auto source = make_fault_injecting_source(
      gen::cyclic_source(4, 40), TraceFaultSpec{TraceFaultClass::kStall, 5});
  const HeightLadder ladder{2, 16};
  for (const PolicyKind kind : all_policy_kinds()) {
    if (kind == PolicyKind::kBelady) continue;  // needs a materialized trace
    auto pager = make_det_green(ladder);
    try {
      run_green_paging_with_policy(*source, *pager, 2, kind, 3);
      ADD_FAILURE() << "finished a stalled stream: " << policy_kind_name(kind);
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace)
          << policy_kind_name(kind);
      EXPECT_EQ(e.error().byte_offset, 5u) << policy_kind_name(kind);
    }
  }
}

TEST(PolicyBoxRunner, InBoxBeladyNeverLosesToInBoxLru) {
  // Clairvoyant eviction inside the same box stream can only reduce
  // misses.
  Rng rng(5);
  const HeightLadder ladder{2, 16};
  const std::vector<Trace> traces{
      gen::cyclic(12, 4000),
      gen::zipf(40, 4000, 1.0, rng),
      gen::single_use(2000),
  };
  for (const Trace& t : traces) {
    auto pager_a = make_det_green(ladder);
    auto pager_b = make_det_green(ladder);
    const ProfileRunResult lru =
        run_green_paging_with_policy(t, *pager_a, 8, PolicyKind::kLru);
    const ProfileRunResult belady =
        run_green_paging_with_policy(t, *pager_b, 8, PolicyKind::kBelady);
    EXPECT_LE(belady.misses, lru.misses);
  }
}

TEST(PolicyBoxRunner, PolicySpreadIsBoundedInsideBoxes) {
  // The "LRU WLOG" sanity at unit-test scale: on a hot cycle, every online
  // in-box policy lands within a constant factor of in-box LRU's time.
  const Trace t = gen::cyclic(12, 6000);
  const HeightLadder ladder{4, 32};
  auto base_pager = make_det_green(ladder);
  const ProfileRunResult lru =
      run_green_paging_with_policy(t, *base_pager, 8, PolicyKind::kLru);
  for (const PolicyKind kind : all_policy_kinds()) {
    auto pager = make_det_green(ladder);
    const ProfileRunResult r =
        run_green_paging_with_policy(t, *pager, 8, kind, 7);
    EXPECT_LT(static_cast<double>(r.time),
              4.0 * static_cast<double>(lru.time))
        << policy_kind_name(kind);
    EXPECT_GT(static_cast<double>(r.time),
              0.25 * static_cast<double>(lru.time))
        << policy_kind_name(kind);
  }
}

}  // namespace
}  // namespace ppg
