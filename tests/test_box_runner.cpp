#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "green/box_runner.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/trace_source.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(BoxRunner, ServesWithinBudget) {
  // s = 4. Box of height 2, duration 8: two cold misses consume the
  // entire budget.
  const Trace t = test::make_trace({1, 2, 3, 4});
  BoxRunner runner(t, 4);
  const BoxStepResult step = runner.run_box(2, 8);
  EXPECT_EQ(step.requests_completed, 2u);
  EXPECT_EQ(step.misses, 2u);
  EXPECT_EQ(step.busy_time, 8u);
  EXPECT_EQ(step.stall_time, 0u);
  EXPECT_FALSE(step.finished);
  EXPECT_EQ(runner.position(), 2u);
}

TEST(BoxRunner, StallsWhenRequestDoesNotFit) {
  // s = 4, duration 6: one miss (4 ticks) then the next miss doesn't fit;
  // 2 ticks stall.
  const Trace t = test::make_trace({1, 2});
  BoxRunner runner(t, 4);
  const BoxStepResult step = runner.run_box(2, 6);
  EXPECT_EQ(step.requests_completed, 1u);
  EXPECT_EQ(step.stall_time, 2u);
}

TEST(BoxRunner, HitsCostOne) {
  // Height 1, page repeats: 1 miss (s=4) + 4 hits in a duration-8 box.
  const Trace t = test::make_trace({1, 1, 1, 1, 1});
  BoxRunner runner(t, 4);
  const BoxStepResult step = runner.run_box(1, 8);
  EXPECT_EQ(step.misses, 1u);
  EXPECT_EQ(step.hits, 4u);
  EXPECT_TRUE(step.finished);
}

TEST(BoxRunner, CompartmentalizationResetsCache) {
  // Page 1 is resident after box 1; a fresh box must miss on it again.
  const Trace t = test::make_trace({1, 1});
  BoxRunner runner(t, 4);
  const BoxStepResult first = runner.run_box(2, 4);
  EXPECT_EQ(first.requests_completed, 1u);
  const BoxStepResult second = runner.run_box(2, 4, /*fresh=*/true);
  EXPECT_EQ(second.misses, 1u);  // NOT a hit: compartment starts empty
  EXPECT_EQ(second.hits, 0u);
}

TEST(BoxRunner, ContinuationKeepsCache) {
  const Trace t = test::make_trace({1, 1});
  BoxRunner runner(t, 4);
  runner.run_box(2, 4);
  const BoxStepResult second = runner.run_box(2, 4, /*fresh=*/false);
  EXPECT_EQ(second.hits, 1u);  // survived the box boundary
  EXPECT_EQ(second.misses, 0u);
}

TEST(BoxRunner, HeightChangeAlwaysResets) {
  const Trace t = test::make_trace({1, 1});
  BoxRunner runner(t, 4);
  runner.run_box(2, 4);
  // fresh=false but height changed: still a reset.
  const BoxStepResult second = runner.run_box(4, 16, /*fresh=*/false);
  EXPECT_EQ(second.misses, 1u);
}

TEST(BoxRunner, LruEvictionWithinBox) {
  // Height 2, cycle of 3 pages: every access misses.
  const Trace t = gen::cyclic(3, 6);
  BoxRunner runner(t, 2);
  const BoxStepResult step = runner.run_box(2, 100);
  EXPECT_EQ(step.misses, 6u);
  EXPECT_EQ(step.hits, 0u);
}

TEST(BoxRunner, CanonicalBoxCompletesAtLeastHeightRequests) {
  // The paper's accounting relies on a height-z canonical box finishing
  // >= z requests: duration s*z covers z misses.
  const Trace t = gen::single_use(100);
  for (Height z : {1u, 2u, 4u, 8u}) {
    BoxRunner runner(t, 7);
    const BoxStepResult step = runner.run_box(z, 7 * z);
    EXPECT_GE(step.requests_completed, z) << "height " << z;
  }
}

/// `trace` with its stack distances attached, so a BoxRunner built on it
/// takes the distance loop.
std::shared_ptr<const TraceSource> distance_source(const Trace& trace) {
  auto source = with_stack_distances(VectorTraceSource::view(trace));
  EXPECT_NE(source->stack_distances(), nullptr);
  return source;
}

// The distance loop against the LRU loop on seeded random traces whose
// small page universes force evictions, through random box sequences:
// fresh and continuation boxes, height changes, durations up to 3*s*h (so
// stalls happen), s in 1..8, and a restart on fresh runners part-way.
TEST(BoxRunner, DistanceLoopMatchesLruLoopOnRandomBoxes) {
  Rng rng(0xb0c5);
  std::uint64_t boxes = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::uint64_t universe = rng.next_in(1, 40);
    std::vector<PageId> pages(rng.next_in(0, 300));
    for (PageId& page : pages) page = rng.next_below(universe);
    const Trace t(std::move(pages));
    const Time s = rng.next_in(1, 8);
    const auto source = distance_source(t);
    BoxRunner lru(t, s);
    BoxRunner dist(*source, s);
    Height height = static_cast<Height>(rng.next_in(1, 16));
    bool restarted = false;
    for (int box = 0; box < 400 && !lru.finished(); ++box) {
      if (rng.next_bool(0.3))
        height = static_cast<Height>(rng.next_in(1, 16));
      const bool fresh = rng.next_bool(0.5);
      const Time duration = rng.next_in(1, 3 * s * height);
      const BoxStepResult a = lru.run_box(height, duration, fresh);
      const BoxStepResult b = dist.run_box(height, duration, fresh);
      const std::string where = "round " + std::to_string(round) + " box " +
                                std::to_string(box);
      ASSERT_EQ(b.requests_completed, a.requests_completed) << where;
      ASSERT_EQ(b.hits, a.hits) << where;
      ASSERT_EQ(b.misses, a.misses) << where;
      ASSERT_EQ(b.busy_time, a.busy_time) << where;
      ASSERT_EQ(b.stall_time, a.stall_time) << where;
      ASSERT_EQ(b.finished, a.finished) << where;
      ASSERT_EQ(dist.position(), lru.position()) << where;
      ASSERT_EQ(dist.finished(), lru.finished()) << where;
      ++boxes;
      if (!restarted && rng.next_bool(0.05)) {
        lru = BoxRunner(t, s);
        dist = BoxRunner(*source, s);
        restarted = true;
        ASSERT_EQ(dist.position(), 0u);
        ASSERT_EQ(dist.finished(), lru.finished());
      }
    }
    EXPECT_EQ(dist.total_hits(), lru.total_hits());
    EXPECT_EQ(dist.total_misses(), lru.total_misses());
  }
  EXPECT_GT(boxes, 40000u);
}

TEST(RunProfile, AccountsImpactExactly) {
  const Trace t = gen::cyclic(2, 10);
  // s = 3. Box 1 (height 4, duration 12): misses pages 0,1 (6 ticks) then 6
  // hits -> 8 requests, fully consumed. Box 2: fresh compartment re-misses
  // both pages (6 busy ticks) and finishes; its tail is clipped.
  const BoxProfile profile({canonical_box(4, 3), canonical_box(4, 3)});
  const ProfileRunResult r = run_profile(t, profile, 3);
  EXPECT_EQ(r.boxes_used, 2u);
  EXPECT_EQ(r.misses, 4u);
  EXPECT_EQ(r.hits, 6u);
  EXPECT_EQ(r.time, 12u + 6u);
  EXPECT_EQ(r.impact, 4u * 12u + 4u * 6u);
}

TEST(RunProfile, ChecksCompletion) {
  const Trace t = gen::single_use(100);
  const BoxProfile profile({canonical_box(1, 2)});  // serves ~1 request
  EXPECT_DEATH(run_profile(t, profile, 2), "profile too short");
}

TEST(RunProfile, FinalBoxClipped) {
  const Trace t = test::make_trace({1});
  const BoxProfile profile({canonical_box(4, 5)});  // duration 20
  const ProfileRunResult r = run_profile(t, profile, 5);
  EXPECT_EQ(r.time, 5u);          // one miss: 5 ticks, tail not charged
  EXPECT_EQ(r.impact, 4u * 5u);   // height * busy
}

}  // namespace
}  // namespace ppg
