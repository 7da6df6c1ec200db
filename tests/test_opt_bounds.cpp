#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "green/green_opt.hpp"
#include "opt/opt_bounds.hpp"
#include "paging/cache_sim.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(BusyMinSingle, MatchesBeladyTiming) {
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  // Belady at capacity 3 faults 7 times: time = 5 hits + 7 * s.
  EXPECT_EQ(busy_min_single(t, 3, 10), 5u + 7u * 10);
}

TEST(BusyMinSingle, EmptyTraceIsZero) {
  EXPECT_EQ(busy_min_single(Trace{}, 4, 10), 0u);
}

TEST(ImpactLbStack, SingleUseStreamCountsMisses) {
  // Every request is cold: impact >= s each.
  const Trace t = gen::single_use(100);
  EXPECT_EQ(impact_lb_stack(t, 7), 700u);
}

TEST(ImpactLbStack, TightCycleCountsWorkingSet) {
  // Cycle over m pages, m < s: warm requests have distance m-1, so each
  // contributes m; cold ones contribute s.
  const Trace t = gen::cyclic(4, 100);
  const Impact expect = 4 * 8 + (100 - 4) * 4;
  EXPECT_EQ(impact_lb_stack(t, 8), expect);
}

TEST(ImpactLbStack, CapsAtMissCost) {
  // Distances larger than s-1 are capped at s (missing is always an
  // option).
  const Trace t = gen::cyclic(100, 300);
  EXPECT_EQ(impact_lb_stack(t, 5), 300u * 5);
}

// n pages drawn uniformly from `distinct` ids (not all need appear).
Trace random_trace(std::uint64_t distinct, std::size_t n, Rng& rng) {
  std::vector<PageId> pages(n);
  for (PageId& page : pages) page = 1000 + rng.next_below(distinct);
  return Trace(std::move(pages));
}

// The streaming fold impact_lb_stack used before it read stack_distances.
Impact online_impact(const Trace& trace, Time miss_cost) {
  OnlineStackDistance online;
  Impact total = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t d = online.access(trace[i]);
    total += d == kInfiniteDistance ? miss_cost
                                    : std::min<Impact>(miss_cost, d + 1);
  }
  return total;
}

TEST(BusyMinSingle, MatchesBeladySimulationOnRandomTraces) {
  Rng rng(31);
  for (int round = 0; round < 60; ++round) {
    const Height k = static_cast<Height>(rng.next_in(1, 24));
    // Half the rounds stay within k distinct pages (no eviction ever),
    // half exceed it (the heap evicts).
    const std::uint64_t distinct =
        round % 2 == 0 ? rng.next_in(1, k) : rng.next_in(k + 1, 4 * k + 8);
    const Trace t = random_trace(distinct, rng.next_in(1, 600), rng);
    const Time s = rng.next_in(1, 40);
    SCOPED_TRACE(testing::Message() << "round " << round << " k=" << k
                                    << " distinct=" << distinct);
    EXPECT_EQ(busy_min_single(t, k, s),
              simulate_policy(PolicyKind::kBelady, t, k, s).time);
  }
}

TEST(ImpactLbStack, MatchesOnlineStackDistanceFold) {
  Rng rng(37);
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t distinct = rng.next_in(1, 80);
    const Trace t = random_trace(distinct, rng.next_in(0, 800), rng);
    const Time s = rng.next_in(1, 64);
    EXPECT_EQ(impact_lb_stack(t, s), online_impact(t, s)) << "round " << round;
  }
}

TEST(OptBounds, TermsMatchReferencesOnRandomInstances) {
  Rng rng(41);
  for (int round = 0; round < 10; ++round) {
    MultiTrace mt;
    const ProcId p = static_cast<ProcId>(rng.next_in(1, 6));
    for (ProcId i = 0; i < p; ++i)
      mt.add(random_trace(rng.next_in(1, 40), rng.next_in(0, 400), rng));
    OptBoundsConfig config;
    config.cache_size = static_cast<Height>(rng.next_in(1, 32));
    config.miss_cost = rng.next_in(1, 32);
    Time single = 0;
    Impact impact = 0;
    for (ProcId i = 0; i < p; ++i) {
      const Trace& t = mt.trace(i);
      if (!t.empty())
        single = std::max(single, simulate_policy(PolicyKind::kBelady, t,
                                                  config.cache_size,
                                                  config.miss_cost)
                                      .time);
      impact += online_impact(t, config.miss_cost);
    }
    const OptBounds b = compute_opt_bounds(mt, config);
    EXPECT_EQ(b.lb_max_single, single) << "round " << round;
    EXPECT_EQ(b.lb_impact, impact / config.cache_size) << "round " << round;
  }
}

TEST(OptBounds, LowerBoundIsMaxOfTerms) {
  OptBounds b;
  b.lb_max_length = 10;
  b.lb_max_single = 30;
  b.lb_impact = 20;
  EXPECT_EQ(b.lower_bound(), 30u);
}

TEST(OptBounds, ComputedOnWorkload) {
  WorkloadParams params;
  params.num_procs = 4;
  params.cache_size = 16;
  params.requests_per_proc = 500;
  const MultiTrace mt =
      make_workload(WorkloadKind::kHomogeneousCyclic, params);
  OptBoundsConfig config;
  config.cache_size = 16;
  config.miss_cost = 4;
  const OptBounds b = compute_opt_bounds(mt, config);
  EXPECT_EQ(b.lb_max_length, 500u);
  EXPECT_GE(b.lb_max_single, 500u);
  EXPECT_GT(b.lb_impact, 0u);
}

TEST(OptBounds, ExactImpactAtLeastStackEstimate) {
  // The DP impact bound dominates the stack-distance estimate (both are
  // valid lower bounds; the DP is tight).
  const Trace t = gen::cyclic(12, 400);
  EXPECT_GE(green_opt(t, HeightLadder{1, 16}, 6).impact, impact_lb_stack(t, 6));
}

TEST(OptBounds, HostilePageIsCorruptTrace) {
  // The previous-access table rejects the reserved sentinel, and the error
  // names the processor whose trace held it.
  MultiTrace mt;
  mt.add(gen::cyclic(4, 40));
  Trace hostile = gen::cyclic(4, 40);
  hostile.mutable_requests()[5] = kInvalidPage;
  mt.add(std::move(hostile));
  mt.add(gen::cyclic(4, 40));
  OptBoundsConfig config;
  config.cache_size = 16;
  config.miss_cost = 4;
  const Error error =
      test::expect_corrupt_trace_at([&] { compute_opt_bounds(mt, config); }, 5);
  EXPECT_EQ(error.proc, 1u);
}

// The load-bearing property of the whole benchmark harness: the bound must
// never exceed what any real scheduler achieves.
class LowerBoundValidity : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(LowerBoundValidity, BoundBelowEveryScheduler) {
  WorkloadParams params;
  params.num_procs = 8;
  params.cache_size = 32;
  params.requests_per_proc = 1200;
  params.seed = 9;
  for (const WorkloadKind kind :
       {WorkloadKind::kHeterogeneousMix, WorkloadKind::kPollutedCycles,
        WorkloadKind::kSkewedLengths}) {
    const MultiTrace mt = make_workload(kind, params);
    OptBoundsConfig oc;
    oc.cache_size = 32;
    oc.miss_cost = 4;
    const OptBounds bounds = compute_opt_bounds(mt, oc);

    auto scheduler = make_scheduler(GetParam(), 3);
    EngineConfig ec;
    ec.cache_size = 32;
    ec.miss_cost = 4;
    const ParallelRunResult r = run_parallel(mt, *scheduler, ec);
    EXPECT_LE(bounds.lower_bound(), r.makespan)
        << scheduler_kind_name(GetParam()) << " on " << workload_kind_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, LowerBoundValidity,
                         ::testing::ValuesIn(all_scheduler_kinds()));

TEST(Stretch, DedicatedRunHasUnitStretch) {
  // One processor under STATIC owns the whole cache with no resets: its
  // completion equals its dedicated LRU time; with a working set that fits,
  // LRU == Belady, so stretch is exactly 1.
  MultiTrace mt;
  mt.add(gen::cyclic(6, 500));
  EngineConfig ec;
  ec.cache_size = 8;
  ec.miss_cost = 5;
  auto scheduler = make_scheduler(SchedulerKind::kStatic);
  const ParallelRunResult r = run_parallel(mt, *scheduler, ec);
  const auto stretch = per_proc_stretch(mt, r.completion, 8, 5);
  ASSERT_EQ(stretch.size(), 1u);
  EXPECT_DOUBLE_EQ(stretch[0], 1.0);
}

TEST(Stretch, AlwaysAtLeastOne) {
  WorkloadParams wp;
  wp.num_procs = 6;
  wp.cache_size = 32;
  wp.requests_per_proc = 800;
  const MultiTrace mt = make_workload(WorkloadKind::kSkewedLengths, wp);
  EngineConfig ec;
  ec.cache_size = 32;
  ec.miss_cost = 4;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    auto scheduler = make_scheduler(kind, 3);
    const ParallelRunResult r = run_parallel(mt, *scheduler, ec);
    for (double v : per_proc_stretch(mt, r.completion, 32, 4))
      EXPECT_GE(v, 1.0 - 1e-9) << scheduler_kind_name(kind);
  }
}

TEST(Stretch, EmptyTraceReportsOne) {
  MultiTrace mt;
  mt.add(Trace{});
  const auto stretch = per_proc_stretch(mt, {0}, 8, 4);
  EXPECT_DOUBLE_EQ(stretch[0], 1.0);
}

}  // namespace
}  // namespace ppg
