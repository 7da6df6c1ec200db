// Regression guard for the headline experiment (E6): the Theorem 4
// instance must keep forcing every oblivious scheduler to a ratio > 1
// against the constructed OPT, with all schedulers essentially tied —
// small enough to run inside the unit suite.
#include <gtest/gtest.h>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "opt/constructed_opt.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/adversarial.hpp"

namespace ppg {
namespace {

struct AdvSetup {
  AdversarialInstance instance;
  Time miss_cost;
};

AdvSetup build(std::uint32_t ell) {
  AdversarialParams params;
  params.ell = ell;
  params.a = 1;
  params.alpha = 1.0;
  params.suffix_phase_factor = 0.5;
  return AdvSetup{make_adversarial_instance(params),
               2 * params.cache_size()};
}

TEST(LowerBoundExperiment, EveryObliviousSchedulerPaysOnEll4) {
  const AdvSetup setup = build(4);
  const ConstructedOptResult opt =
      run_constructed_opt(setup.instance, setup.miss_cost);
  ASSERT_GT(opt.makespan, 0u);

  EngineConfig ec;
  ec.cache_size = setup.instance.params.cache_size();
  ec.miss_cost = setup.miss_cost;

  Time min_makespan = kTimeInfinity;
  Time max_makespan = 0;
  for (const SchedulerKind kind :
       {SchedulerKind::kBlackboxGreenDet, SchedulerKind::kDetPar,
        SchedulerKind::kRandPar, SchedulerKind::kEqui}) {
    auto scheduler = make_scheduler(kind, 5);
    const ParallelRunResult r =
        run_parallel(setup.instance.traces, *scheduler, ec);
    min_makespan = std::min(min_makespan, r.makespan);
    max_makespan = std::max(max_makespan, r.makespan);
  }
  // Forced gap: at ell = 4 the measured ratio is ~2.2; guard at > 1.5.
  EXPECT_GT(static_cast<double>(min_makespan),
            1.5 * static_cast<double>(opt.makespan));
  // And the instance is universal: all schedulers land within 5%.
  EXPECT_LT(static_cast<double>(max_makespan),
            1.05 * static_cast<double>(min_makespan));
}

TEST(LowerBoundExperiment, GapGrowsWithEll) {
  double prev_ratio = 0.0;
  for (const std::uint32_t ell : {3u, 4u}) {
    const AdvSetup setup = build(ell);
    const ConstructedOptResult opt =
        run_constructed_opt(setup.instance, setup.miss_cost);
    EngineConfig ec;
    ec.cache_size = setup.instance.params.cache_size();
    ec.miss_cost = setup.miss_cost;
    auto scheduler = make_scheduler(SchedulerKind::kBlackboxGreenDet, 5);
    const ParallelRunResult r =
        run_parallel(setup.instance.traces, *scheduler, ec);
    const double ratio = static_cast<double>(r.makespan) /
                         static_cast<double>(opt.makespan);
    EXPECT_GT(ratio, prev_ratio) << "ell " << ell;
    prev_ratio = ratio;
  }
}

TEST(LowerBoundExperiment, ConstructedOptBeatsCertifiedBoundSandwich) {
  const AdvSetup setup = build(3);
  const ConstructedOptResult opt =
      run_constructed_opt(setup.instance, setup.miss_cost);
  OptBoundsConfig oc;
  oc.cache_size = setup.instance.params.cache_size();
  oc.miss_cost = setup.miss_cost;
  const OptBounds bounds = compute_opt_bounds(setup.instance.traces, oc);
  EXPECT_LE(bounds.lower_bound(), opt.makespan);
}

}  // namespace
}  // namespace ppg
