// EngineStepper is the engine's event loop inverted into a resumable
// state machine, and ParallelEngine::run()/run_checked() are thin loops
// over it. These tests pin the three contracts that inversion added:
//
//  - equivalence: batch run(), a manual step-until-done loop, and a
//    PagingService-style interleaving of accessor calls between steps all
//    produce byte-identical results;
//  - the event budget counts *events* (box grants + completions +
//    arrivals), not requests and not batches, and the units consumed are
//    surfaced whether or not a budget is set;
//  - online arrival/departure: EngineView::for_each_active stays exact
//    after every step, DET-PAR / RAND-PAR / GLOBAL-LRU re-phase instead of
//    aborting when the active set changes mid-run, and any fixed
//    add/depart/step script is deterministic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"

namespace ppg {
namespace {

WorkloadParams study_params() {
  WorkloadParams wp;
  wp.num_procs = 6;
  wp.cache_size = 32;
  wp.requests_per_proc = 400;
  wp.seed = 23;
  return wp;
}

std::unique_ptr<BoxScheduler> build(const std::string& name,
                                    std::uint64_t seed) {
  if (name == "GLOBAL-LRU") return make_global_lru_box_facade();
  if (name == "RAND-PAR") return make_scheduler(SchedulerKind::kRandPar, seed);
  return make_scheduler(SchedulerKind::kDetPar, seed);
}

void expect_identical(const ParallelRunResult& got,
                      const ParallelRunResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.makespan, want.makespan) << label;
  EXPECT_EQ(got.completion, want.completion) << label;
  EXPECT_EQ(got.mean_completion, want.mean_completion) << label;
  EXPECT_EQ(got.hits, want.hits) << label;
  EXPECT_EQ(got.misses, want.misses) << label;
  EXPECT_EQ(got.num_boxes, want.num_boxes) << label;
  EXPECT_EQ(got.total_stall, want.total_stall) << label;
  EXPECT_EQ(got.total_impact, want.total_impact) << label;
  EXPECT_EQ(got.peak_concurrent_height, want.peak_concurrent_height) << label;
  EXPECT_EQ(got.effective_augmentation, want.effective_augmentation) << label;
}

/// Drives a stepper over the whole workload exactly as run_impl does.
CheckedRun step_until_done(const MultiTraceSource& sources,
                           BoxScheduler& scheduler,
                           const EngineConfig& config,
                           bool poke_accessors_between_steps = false) {
  EngineStepper stepper(scheduler, config);
  for (ProcId i = 0; i < sources.num_procs(); ++i)
    stepper.add_processor(sources.source_ptr(i));
  stepper.start();
  while (stepper.step()) {
    if (poke_accessors_between_steps) {
      // A service inspects state between batches; none of these may
      // perturb the run.
      (void)stepper.now();
      (void)stepper.active_count();
      (void)stepper.last_completions();
      stepper.view().for_each_active([&](ProcId proc) {
        (void)stepper.proc_hits(proc);
        (void)stepper.proc_misses(proc);
      });
    }
  }
  return stepper.finish();
}

TEST(EngineStepperTest, StepUntilDoneMatchesBatchRun) {
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, study_params());
  for (const std::string name : {"DET-PAR", "RAND-PAR", "GLOBAL-LRU"}) {
    EngineConfig ec;
    ec.cache_size = study_params().cache_size;
    ec.miss_cost = 8;
    const auto batch_sched = build(name, 7);
    ParallelEngine engine(sources, *batch_sched, ec);
    const CheckedRun batch = engine.run_checked();
    ASSERT_TRUE(batch.status.ok()) << name;

    for (const bool poke : {false, true}) {
      const auto sched = build(name, 7);
      const CheckedRun stepped = step_until_done(sources, *sched, ec, poke);
      ASSERT_TRUE(stepped.status.ok()) << name;
      expect_identical(stepped.result, batch.result,
                       name + (poke ? " poked" : " plain"));
      EXPECT_EQ(stepped.events_consumed, batch.events_consumed) << name;
    }
  }
}

TEST(EngineStepperTest, EventBudgetCountsEventsNotRequests) {
  // 4 procs x 200 requests: the request count dwarfs the event count, so a
  // budget keyed to requests would trip immediately. The consumed units
  // must equal boxes + completions exactly — and must be reported even
  // with no budget set.
  WorkloadParams wp = study_params();
  wp.num_procs = 4;
  wp.requests_per_proc = 200;
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHomogeneousCyclic, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;

  auto sched = build("DET-PAR", 3);
  ParallelEngine engine(sources, *sched, ec);
  const CheckedRun clean = engine.run_checked();
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(clean.events_consumed,
            clean.result.num_boxes + wp.num_procs);
  EXPECT_GT(clean.result.hits + clean.result.misses, clean.events_consumed)
      << "requests must outnumber events for this test to mean anything";

  // An exact budget passes...
  ec.max_events = clean.events_consumed;
  auto sched_exact = build("DET-PAR", 3);
  ParallelEngine exact(sources, *sched_exact, ec);
  const CheckedRun at_budget = exact.run_checked();
  EXPECT_TRUE(at_budget.status.ok());
  EXPECT_EQ(at_budget.events_consumed, clean.events_consumed);

  // ...one unit less fails with kCellBudgetExceeded, and the consumed
  // count includes the charge that tripped the limit.
  ec.max_events = clean.events_consumed - 1;
  auto sched_short = build("DET-PAR", 3);
  ParallelEngine short_run(sources, *sched_short, ec);
  const CheckedRun over = short_run.run_checked();
  ASSERT_FALSE(over.status.ok());
  EXPECT_EQ(over.status.error.code, ErrorCode::kCellBudgetExceeded);
  EXPECT_EQ(over.events_consumed, ec.max_events + 1);
}

TEST(EngineStepperTest, EmptyCohortIsDoneImmediately) {
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 4;
  auto sched = build("DET-PAR", 1);
  EngineStepper stepper(*sched, ec);
  stepper.start();
  EXPECT_FALSE(stepper.step());
  EXPECT_TRUE(stepper.done());
  const CheckedRun run = stepper.finish();
  EXPECT_TRUE(run.status.ok());
  EXPECT_EQ(run.result.makespan, 0u);
}

// Ground truth for the active set: procs whose arrival batch has run and
// that have not yet completed/departed.
class ActiveSetOracle {
 public:
  void admitted(ProcId proc, Time arrival) { arrivals_[proc] = arrival; }

  void observe(const EngineStepper& stepper) {
    for (const StepCompletion& c : stepper.last_completions())
      finished_.insert(c.proc);
    std::set<ProcId> want;
    for (const auto& [proc, arrival] : arrivals_)
      if (arrival <= stepper.now() && !finished_.contains(proc))
        want.insert(proc);
    std::vector<ProcId> visited;
    stepper.view().for_each_active(
        [&](ProcId proc) { visited.push_back(proc); });
    // Ascending, duplicate-free, and the same list active_ids() exposes.
    EXPECT_EQ(visited, std::vector<ProcId>(want.begin(), want.end()))
        << "at t=" << stepper.now();
    EXPECT_EQ(visited, stepper.view().active_ids());
    EXPECT_EQ(stepper.active_count(), visited.size());
  }

 private:
  std::map<ProcId, Time> arrivals_;
  std::set<ProcId> finished_;
};

TEST(EngineStepperTest, ForEachActiveIsExactUnderArrivalAndDeparture) {
  for (const std::string name : {"DET-PAR", "RAND-PAR", "GLOBAL-LRU"}) {
    EngineConfig ec;
    ec.cache_size = 32;
    ec.miss_cost = 8;
    const auto sched = build(name, 9);
    EngineStepper stepper(*sched, ec);
    ActiveSetOracle oracle;

    for (int i = 0; i < 2; ++i) {
      const ProcId proc = stepper.add_processor(gen::cyclic_source(17, 300));
      oracle.admitted(proc, 0);
    }
    stepper.start();

    int steps = 0;
    bool more = true;
    while (more) {
      more = stepper.step();
      oracle.observe(stepper);
      ++steps;
      if (steps == 3) {
        // Two late arrivals in the same future batch...
        const Time at = stepper.now() + 5;
        for (int i = 0; i < 2; ++i) {
          const ProcId proc =
              stepper.add_processor(gen::zipf_source(64, 400, 0.9, Rng(4)),
                                    at);
          oracle.admitted(proc, at);
          more = true;
        }
      }
      if (steps == 8) {
        // ...and a forced departure of an initial-cohort processor. It
        // leaves at its next box boundary, which the oracle sees as an
        // ordinary completion.
        stepper.depart(0);
      }
    }
    EXPECT_TRUE(stepper.done()) << name;
    const CheckedRun run = stepper.finish();
    EXPECT_TRUE(run.status.ok()) << name;
    // All four processors completed (one by departure).
    ASSERT_EQ(run.result.completion.size(), 4u) << name;
  }
}

TEST(EngineStepperTest, DepartBeforeArrivalNeverActivates) {
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 4;
  const auto sched = build("DET-PAR", 2);
  EngineStepper stepper(*sched, ec);
  stepper.add_processor(gen::cyclic_source(8, 100));
  stepper.start();
  const ProcId late = stepper.add_processor(gen::cyclic_source(8, 100), 50);
  stepper.depart(late);

  bool late_departed = false;
  while (stepper.step()) {
    for (const StepCompletion& c : stepper.last_completions()) {
      if (c.proc == late) {
        EXPECT_TRUE(c.departed);
        late_departed = true;
      }
    }
  }
  for (const StepCompletion& c : stepper.last_completions()) {
    if (c.proc == late) {
      EXPECT_TRUE(c.departed);
      late_departed = true;
    }
  }
  EXPECT_TRUE(late_departed);
  EXPECT_EQ(stepper.proc_hits(late), 0u);
  EXPECT_EQ(stepper.proc_misses(late), 0u);
  const CheckedRun run = stepper.finish();
  EXPECT_TRUE(run.status.ok());
}

/// Runs a fixed arrival/departure script and returns the final metrics.
CheckedRun run_script(const std::string& sched_name) {
  EngineConfig ec;
  ec.cache_size = 32;
  ec.miss_cost = 8;
  const auto sched = build(sched_name, 13);
  EngineStepper stepper(*sched, ec);
  for (std::size_t i = 0; i < 3; ++i)
    stepper.add_processor(gen::cyclic_source(17, 200 + 40 * i));
  stepper.start();

  int steps = 0;
  bool more = true;
  while (more) {
    more = stepper.step();
    ++steps;
    if (steps == 2) {
      stepper.add_processor(gen::sawtooth_source(4, 32, 80, 3, Rng(5)),
                            stepper.now() + 3);
      more = true;
    }
    if (steps == 5) stepper.depart(1);
    if (steps == 7) {
      stepper.add_processor(gen::single_use_source(120), stepper.now() + 1);
      more = true;
    }
  }
  return stepper.finish();
}

TEST(EngineStepperTest, ArrivalScriptsAreDeterministic) {
  for (const std::string name : {"DET-PAR", "RAND-PAR", "GLOBAL-LRU"}) {
    const CheckedRun want = run_script(name);
    ASSERT_TRUE(want.status.ok()) << name;
    ASSERT_EQ(want.result.completion.size(), 5u) << name;
    const CheckedRun got = run_script(name);
    ASSERT_TRUE(got.status.ok()) << name;
    expect_identical(got.result, want.result, name);
    EXPECT_EQ(got.events_consumed, want.events_consumed) << name;
  }
}

}  // namespace
}  // namespace ppg
