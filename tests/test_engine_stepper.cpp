// EngineStepper is the engine's event loop inverted into a resumable
// state machine, and the batch driver run_parallel_checked() is a thin
// loop over it. These tests pin the three contracts that inversion added:
//
//  - equivalence: a batch run, a manual step-until-done loop, and a
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
    const CheckedRun batch = run_parallel_checked(sources, *batch_sched, ec);
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
  const CheckedRun clean = run_parallel_checked(sources, *sched, ec);
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(clean.events_consumed,
            clean.result.num_boxes + wp.num_procs);
  EXPECT_GT(clean.result.hits + clean.result.misses, clean.events_consumed)
      << "requests must outnumber events for this test to mean anything";

  // An exact budget passes...
  ec.max_events = clean.events_consumed;
  auto sched_exact = build("DET-PAR", 3);
  const CheckedRun at_budget = run_parallel_checked(sources, *sched_exact, ec);
  EXPECT_TRUE(at_budget.status.ok());
  EXPECT_EQ(at_budget.events_consumed, clean.events_consumed);

  // ...one unit less fails with kCellBudgetExceeded, and the consumed
  // count includes the charge that tripped the limit.
  ec.max_events = clean.events_consumed - 1;
  auto sched_short = build("DET-PAR", 3);
  const CheckedRun over = run_parallel_checked(sources, *sched_short, ec);
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

// Event-queue corner cases. Each scenario drives a stepper through an
// arrival pattern that stresses how pending events are ordered, and
// returns everything the ordering can perturb: the full on_box stream (as
// a count and an FNV-1a digest), every completion in harvest order, and
// the events consumed. The expected values were captured from a binary-heap
// event queue with the same (time, kind, proc, seq) order, so they pin that
// order itself, not just run-to-run determinism.
struct QueueOutcome {
  std::uint64_t boxes = 0;
  std::uint64_t box_digest = 0xcbf29ce484222325ull;
  std::string completions;
  std::uint64_t events_consumed = 0;
  Time makespan = 0;
};

void fnv_mix(std::uint64_t& digest, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (word >> (8 * byte)) & 0xff;
    digest *= 0x100000001b3ull;
  }
}

enum class QueueScenario {
  kArriveBelowPeekedFrontier,
  kArriveAtNow,
  kFarFutureArrivals,
  kSameTimeArrivalChain,
};

QueueOutcome run_queue_scenario(const std::string& sched_name,
                                QueueScenario scenario) {
  QueueOutcome got;
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 4;
  ec.on_box = [&got](ProcId proc, const BoxAssignment& box) {
    ++got.boxes;
    fnv_mix(got.box_digest, proc);
    fnv_mix(got.box_digest, box.height);
    fnv_mix(got.box_digest, box.start);
    fnv_mix(got.box_digest, box.end);
    fnv_mix(got.box_digest, box.fresh ? 1 : 0);
  };
  const auto sched = build(sched_name, 11);
  EngineStepper stepper(*sched, ec);
  stepper.add_processor(gen::cyclic_source(6, 60));
  stepper.add_processor(gen::zipf_source(12, 80, 0.8, Rng(3)));
  stepper.start();

  const auto harvest = [&] {
    for (const StepCompletion& c : stepper.last_completions()) {
      got.completions += std::to_string(c.proc) + "@" +
                         std::to_string(c.time) +
                         (c.departed ? "d" : "") + " ";
    }
  };
  int steps = 0;
  int peeks = 0;
  bool more = true;
  while (more) {
    more = stepper.step();
    harvest();
    ++steps;
    switch (scenario) {
      case QueueScenario::kArriveBelowPeekedFrontier:
        if (peeks < 2 && steps >= 3 && stepper.has_pending() &&
            stepper.frontier() > stepper.now() + 1) {
          // Peeking the frontier must not move the queue's base: these
          // arrivals land in [now(), frontier()].
          ++peeks;
          const Time now = stepper.now();
          const Time frontier = stepper.frontier();
          stepper.add_processor(gen::cyclic_source(5, 30), now);
          stepper.add_processor(gen::cyclic_source(7, 25),
                                now + (frontier - now) / 2);
          stepper.add_processor(gen::single_use_source(9), frontier - 1);
          // An arrival at the frontier itself activates before the box
          // requests pending there (kind order), re-phasing DET-PAR first.
          stepper.add_processor(gen::cyclic_source(4, 12), frontier);
          EXPECT_EQ(stepper.frontier(), now);
          more = true;
        }
        break;
      case QueueScenario::kArriveAtNow:
        if (steps == 1 || steps == 6) {
          stepper.add_processor(gen::sawtooth_source(3, 9, 40, 2, Rng(8)),
                                stepper.now());
          more = true;
        }
        break;
      case QueueScenario::kFarFutureArrivals:
        if (steps == 2) {
          // Far beyond the near events, in distinct high buckets.
          const Time far = Time{1} << 40;
          for (const Time at : {far, far + 3, 3 * far, Time{1} << 52})
            stepper.add_processor(gen::cyclic_source(4, 20), at);
          more = true;
        }
        if (steps == 4) {
          stepper.add_processor(gen::single_use_source(6),
                                stepper.now() + 2);
          more = true;
        }
        break;
      case QueueScenario::kSameTimeArrivalChain:
        if (steps >= 2 && steps <= 4) {
          // Each arrival at now() forms a same-time successor batch; its
          // first box request (or an empty trace's instant finish) chains
          // one more batch at the same time.
          stepper.add_processor(gen::cyclic_source(3, 15), stepper.now());
          stepper.add_processor(gen::single_use_source(0), stepper.now());
          more = true;
        }
        break;
    }
  }
  const CheckedRun run = stepper.finish();
  EXPECT_TRUE(run.status.ok()) << run.status.error.to_string();
  got.events_consumed = run.events_consumed;
  got.makespan = run.result.makespan;
  return got;
}

struct QueuePin {
  const char* sched;
  QueueScenario scenario;
  std::uint64_t boxes;
  std::uint64_t box_digest;
  const char* completions;
  std::uint64_t events_consumed;
  Time makespan;
};

TEST(EngineStepperTest, EventQueueCornerCasesMatchHeapOrder) {
  const QueuePin pins[] = {
      {"DET-PAR", QueueScenario::kArriveBelowPeekedFrontier, 25,
       18354022563854085640ull,
       "0@96 9@136 2@141 6@141 8@147 4@163 5@176 3@179 7@192 1@194 ",
       43, 194},
      {"DET-PAR", QueueScenario::kArriveAtNow, 9,
       3320829074855200654ull,
       "0@96 2@128 1@173 3@256 ",
       15, 256},
      {"DET-PAR", QueueScenario::kFarFutureArrivals, 10,
       13002818220868368170ull,
       "0@96 6@154 1@173 2@1099511627808 "
       "3@1099511627811 4@3298534883360 5@4503599627370528 ",
       22, 4503599627370528},
      {"DET-PAR", QueueScenario::kSameTimeArrivalChain, 8,
       16620463706267104892ull,
       "3@64 5@64 7@64 2@88 4@88 6@88 0@96 1@173 ",
       22, 173},
      {"RAND-PAR", QueueScenario::kArriveBelowPeekedFrontier, 67,
       13509153945846774501ull,
       "8@116 9@128 4@132 5@144 2@148 0@156 7@172 3@180 6@184 1@243 ",
       85, 243},
      {"RAND-PAR", QueueScenario::kArriveAtNow, 31,
       10382619744753839990ull,
       "0@144 2@220 1@246 3@329 ",
       37, 329},
      {"RAND-PAR", QueueScenario::kFarFutureArrivals, 20,
       5759994992769701425ull,
       "6@122 0@146 1@239 2@1099511627808 "
       "3@1099511627811 4@3298534883360 5@4503599627370528 ",
       32, 4503599627370528},
      {"RAND-PAR", QueueScenario::kSameTimeArrivalChain, 25,
       15050105415841195138ull,
       "3@32 5@32 7@32 2@68 4@68 6@68 0@168 1@247 ",
       39, 247},
  };
  for (const QueuePin& pin : pins) {
    const std::string label =
        std::string(pin.sched) + " scenario " +
        std::to_string(static_cast<int>(pin.scenario));
    const QueueOutcome got = run_queue_scenario(pin.sched, pin.scenario);
    EXPECT_EQ(got.boxes, pin.boxes) << label;
    EXPECT_EQ(got.box_digest, pin.box_digest) << label;
    EXPECT_EQ(got.completions, pin.completions) << label;
    EXPECT_EQ(got.events_consumed, pin.events_consumed) << label;
    EXPECT_EQ(got.makespan, pin.makespan) << label;
  }
}

}  // namespace
}  // namespace ppg
