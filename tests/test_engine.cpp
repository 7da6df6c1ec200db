#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/rand_par.hpp"
#include "core/scheduler_factory.hpp"
#include "core/simple_schedulers.hpp"
#include "test_helpers.hpp"
#include "trace/fault_source.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

MultiTrace small_workload(ProcId p, std::size_t len) {
  MultiTrace mt;
  for (ProcId i = 0; i < p; ++i)
    mt.add(gen::rebase_to_proc(gen::cyclic(4 + i, len), i));
  return mt;
}

EngineConfig config_for(Height k, Time s) {
  EngineConfig c;
  c.cache_size = k;
  c.miss_cost = s;
  return c;
}

TEST(Engine, ServesEveryRequestExactlyOnce) {
  const MultiTrace mt = small_workload(4, 500);
  auto scheduler = make_static_partition();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(16, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
}

TEST(Engine, MakespanIsMaxCompletion) {
  const MultiTrace mt = small_workload(3, 300);
  auto scheduler = make_equi_partition();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(16, 4));
  Time max_c = 0;
  for (Time c : r.completion) max_c = std::max(max_c, c);
  EXPECT_EQ(r.makespan, max_c);
  EXPECT_LE(r.mean_completion, static_cast<double>(r.makespan));
}

TEST(Engine, MakespanAtLeastTrivialLowerBound) {
  const MultiTrace mt = small_workload(4, 400);
  auto scheduler = make_equi_partition();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_GE(r.makespan, mt.max_length());
}

TEST(Engine, EmptyTracesCompleteAtZero) {
  MultiTrace mt;
  mt.add(Trace{});
  mt.add(gen::rebase_to_proc(gen::cyclic(4, 100), 1));
  auto scheduler = make_equi_partition();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(8, 2));
  EXPECT_EQ(r.completion[0], 0u);
  EXPECT_GT(r.completion[1], 0u);
}

TEST(Engine, SingleProcessorMatchesDedicatedCache) {
  // One processor under STATIC gets k/1 = k forever with no resets: its
  // time must equal plain LRU(k) time.
  const Trace base = gen::cyclic(6, 300);
  MultiTrace mt;
  mt.add(base);
  auto scheduler = make_static_partition();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(8, 5));
  // 6 cold misses + 294 hits.
  EXPECT_EQ(r.misses, 6u);
  EXPECT_EQ(r.makespan, 6u * 5u + 294u);
}

TEST(Engine, DeterministicAcrossRuns) {
  const MultiTrace mt = small_workload(5, 400);
  for (int trial = 0; trial < 2; ++trial) {
    auto s1 = make_equi_partition();
    auto s2 = make_equi_partition();
    const ParallelRunResult a = run_parallel(mt, *s1, config_for(16, 3));
    const ParallelRunResult b = run_parallel(mt, *s2, config_for(16, 3));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.completion, b.completion);
    EXPECT_EQ(a.total_impact, b.total_impact);
  }
}

TEST(Engine, OnBoxObserverSeesEveryBox) {
  const MultiTrace mt = small_workload(3, 200);
  auto scheduler = make_equi_partition();
  EngineConfig c = config_for(8, 3);
  std::uint64_t observed = 0;
  c.on_box = [&](ProcId, const BoxAssignment&) { ++observed; };
  const ParallelRunResult r = run_parallel(mt, *scheduler, c);
  EXPECT_EQ(observed, r.num_boxes);
  EXPECT_GT(observed, 0u);
}

TEST(Engine, MemoryTimelineTracksPeak) {
  const MultiTrace mt = small_workload(4, 200);
  auto scheduler = make_static_partition();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(16, 3));
  // STATIC allocates 4 slices of height 4 concurrently.
  EXPECT_GT(r.peak_concurrent_height, 0u);
  EXPECT_LE(r.peak_concurrent_height, 16u);
  EXPECT_GT(r.effective_augmentation, 0.0);
  EXPECT_LE(r.effective_augmentation, 1.0);
}

using BoxLog = std::vector<std::pair<ProcId, BoxAssignment>>;

/// The peak concurrent height recomputed offline from the on_box log: a box
/// holds its height from box.start until min(box.end, its processor's
/// completion), deallocations before allocations at equal times.
Height peak_from_log(const BoxLog& log, const std::vector<Time>& completion) {
  std::vector<std::pair<Time, std::int64_t>> timeline;
  for (const auto& [proc, box] : log) {
    const auto height = static_cast<std::int64_t>(box.height);
    timeline.emplace_back(box.start, height);
    timeline.emplace_back(std::min(box.end, completion[proc]), -height);
  }
  std::sort(timeline.begin(), timeline.end());
  std::int64_t current = 0;
  std::int64_t peak = 0;
  for (const auto& [time, delta] : timeline) {
    current += delta;
    peak = std::max(peak, current);
  }
  EXPECT_EQ(current, 0);
  return static_cast<Height>(peak);
}

/// True if some box of a batch run starts after its processor asked for it
/// (at time 0 or at its previous box's end): the deferred-start path.
bool has_stalled_box(const BoxLog& log) {
  std::vector<Time> asked_at;
  for (const auto& [proc, box] : log) {
    if (proc >= asked_at.size()) asked_at.resize(proc + 1, 0);
    if (box.start > asked_at[proc]) return true;
    asked_at[proc] = box.end;
  }
  return false;
}

TEST(Engine, PeakHeightMatchesBoxLogRecount) {
  WorkloadParams wp;
  wp.num_procs = 12;
  wp.cache_size = 48;
  wp.requests_per_proc = 600;
  wp.seed = 5;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  const auto check = [&mt, &wp](std::unique_ptr<BoxScheduler> scheduler,
                                bool defers_starts) {
    EngineConfig c = config_for(wp.cache_size, 4);
    BoxLog log;
    c.on_box = [&log](ProcId proc, const BoxAssignment& box) {
      log.emplace_back(proc, box);
    };
    const ParallelRunResult r = run_parallel(mt, *scheduler, c);
    const std::string label =
        std::string(scheduler->name()) + (defers_starts ? " (stalling)" : "");
    EXPECT_GT(r.peak_concurrent_height, 0u) << label;
    EXPECT_EQ(r.peak_concurrent_height, peak_from_log(log, r.completion))
        << label;
    EXPECT_DOUBLE_EQ(r.effective_augmentation,
                     static_cast<double>(r.peak_concurrent_height) /
                         static_cast<double>(wp.cache_size))
        << label;
    EXPECT_EQ(has_stalled_box(log), defers_starts) << label;
  };
  check(make_scheduler(SchedulerKind::kDetPar, 3), false);
  check(make_scheduler(SchedulerKind::kRandPar, 3), false);
  // RAND-PAR with stall_between_waves grants secondary boxes that start at
  // their wave window, after the request: the engine's deferred starts.
  RandParConfig stalling;
  stalling.seed = 3;
  stalling.stall_between_waves = true;
  check(make_rand_par(stalling), true);

  // A service-shaped stepper run: online arrivals, a depart(), a contained
  // runner failure and a per-processor box-budget quarantine, each of which
  // ends a processor at its box boundary.
  EngineConfig c = config_for(32, 2);
  c.contain_proc_failures = true;
  c.proc_event_budget = 40;
  BoxLog log;
  c.on_box = [&log](ProcId proc, const BoxAssignment& box) {
    log.emplace_back(proc, box);
  };
  auto scheduler = make_scheduler(SchedulerKind::kDetPar, 7);
  EngineStepper stepper(*scheduler, c);
  const auto fault = [](TraceFaultClass kind, std::uint64_t at) {
    TraceFaultSpec spec;
    spec.fault = kind;
    spec.at = at;
    return make_fault_injecting_source(gen::cyclic_source(6, 300), spec);
  };
  stepper.add_processor(gen::cyclic_source(5, 200));
  stepper.add_processor(fault(TraceFaultClass::kFail, 90));
  stepper.add_processor(fault(TraceFaultClass::kStall, 20));
  stepper.start();
  std::vector<Time> completion(3, 0);
  std::vector<StepCompletion> ends;
  for (int steps = 0; !stepper.done(); ++steps) {
    stepper.step();
    for (const StepCompletion& done : stepper.last_completions()) {
      if (done.proc >= completion.size()) completion.resize(done.proc + 1, 0);
      completion[done.proc] = done.time;
      ends.push_back(done);
    }
    const Time now = stepper.now();
    if (steps == 3) stepper.add_processor(gen::cyclic_source(9, 250), now + 5);
    if (steps == 6) stepper.add_processor(gen::cyclic_source(7, 150), now + 30);
    if (steps == 12) stepper.depart(3);
  }
  const CheckedRun run = stepper.finish();
  ASSERT_TRUE(run.status.ok()) << run.status.error.to_string();
  ASSERT_EQ(ends.size(), 5u);
  const auto ended = [&ends](ProcId proc) {
    return *std::find_if(ends.begin(), ends.end(),
                         [proc](const StepCompletion& e) {
                           return e.proc == proc;
                         });
  };
  EXPECT_EQ(ended(1).error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(ended(2).error.code, ErrorCode::kTenantBudgetExceeded);
  EXPECT_TRUE(ended(3).departed);
  EXPECT_GT(run.result.peak_concurrent_height, 0u);
  EXPECT_EQ(run.result.peak_concurrent_height, peak_from_log(log, completion));
}

TEST(Engine, PeakHeightOrdersDeferredStartsAroundReleases) {
  // Processor 0 holds height 4 on [0, 10), then height 1; processor 1 is
  // granted height 4 at time 0 that starts `delay` ticks later. With miss
  // cost 1 every request takes one tick, so the box boundaries are exact.
  class Scripted final : public BoxScheduler {
   public:
    explicit Scripted(Time delay) : delay_(delay) {}
    void start(const SchedulerContext&, const EngineView&) override {}
    BoxAssignment next_box(ProcId proc, Time now, const EngineView&) override {
      if (proc == 1) return BoxAssignment{4, now + delay_, now + delay_ + 100};
      if (now == 0) return BoxAssignment{4, 0, 10};
      return BoxAssignment{1, now, now + 100};
    }
    const char* name() const override { return "SCRIPTED"; }

   private:
    Time delay_;
  };
  MultiTrace mt;
  mt.add(gen::single_use(30));
  mt.add(gen::single_use(30));
  // A start at 5 lands before processor 0's release at 10: both boxes
  // overlap on [5, 10). A start at exactly 10 follows that release.
  for (const auto& [delay, want] : {std::pair<Time, Height>{5, 8},
                                    std::pair<Time, Height>{10, 5}}) {
    Scripted scheduler(delay);
    EngineConfig c = config_for(8, 1);
    BoxLog log;
    c.on_box = [&log](ProcId proc, const BoxAssignment& box) {
      log.emplace_back(proc, box);
    };
    const ParallelRunResult r = run_parallel(mt, scheduler, c);
    EXPECT_EQ(r.peak_concurrent_height, want) << "delay " << delay;
    EXPECT_EQ(peak_from_log(log, r.completion), want) << "delay " << delay;
  }
}

TEST(Engine, RejectsMisbehavingScheduler) {
  // A scheduler that emits boxes in the past must trip the validation.
  class BadScheduler final : public BoxScheduler {
   public:
    void start(const SchedulerContext&, const EngineView&) override {}
    BoxAssignment next_box(ProcId, Time now, const EngineView&) override {
      return BoxAssignment{1, now == 0 ? 0 : now - 1, now + 1};
    }
    const char* name() const override { return "BAD"; }
  };
  MultiTrace mt;
  mt.add(gen::single_use(10));
  BadScheduler bad;
  EXPECT_DEATH(run_parallel(mt, bad, config_for(4, 2)), "");
}

TEST(Engine, StallAccounting) {
  // A scheduler that always defers by 5 ticks accumulates stall.
  class Deferring final : public BoxScheduler {
   public:
    void start(const SchedulerContext& ctx, const EngineView&) override {
      s_ = ctx.miss_cost;
    }
    BoxAssignment next_box(ProcId, Time now, const EngineView&) override {
      return BoxAssignment{4, now + 5, now + 5 + 8 * s_};
    }
    const char* name() const override { return "DEFER"; }

   private:
    Time s_ = 1;
  };
  MultiTrace mt;
  mt.add(gen::single_use(16));
  Deferring scheduler;
  const ParallelRunResult r = run_parallel(mt, scheduler, config_for(8, 2));
  EXPECT_GE(r.total_stall, 5u);  // at least the first deferral
  EXPECT_EQ(r.misses, 16u);
}

}  // namespace
}  // namespace ppg
