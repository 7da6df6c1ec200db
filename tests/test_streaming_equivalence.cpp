// Byte-identical-equivalence suite for the streaming pipeline: every
// scheduler, runner and harness entry point must produce exactly the same
// metrics whether the instance is materialized up front or pulled lazily
// from generator sources. Equivalence is by construction (the materialized
// builders drain the streaming cursors), and this suite pins it.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/contract.hpp"
#include "core/replay.hpp"
#include "core/scheduler_factory.hpp"
#include "bench_support/experiment.hpp"
#include "green/box_runner.hpp"
#include "green/policy_box_runner.hpp"
#include "opt/opt_bounds.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/trace_source.hpp"
#include "trace/trace_spec.hpp"
#include "trace/workload.hpp"
#include "util/error.hpp"

namespace ppg {
namespace {

void expect_same_result(const ParallelRunResult& a, const ParallelRunResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.completion, b.completion) << label;
  EXPECT_EQ(a.mean_completion, b.mean_completion) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.misses, b.misses) << label;
  EXPECT_EQ(a.num_boxes, b.num_boxes) << label;
  EXPECT_EQ(a.total_stall, b.total_stall) << label;
  EXPECT_EQ(a.total_impact, b.total_impact) << label;
  EXPECT_EQ(a.peak_concurrent_height, b.peak_concurrent_height) << label;
  EXPECT_EQ(a.effective_augmentation, b.effective_augmentation) << label;
}

WorkloadParams small_params() {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 500;
  wp.seed = 23;
  wp.miss_cost = 4;
  return wp;
}

TEST(StreamingEquivalence, EverySchedulerMatchesMaterialized) {
  const WorkloadParams wp = small_params();
  for (const WorkloadKind wkind :
       {WorkloadKind::kHeterogeneousMix, WorkloadKind::kCacheHungry}) {
    const MultiTrace traces = make_workload(wkind, wp);
    const MultiTraceSource sources = make_workload_source(wkind, wp);

    EngineConfig ec;
    ec.cache_size = wp.cache_size;
    ec.miss_cost = wp.miss_cost;
    ec.seed = 9;
    for (const SchedulerKind kind : all_scheduler_kinds()) {
      // Fresh scheduler per run: randomized schedulers must see identical
      // seeds and draw identical streams in both modes.
      const auto dense = make_scheduler(kind, /*seed=*/9);
      const ParallelRunResult a = run_parallel(traces, *dense, ec);
      const auto streamed = make_scheduler(kind, /*seed=*/9);
      const ParallelRunResult b = run_parallel(sources, *streamed, ec);
      expect_same_result(a, b, std::string(scheduler_kind_name(kind)) + "/" +
                                   workload_kind_name(wkind));
    }
  }
}

TEST(StreamingEquivalence, GlobalLruMatchesMaterialized) {
  const WorkloadParams wp = small_params();
  const MultiTrace traces = make_workload(WorkloadKind::kZipf, wp);
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kZipf, wp);
  GlobalLruConfig gc;
  gc.cache_size = wp.cache_size;
  gc.miss_cost = wp.miss_cost;
  expect_same_result(run_global_lru(traces, gc), run_global_lru(sources, gc),
                     "GLOBAL-LRU");
}

TEST(StreamingEquivalence, RunInstanceMatchesMaterialized) {
  const WorkloadParams wp = small_params();
  const MultiTrace traces = make_workload(WorkloadKind::kPollutedCycles, wp);
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kPollutedCycles, wp);

  ExperimentConfig config;
  config.cache_size = wp.cache_size;
  config.miss_cost = wp.miss_cost;
  config.seed = 3;
  const InstanceOutcome a =
      run_instance(traces, all_scheduler_kinds(), config);
  const InstanceOutcome b =
      run_instance(sources, all_scheduler_kinds(), config);

  EXPECT_EQ(a.bounds.lower_bound(), b.bounds.lower_bound());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].name, b.outcomes[i].name);
    EXPECT_EQ(a.outcomes[i].status.ok(), b.outcomes[i].status.ok());
    expect_same_result(a.outcomes[i].result, b.outcomes[i].result,
                       a.outcomes[i].name);
    EXPECT_EQ(a.outcomes[i].makespan_ratio, b.outcomes[i].makespan_ratio);
    EXPECT_EQ(a.outcomes[i].mean_ct_ratio, b.outcomes[i].mean_ct_ratio);
  }
}

TEST(StreamingEquivalence, OptBoundsMatchMaterialized) {
  const WorkloadParams wp = small_params();
  const MultiTrace traces = make_workload(WorkloadKind::kCacheHungry, wp);
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kCacheHungry, wp);
  OptBoundsConfig bc;
  bc.cache_size = wp.cache_size;
  bc.miss_cost = wp.miss_cost;
  const OptBounds a = compute_opt_bounds(traces, bc);
  const OptBounds b = compute_opt_bounds(sources, bc);
  EXPECT_EQ(a.lower_bound(), b.lower_bound());
  EXPECT_EQ(a.lb_max_length, b.lb_max_length);
  EXPECT_EQ(a.lb_max_single, b.lb_max_single);
  EXPECT_EQ(a.lb_impact, b.lb_impact);
}

// --- Stack-distance view -------------------------------------------------
//
// with_stack_distances() switches the box runner to its distance loop and
// the OPT bounds to the attached distances; neither may change an output.

struct BoxRecord {
  ProcId proc;
  BoxAssignment box;
};

std::vector<BoxRecord> record_run(const MultiTraceSource& sources,
                                  SchedulerKind kind, EngineConfig ec,
                                  CheckedRun& run) {
  std::vector<BoxRecord> boxes;
  ec.on_box = [&boxes](ProcId proc, const BoxAssignment& box) {
    boxes.push_back({proc, box});
  };
  const auto scheduler = make_validating(make_scheduler(kind, /*seed=*/9));
  run = run_parallel_checked(sources, *scheduler, ec);
  return boxes;
}

TEST(StreamingEquivalence, StackDistanceViewMatchesPlainView) {
  for (const ProcId p : {ProcId{4}, ProcId{32}}) {
    WorkloadParams wp = small_params();
    wp.num_procs = p;
    wp.cache_size = 8 * p;
    wp.requests_per_proc = 400;
    for (const WorkloadKind wkind :
         {WorkloadKind::kHeterogeneousMix, WorkloadKind::kCacheHungry,
          WorkloadKind::kPollutedCycles}) {
      const MultiTrace traces = make_workload(wkind, wp);
      const MultiTraceSource plain = traces;
      const MultiTraceSource view = plain.with_stack_distances();
      for (ProcId i = 0; i < p; ++i)
        ASSERT_NE(view.source(i).stack_distances(), nullptr);

      EngineConfig ec;
      ec.cache_size = wp.cache_size;
      ec.miss_cost = wp.miss_cost;
      ec.seed = 9;
      for (const SchedulerKind kind : all_scheduler_kinds()) {
        const std::string label = std::string(scheduler_kind_name(kind)) +
                                  "/" + workload_kind_name(wkind) + "/p=" +
                                  std::to_string(p);
        CheckedRun a;
        CheckedRun b;
        const std::vector<BoxRecord> boxes_a = record_run(plain, kind, ec, a);
        const std::vector<BoxRecord> boxes_b = record_run(view, kind, ec, b);
        ASSERT_TRUE(a.status.ok()) << label << a.status.error.to_string();
        ASSERT_TRUE(b.status.ok()) << label << b.status.error.to_string();
        expect_same_result(a.result, b.result, label);
        EXPECT_EQ(a.events_consumed, b.events_consumed) << label;
        ASSERT_EQ(boxes_a.size(), boxes_b.size()) << label;
        for (std::size_t j = 0; j < boxes_a.size(); ++j) {
          EXPECT_EQ(boxes_a[j].proc, boxes_b[j].proc) << label << " box " << j;
          EXPECT_EQ(boxes_a[j].box.height, boxes_b[j].box.height) << label;
          EXPECT_EQ(boxes_a[j].box.start, boxes_b[j].box.start) << label;
          EXPECT_EQ(boxes_a[j].box.end, boxes_b[j].box.end) << label;
          EXPECT_EQ(boxes_a[j].box.fresh, boxes_b[j].box.fresh) << label;
        }
      }
    }
  }
}

TEST(StreamingEquivalence, OptBoundsMatchOnStackDistanceView) {
  for (const WorkloadKind wkind :
       {WorkloadKind::kHeterogeneousMix, WorkloadKind::kCacheHungry,
        WorkloadKind::kPollutedCycles, WorkloadKind::kZipf}) {
    const MultiTrace traces = make_workload(wkind, small_params());
    const MultiTraceSource plain = traces;
    const MultiTraceSource view = plain.with_stack_distances();
    // Caches below and above the distinct counts: Belady with and without
    // evictions. At k = 16 the exact green-OPT impact term replaces the
    // stack-distance one as well.
    const std::pair<Height, std::size_t> cases[] = {
        {2, 0}, {16, 0}, {16, 500}, {4096, 0}};
    for (const auto& [cache, exact_max] : cases) {
      OptBoundsConfig bc;
      bc.cache_size = cache;
      bc.miss_cost = 4;
      bc.exact_impact_max_requests = exact_max;
      const OptBounds a = compute_opt_bounds(plain, bc);
      const OptBounds b = compute_opt_bounds(view, bc);
      EXPECT_EQ(a.lb_max_length, b.lb_max_length) << cache;
      EXPECT_EQ(a.lb_max_single, b.lb_max_single) << cache;
      EXPECT_EQ(a.lb_impact, b.lb_impact) << cache << "/" << exact_max;
    }
  }
}

TEST(StreamingEquivalence, StackDistancesPassLazySourcesThrough) {
  const WorkloadParams wp = small_params();
  const MultiTraceSource lazy =
      make_workload_source(WorkloadKind::kHeterogeneousMix, wp);
  const MultiTraceSource view = lazy.with_stack_distances();
  ASSERT_EQ(view.num_procs(), lazy.num_procs());
  for (ProcId i = 0; i < lazy.num_procs(); ++i) {
    EXPECT_EQ(view.source_ptr(i), lazy.source_ptr(i));
    EXPECT_EQ(view.source(i).stack_distances(), nullptr);
  }

  // A resident trace holding the reserved sentinel keeps its cursor (and
  // with it the corrupt-trace screen); so does a source already carrying
  // distances.
  Trace hostile = gen::cyclic(4, 20);
  hostile.mutable_requests()[7] = kInvalidPage;
  const auto plain = VectorTraceSource::view(hostile);
  EXPECT_EQ(with_stack_distances(plain), plain);
  const Trace clean = gen::cyclic(4, 20);
  const auto attached = with_stack_distances(VectorTraceSource::view(clean));
  ASSERT_NE(attached->stack_distances(), nullptr);
  EXPECT_EQ(with_stack_distances(attached), attached);
  EXPECT_EQ(attached->materialized(), &clean);
}

TEST(StreamingEquivalence, RunProfileMatchesOverGeneratorSource) {
  Rng rng(41);
  const auto source = gen::zipf_source(30, 600, 1.0, rng);
  const Trace trace = materialize(*source);

  BoxProfile profile;
  for (int i = 0; i < 128; ++i)
    profile.push_back(canonical_box(static_cast<Height>(1u << (i % 5)), 64));

  const ProfileRunResult a = run_profile(trace, profile, /*miss_cost=*/8);
  const ProfileRunResult b = run_profile(*source, profile, /*miss_cost=*/8);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.impact, b.impact);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.boxes_used, b.boxes_used);
}

TEST(StreamingEquivalence, StreamingBeladyIsRejected) {
  const Trace trace = gen::cyclic(4, 20);
  const auto view = VectorTraceSource::view(trace);
  // A materialized source hands Belady its whole trace; a lazy one cannot.
  PolicyBoxRunner ok(*view, /*miss_cost=*/2, PolicyKind::kBelady);
  const auto lazy = gen::cyclic_source(4, 20);
  EXPECT_DEATH(PolicyBoxRunner(*lazy, 2, PolicyKind::kBelady), "");
}

// --- Replay dump v2 --------------------------------------------------------

TEST(ReplayDumpV2, SpecBackedDumpRoundTripsWithoutVectors) {
  ReplayDump dump;
  dump.cache_size = 32;
  dump.miss_cost = 8;
  dump.seed = 5;
  dump.scheduler_spec = "DET-PAR";
  dump.trace_spec = "workload(kind=zipf,p=2,k=32,n=100,seed=5,s=8)";
  dump.has_traces = false;
  dump.reason = Error{};

  const std::string path = test::unique_temp_path("spec_dump.ppgreplay");
  save_replay_dump(path, dump);
  const ReplayDump back = load_replay_dump(path);
  EXPECT_EQ(back.trace_spec, dump.trace_spec);
  EXPECT_FALSE(back.has_traces);
  EXPECT_EQ(back.traces.num_procs(), 0u);
  EXPECT_EQ(back.scheduler_spec, "DET-PAR");

  // Replay regenerates the instance from the spec and completes clean.
  const CheckedRun rerun = run_replay(back);
  EXPECT_TRUE(rerun.status.ok());
  EXPECT_GT(rerun.result.makespan, 0u);
  std::remove(path.c_str());
}

TEST(ReplayDumpV2, SpecBackedReplayMatchesEmbeddedReplay) {
  WorkloadParams wp;
  wp.num_procs = 2;
  wp.cache_size = 32;
  wp.requests_per_proc = 100;
  wp.seed = 5;
  wp.miss_cost = 8;

  ReplayDump embedded;
  embedded.cache_size = 32;
  embedded.miss_cost = 8;
  embedded.seed = 5;
  embedded.scheduler_spec = "DET-PAR";
  embedded.traces = make_workload(WorkloadKind::kZipf, wp);

  ReplayDump spec_backed = embedded;
  spec_backed.traces = MultiTrace{};
  spec_backed.has_traces = false;
  spec_backed.trace_spec = workload_trace_spec(WorkloadKind::kZipf, wp);

  const CheckedRun a = run_replay(embedded);
  const CheckedRun b = run_replay(spec_backed);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.result.makespan, b.result.makespan);
  EXPECT_EQ(a.result.misses, b.result.misses);
  EXPECT_EQ(a.result.completion, b.result.completion);
}

TEST(ReplayDumpV2, DumpWithNeitherTracesNorSpecIsNotReplayable) {
  ReplayDump dump;
  dump.cache_size = 8;
  dump.scheduler_spec = "EQUI";
  dump.has_traces = false;
  try {
    run_replay(dump);
    FAIL() << "replayed a dump with no traces and no spec";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
  }
}

TEST(ReplayDumpV2, EngineRecordsSpecInsteadOfVectors) {
  WorkloadParams wp;
  wp.num_procs = 2;
  wp.cache_size = 8;
  wp.requests_per_proc = 200;
  wp.seed = 3;
  wp.miss_cost = 4;

  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = wp.miss_cost;
  ec.scheduler_spec = "RAND-PAR";
  ec.trace_spec = workload_trace_spec(WorkloadKind::kHomogeneousCyclic, wp);
  ec.replay_dump_path = test::unique_temp_path("engine_spec.ppgreplay");
  // Force a watchdog failure so the engine writes a dump.
  ec.max_time = 1;

  const auto scheduler = make_scheduler(SchedulerKind::kRandPar, 3);
  const CheckedRun run = run_parallel_checked(
      make_workload_source(WorkloadKind::kHomogeneousCyclic, wp), *scheduler,
      ec);
  ASSERT_FALSE(run.status.ok());
  ASSERT_FALSE(run.status.replay_dump_path.empty());

  const ReplayDump dump = load_replay_dump(run.status.replay_dump_path);
  EXPECT_FALSE(dump.has_traces);
  EXPECT_EQ(dump.trace_spec, ec.trace_spec);
  EXPECT_EQ(dump.traces.num_procs(), 0u);
  std::remove(run.status.replay_dump_path.c_str());
}

}  // namespace
}  // namespace ppg
