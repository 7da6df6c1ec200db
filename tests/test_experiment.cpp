#include <gtest/gtest.h>

#include <cmath>

#include "bench_support/experiment.hpp"
#include "core/contract.hpp"
#include "core/parallel_engine.hpp"
#include "core/replay.hpp"
#include "trace/workload.hpp"

namespace ppg {
namespace {

TEST(RunInstance, ProducesRatiosForAllSchedulers) {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 600;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);

  ExperimentConfig config;
  config.cache_size = 16;
  config.miss_cost = 4;
  const InstanceOutcome outcome =
      run_instance(mt, all_scheduler_kinds(), config);

  EXPECT_EQ(outcome.outcomes.size(), all_scheduler_kinds().size() + 1);
  for (const SchedulerOutcome& so : outcome.outcomes) {
    EXPECT_GE(so.makespan_ratio, 1.0) << so.name;
    EXPECT_GT(so.result.makespan, 0u) << so.name;
    EXPECT_LE(so.mean_ct_ratio, so.makespan_ratio + 1e-9) << so.name;
  }
}

TEST(RunInstance, GlobalLruCanBeExcluded) {
  WorkloadParams wp;
  wp.num_procs = 2;
  wp.cache_size = 8;
  wp.requests_per_proc = 200;
  const MultiTrace mt = make_workload(WorkloadKind::kZipf, wp);
  ExperimentConfig config;
  config.cache_size = 8;
  config.miss_cost = 2;
  config.include_global_lru = false;
  const InstanceOutcome outcome =
      run_instance(mt, {SchedulerKind::kDetPar}, config);
  EXPECT_EQ(outcome.outcomes.size(), 1u);
  EXPECT_EQ(outcome.outcomes[0].name, "DET-PAR");
}

// A faulty scheduler must cost exactly its own cell, not the sweep: every
// box-scheduler cell reports a structured failure plus a replay dump, the
// GLOBAL-LRU baseline still completes, and a dump re-executes to the same
// violation.
TEST(RunInstance, CapturesPerCellFailuresFromInjectedFaults) {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 500;
  const MultiTrace mt = make_workload(WorkloadKind::kZipf, wp);

  ExperimentConfig config;
  config.cache_size = 16;
  config.miss_cost = 4;
  FaultInjectionConfig fault;
  fault.fault = FaultClass::kZeroHeight;
  config.inject_fault = fault;
  config.replay_dump_dir = ::testing::TempDir();

  const InstanceOutcome outcome =
      run_instance(mt, all_scheduler_kinds(), config);
  ASSERT_EQ(outcome.outcomes.size(), all_scheduler_kinds().size() + 1);
  EXPECT_EQ(outcome.num_failed(), all_scheduler_kinds().size());

  for (const SchedulerOutcome& so : outcome.outcomes) {
    if (so.name == "GLOBAL-LRU") {
      // The shared-pool baseline is simulated directly; the injected box
      // fault cannot reach it.
      EXPECT_TRUE(so.status.ok()) << so.status.error.to_string();
      EXPECT_GT(so.makespan_ratio, 0.0);
      continue;
    }
    EXPECT_FALSE(so.status.ok()) << so.name;
    EXPECT_EQ(so.status.error.code, ErrorCode::kContractViolation) << so.name;
    EXPECT_FALSE(so.status.replay_dump_path.empty()) << so.name;
    EXPECT_EQ(so.makespan_ratio, 0.0) << so.name;

    const ReplayDump dump = load_replay_dump(so.status.replay_dump_path);
    EXPECT_EQ(dump.scheduler_spec,
              std::string("INJECT(zero-height,") + so.name + ")");
    const CheckedRun rerun = run_replay(dump);
    ASSERT_FALSE(rerun.status.ok()) << so.name;
    EXPECT_EQ(rerun.status.error.code, ErrorCode::kContractViolation)
        << so.name;
  }
}

// A resident trace holding the reserved kInvalidPage is rejected when its
// stack distances are attached, so every box-scheduler cell fails before
// any simulation (no time), with the same code, proc and position as the
// box runner's corrupt-trace screen reports on a run of the plain view.
TEST(RunInstance, HostilePageInMaterializedTraceIsCorrupt) {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 300;
  std::vector<Trace> traces =
      make_workload(WorkloadKind::kHeterogeneousMix, wp).traces();
  traces[2].mutable_requests()[123] = kInvalidPage;
  const MultiTrace mt(std::move(traces));

  ExperimentConfig config;
  config.cache_size = 16;
  config.miss_cost = 4;
  config.include_global_lru = false;
  const InstanceOutcome outcome =
      run_instance(mt, all_scheduler_kinds(), config);
  ASSERT_EQ(outcome.outcomes.size(), all_scheduler_kinds().size());
  EXPECT_EQ(outcome.num_failed(), all_scheduler_kinds().size());

  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 4;
  for (std::size_t i = 0; i < outcome.outcomes.size(); ++i) {
    const SchedulerOutcome& so = outcome.outcomes[i];
    const auto scheduler =
        make_validating(make_scheduler(all_scheduler_kinds()[i], config.seed));
    const CheckedRun plain = run_parallel_checked(mt, *scheduler, ec);
    ASSERT_FALSE(plain.status.ok()) << so.name;
    const Error& got = so.status.error;
    EXPECT_EQ(got.code, ErrorCode::kCorruptTrace) << so.name;
    EXPECT_EQ(got.proc, 2u) << so.name;
    EXPECT_EQ(got.byte_offset, 123u) << so.name;
    EXPECT_EQ(got.code, plain.status.error.code) << so.name;
    EXPECT_EQ(got.proc, plain.status.error.proc) << so.name;
    EXPECT_EQ(got.byte_offset, plain.status.error.byte_offset) << so.name;
    EXPECT_EQ(got.time, kTimeInfinity) << so.name;
  }
}

TEST(RunInstance, CellBudgetSurfacesAsStructuredOutcome) {
  WorkloadParams wp;
  wp.num_procs = 2;
  wp.cache_size = 8;
  wp.requests_per_proc = 200;
  const MultiTrace mt = make_workload(WorkloadKind::kZipf, wp);
  ExperimentConfig config;
  config.cache_size = 8;
  config.miss_cost = 2;
  config.include_global_lru = false;
  config.cell_event_budget = 4;  // far fewer engine steps than needed
  const InstanceOutcome outcome =
      run_instance(mt, {SchedulerKind::kDetPar}, config);
  ASSERT_EQ(outcome.outcomes.size(), 1u);
  EXPECT_FALSE(outcome.outcomes[0].status.ok());
  EXPECT_EQ(outcome.outcomes[0].status.error.code,
            ErrorCode::kCellBudgetExceeded);
  EXPECT_EQ(outcome.num_failed(), 1u);
}

TEST(ScalingCollector, FitsPerScheduler) {
  ScalingCollector collector;
  for (double p : {2.0, 4.0, 8.0, 16.0}) {
    collector.add("A", p, 1.0 * std::log2(p) + 2.0);
    collector.add("B", p, 3.0);
  }
  const Table table = collector.fit_table();
  ASSERT_EQ(table.num_rows(), 2u);
  // Scheduler A grows logarithmically with unit slope; B is flat.
  EXPECT_EQ(table.at(0, 0), "A");
  EXPECT_NEAR(std::stod(table.at(0, 1)), 1.0, 0.01);
  EXPECT_NEAR(std::stod(table.at(1, 1)), 0.0, 0.01);
}

}  // namespace
}  // namespace ppg
