// run_checked: scheduler misbehaviour and watchdog trips come back as
// structured RunStatus values instead of aborting the process, and a clean
// checked run is bit-identical to the legacy run().
#include <gtest/gtest.h>

#include <memory>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace ppg {
namespace {

MultiTrace tiny_multitrace() {
  MultiTrace mt;
  mt.add(test::make_trace({1, 2, 3, 1, 2, 3, 4, 5}));
  mt.add(test::make_trace({7, 8, 7, 8, 9}));
  return mt;
}

/// Issues boxes that stall forever — only the watchdog can stop the run.
class StallingScheduler final : public BoxScheduler {
 public:
  void start(const SchedulerContext&, const EngineView&) override {}
  BoxAssignment next_box(ProcId, Time now, const EngineView&) override {
    const Time far = now + (Time{1} << 50);
    return BoxAssignment{1, far, far + 8};
  }
  const char* name() const override { return "STALLER"; }
};

/// Returns a malformed (zero-height) box from request `malformed_at` on
/// (counting from 0; by default the second request).
class EventuallyMalformedScheduler final : public BoxScheduler {
 public:
  explicit EventuallyMalformedScheduler(int malformed_at = 1)
      : malformed_at_(malformed_at) {}
  void start(const SchedulerContext&, const EngineView&) override {}
  BoxAssignment next_box(ProcId, Time now, const EngineView&) override {
    if (calls_++ < malformed_at_) return BoxAssignment{4, now, now + 16};
    return BoxAssignment{0, now, now + 16};
  }
  const char* name() const override { return "MALFORMED"; }

 private:
  int malformed_at_;
  int calls_ = 0;
};

TEST(RunChecked, WatchdogReturnsStructuredTimeout) {
  const MultiTrace mt = tiny_multitrace();
  StallingScheduler scheduler;
  EngineConfig ec;
  ec.cache_size = 8;
  ec.miss_cost = 2;
  ec.max_time = 1 << 20;
  const CheckedRun run = run_parallel_checked(mt, scheduler, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kWatchdogTimeout);
  EXPECT_NE(run.status.error.message.find("max_time"), std::string::npos);
  EXPECT_TRUE(run.status.replay_dump_path.empty());  // no path configured
}

TEST(RunChecked, MalformedBoxReturnsContractViolation) {
  const MultiTrace mt = tiny_multitrace();
  EventuallyMalformedScheduler scheduler;
  EngineConfig ec;
  ec.cache_size = 8;
  ec.miss_cost = 2;
  const CheckedRun run = run_parallel_checked(mt, scheduler, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kContractViolation);
  EXPECT_NE(run.status.error.message.find("zero-height"), std::string::npos);
  EXPECT_NE(run.status.error.proc, kInvalidProc);
}

TEST(RunChecked, MalformedBoxMidBatchStillFoldsEarlierBoxes) {
  // Eight processors all request a box at t = 0; the scheduler's fourth
  // box (event 3 of that batch) is malformed. The boxes granted for
  // events 0..2 are still simulated and folded into the partial result.
  WorkloadParams wp;
  wp.num_procs = 8;
  wp.cache_size = 64;
  wp.requests_per_proc = 600;
  wp.seed = 11;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  EventuallyMalformedScheduler scheduler(3);
  EngineConfig ec;
  ec.cache_size = 64;
  ec.miss_cost = 4;
  const CheckedRun run = run_parallel_checked(mt, scheduler, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kContractViolation);
  EXPECT_EQ(run.status.error.proc, 3);
  EXPECT_EQ(run.status.error.time, Time{0});
  EXPECT_EQ(run.events_consumed, 4u);
  EXPECT_EQ(run.result.num_boxes, 3u);
  EXPECT_EQ(run.result.hits + run.result.misses, 15u);
}

TEST(RunChecked, EventBudgetReturnsStructuredExhaustion) {
  const MultiTrace mt = tiny_multitrace();
  auto scheduler = make_scheduler(SchedulerKind::kDetPar, 5);
  EngineConfig ec;
  ec.cache_size = 8;
  ec.miss_cost = 2;
  ec.max_events = 3;  // far fewer steps than the run needs
  const CheckedRun run = run_parallel_checked(mt, *scheduler, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kCellBudgetExceeded);
  EXPECT_NE(run.status.error.message.find("max_events"), std::string::npos);
}

TEST(RunChecked, EventBudgetIsDeterministic) {
  // The budget counts simulated steps, not wall-clock: two runs with the
  // same tight budget fail at the identical simulated time.
  const MultiTrace mt = tiny_multitrace();
  EngineConfig ec;
  ec.cache_size = 8;
  ec.miss_cost = 2;
  ec.max_events = 2;
  auto a = make_scheduler(SchedulerKind::kDetPar, 5);
  auto b = make_scheduler(SchedulerKind::kDetPar, 5);
  const CheckedRun first = run_parallel_checked(mt, *a, ec);
  const CheckedRun second = run_parallel_checked(mt, *b, ec);
  ASSERT_FALSE(first.status.ok());
  ASSERT_FALSE(second.status.ok());
  EXPECT_EQ(first.status.error.time, second.status.error.time);
  EXPECT_EQ(first.status.error.message, second.status.error.message);
}

TEST(RunChecked, GenerousEventBudgetDoesNotPerturbResults) {
  const MultiTrace mt = tiny_multitrace();
  EngineConfig ec;
  ec.cache_size = 8;
  ec.miss_cost = 2;
  auto unlimited = make_scheduler(SchedulerKind::kDetPar, 5);
  const CheckedRun want = run_parallel_checked(mt, *unlimited, ec);
  ASSERT_TRUE(want.status.ok());

  ec.max_events = std::uint64_t{1} << 40;
  auto budgeted = make_scheduler(SchedulerKind::kDetPar, 5);
  const CheckedRun got = run_parallel_checked(mt, *budgeted, ec);
  ASSERT_TRUE(got.status.ok()) << got.status.error.to_string();
  EXPECT_EQ(got.result.makespan, want.result.makespan);
  EXPECT_EQ(got.result.num_boxes, want.result.num_boxes);
}

TEST(RunChecked, CleanRunMatchesLegacyRun) {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 32;
  wp.requests_per_proc = 800;
  wp.seed = 6;
  wp.miss_cost = 4;
  const MultiTrace mt = make_workload(WorkloadKind::kZipf, wp);
  EngineConfig ec;
  ec.cache_size = 32;
  ec.miss_cost = 4;

  auto legacy = make_scheduler(SchedulerKind::kDetPar, 5);
  const ParallelRunResult want = run_parallel(mt, *legacy, ec);

  auto checked = make_scheduler(SchedulerKind::kDetPar, 5);
  const CheckedRun run = run_parallel_checked(mt, *checked, ec);
  ASSERT_TRUE(run.status.ok()) << run.status.error.to_string();
  EXPECT_EQ(run.result.makespan, want.makespan);
  EXPECT_EQ(run.result.num_boxes, want.num_boxes);
  EXPECT_EQ(run.result.hits, want.hits);
  EXPECT_EQ(run.result.misses, want.misses);
  EXPECT_EQ(run.result.peak_concurrent_height, want.peak_concurrent_height);
}

}  // namespace
}  // namespace ppg
