// EngineConfig::engine_threads is a pure throughput knob: the batched
// threaded event loop must produce byte-identical results — every metric,
// the completion vector, the memory-timeline peak, and every structured
// failure (watchdog, event budget, contract violation, replay dump) — at
// every thread count, for materialized and streamed instances alike.
// scripts/tier1.sh races this suite under TSan.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/parallel_sweep.hpp"
#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"
#include "util/interrupt.hpp"
#include "util/thread_pool.hpp"

namespace ppg {
namespace {

std::vector<std::size_t> thread_counts() {
  return {0, 2, 4, ThreadPool::hardware_jobs()};
}

WorkloadParams study_params() {
  WorkloadParams wp;
  wp.num_procs = 8;
  wp.cache_size = 64;
  wp.requests_per_proc = 600;
  wp.seed = 11;
  return wp;
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

void expect_identical_failure(const CheckedRun& got, const CheckedRun& want,
                              const std::string& label) {
  ASSERT_FALSE(got.status.ok()) << label;
  ASSERT_FALSE(want.status.ok()) << label;
  EXPECT_EQ(got.status.error.code, want.status.error.code) << label;
  EXPECT_EQ(got.status.error.message, want.status.error.message) << label;
  EXPECT_EQ(got.status.error.proc, want.status.error.proc) << label;
  EXPECT_EQ(got.status.error.time, want.status.error.time) << label;
  expect_identical(got.result, want.result, label);
}

/// Builds a fresh scheduler for (kind-ish) name: the facade and stateful
/// schedulers must be rebuilt per run so every run starts identically.
std::unique_ptr<BoxScheduler> build(const std::string& name,
                                    std::uint64_t seed) {
  if (name == "GLOBAL-LRU") return make_global_lru_box_facade();
  if (name == "RAND-PAR") return make_scheduler(SchedulerKind::kRandPar, seed);
  return make_scheduler(SchedulerKind::kDetPar, seed);
}

TEST(EngineThreads, MaterializedRunsMatchSerialAtEveryThreadCount) {
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix, study_params());
  for (const std::string name : {"DET-PAR", "RAND-PAR", "GLOBAL-LRU"}) {
    EngineConfig ec;
    ec.cache_size = study_params().cache_size;
    ec.miss_cost = 4;
    auto serial_sched = build(name, 3);
    const ParallelRunResult want = run_parallel(mt, *serial_sched, ec);
    for (const std::size_t threads : thread_counts()) {
      ec.engine_threads = threads;
      auto sched = build(name, 3);
      const ParallelRunResult got = run_parallel(mt, *sched, ec);
      expect_identical(got, want,
                       name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(EngineThreads, StreamedRunsMatchSerialAtEveryThreadCount) {
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, study_params());
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix, study_params());
  for (const std::string name : {"DET-PAR", "RAND-PAR", "GLOBAL-LRU"}) {
    EngineConfig ec;
    ec.cache_size = study_params().cache_size;
    ec.miss_cost = 4;
    // The materialized serial run is the single reference: streamed and
    // threaded must both land on it exactly.
    auto ref_sched = build(name, 3);
    const ParallelRunResult want = run_parallel(mt, *ref_sched, ec);
    for (const std::size_t threads : thread_counts()) {
      ec.engine_threads = threads;
      auto sched = build(name, 3);
      const ParallelRunResult got = run_parallel(sources, *sched, ec);
      expect_identical(got, want, name + " streamed threads=" +
                                      std::to_string(threads));
    }
  }
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

/// Returns a malformed (zero-height) box on the n-th request.
class EventuallyMalformedScheduler final : public BoxScheduler {
 public:
  explicit EventuallyMalformedScheduler(int malformed_at)
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

TEST(EngineThreads, WatchdogFailureIdenticalUnderThreads) {
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix, study_params());
  EngineConfig ec;
  ec.cache_size = study_params().cache_size;
  ec.miss_cost = 4;
  ec.max_time = 1 << 16;
  StallingScheduler serial_sched;
  const CheckedRun want = run_parallel_checked(mt, serial_sched, ec);
  ASSERT_EQ(want.status.error.code, ErrorCode::kWatchdogTimeout);
  for (const std::size_t threads : thread_counts()) {
    ec.engine_threads = threads;
    StallingScheduler sched;
    const CheckedRun got = run_parallel_checked(mt, sched, ec);
    expect_identical_failure(got, want,
                             "watchdog threads=" + std::to_string(threads));
  }
}

TEST(EngineThreads, EventBudgetFailureIdenticalUnderThreads) {
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix, study_params());
  EngineConfig ec;
  ec.cache_size = study_params().cache_size;
  ec.miss_cost = 4;
  // Fails mid-batch: with p=8 processors the time-0 batch alone holds 8
  // events, so the prefix-fold path (not just the batch boundary) is hit.
  ec.max_events = 5;
  auto serial_sched = make_scheduler(SchedulerKind::kDetPar, 3);
  const CheckedRun want = run_parallel_checked(mt, *serial_sched, ec);
  ASSERT_EQ(want.status.error.code, ErrorCode::kCellBudgetExceeded);
  for (const std::size_t threads : thread_counts()) {
    ec.engine_threads = threads;
    auto sched = make_scheduler(SchedulerKind::kDetPar, 3);
    const CheckedRun got = run_parallel_checked(mt, *sched, ec);
    expect_identical_failure(got, want,
                             "budget threads=" + std::to_string(threads));
  }
}

TEST(EngineThreads, ContractViolationIdenticalUnderThreads) {
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix, study_params());
  EngineConfig ec;
  ec.cache_size = study_params().cache_size;
  ec.miss_cost = 4;
  // Malformed mid-batch at the very first step: events 0..2 of the time-0
  // batch are folded, event 3 fails.
  EventuallyMalformedScheduler serial_sched(3);
  const CheckedRun want = run_parallel_checked(mt, serial_sched, ec);
  ASSERT_EQ(want.status.error.code, ErrorCode::kContractViolation);
  for (const std::size_t threads : thread_counts()) {
    ec.engine_threads = threads;
    EventuallyMalformedScheduler sched(3);
    const CheckedRun got = run_parallel_checked(mt, sched, ec);
    expect_identical_failure(got, want,
                             "contract threads=" + std::to_string(threads));
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(EngineThreads, ReplayDumpByteIdenticalUnderThreads) {
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix, study_params());
  EngineConfig ec;
  ec.cache_size = study_params().cache_size;
  ec.miss_cost = 4;
  ec.max_time = 1 << 16;
  const std::string serial_path = test::unique_temp_path("serial.ppgreplay");
  ec.replay_dump_path = serial_path;
  StallingScheduler serial_sched;
  const CheckedRun want = run_parallel_checked(mt, serial_sched, ec);
  ASSERT_EQ(want.status.replay_dump_path, ec.replay_dump_path);
  const std::string want_bytes = slurp(ec.replay_dump_path);
  ASSERT_FALSE(want_bytes.empty());

  ec.engine_threads = 4;
  ec.replay_dump_path = test::unique_temp_path("par.ppgreplay");
  StallingScheduler sched;
  const CheckedRun got = run_parallel_checked(mt, sched, ec);
  ASSERT_EQ(got.status.replay_dump_path, ec.replay_dump_path);
  EXPECT_EQ(slurp(ec.replay_dump_path), want_bytes);
  std::remove(serial_path.c_str());
  std::remove(ec.replay_dump_path.c_str());
}

TEST(EngineThreads, InterruptedSweepDrainsWholeThreadedCells) {
  // Drain-and-stop interruption operates at the sweep-cell level; a cell
  // whose engine fans out across threads must still complete whole, with
  // the same kInterrupted surface as serial cells.
  clear_interrupt();
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix, study_params());
  EngineConfig ec;
  ec.cache_size = study_params().cache_size;
  ec.miss_cost = 4;
  auto ref_sched = make_scheduler(SchedulerKind::kDetPar, 3);
  const ParallelRunResult want = run_parallel(mt, *ref_sched, ec);

  ec.engine_threads = 4;
  ParallelRunResult first;
  bool have_first = false;
  bool interrupted = false;
  try {
    sweep_cells(1, 4, [&](std::size_t i) {
      // Interrupt while the first threaded cell is in flight: the engine's
      // internal fan-out ignores the flag, so the cell completes whole and
      // only the executor stops claiming further cells.
      if (i == 0) request_interrupt();
      auto sched = make_scheduler(SchedulerKind::kDetPar, 3);
      const ParallelRunResult r = run_parallel(mt, *sched, ec);
      if (i == 0) {
        first = r;
        have_first = true;
      }
      return r;
    });
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kInterrupted);
    interrupted = true;
  }
  EXPECT_TRUE(interrupted);
  ASSERT_TRUE(have_first);
  expect_identical(first, want, "interrupted threaded cell");
  clear_interrupt();
}

}  // namespace
}  // namespace ppg
