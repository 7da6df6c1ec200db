// Failure replay dumps: lossless round-trip, engine-written dumps on
// violations and watchdog trips, dumps of runs whose own streams break,
// re-execution reproducing the recorded failure, and rejection of corrupt
// dumps.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/parallel_engine.hpp"
#include "core/replay.hpp"
#include "core/scheduler_factory.hpp"
#include "test_helpers.hpp"
#include "trace/fault_source.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"

namespace ppg {
namespace {

MultiTrace small_workload() {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 300;
  wp.seed = 2;
  wp.miss_cost = 4;
  return make_workload(WorkloadKind::kZipf, wp);
}

// Byte offset of the error-code byte: magic(8) + version(4) + four u64
// fields (32) + the scheduler spec's u32 length and its bytes.
std::size_t error_code_offset(const ReplayDump& dump) {
  return 8 + 4 + 4 * 8 + 4 + dump.scheduler_spec.size();
}

ReplayDump sample_dump() {
  ReplayDump dump;
  dump.cache_size = 16;
  dump.miss_cost = 4;
  dump.max_time = 123456;
  dump.seed = 42;
  dump.scheduler_spec = "DET-PAR";
  dump.reason.code = ErrorCode::kContractViolation;
  dump.reason.message = "zero-height: box{h=0, [5, 9)} requested at t=5";
  dump.reason.proc = 1;
  dump.reason.time = 99;
  dump.traces = small_workload();
  return dump;
}

TEST(Replay, RoundTripPreservesEverything) {
  const ReplayDump dump = sample_dump();
  std::stringstream buffer;
  write_replay_dump(buffer, dump);
  const ReplayDump back = read_replay_dump(buffer);
  EXPECT_EQ(back.cache_size, dump.cache_size);
  EXPECT_EQ(back.miss_cost, dump.miss_cost);
  EXPECT_EQ(back.max_time, dump.max_time);
  EXPECT_EQ(back.seed, dump.seed);
  EXPECT_EQ(back.scheduler_spec, dump.scheduler_spec);
  EXPECT_EQ(back.reason.code, dump.reason.code);
  EXPECT_EQ(back.reason.message, dump.reason.message);
  EXPECT_EQ(back.reason.proc, dump.reason.proc);
  EXPECT_EQ(back.reason.time, dump.reason.time);
  EXPECT_TRUE(back.traces.traces() == dump.traces.traces());
}

TEST(Replay, EngineWritesDumpOnViolationAndReplayReproduces) {
  const MultiTrace mt = small_workload();
  const std::string spec = "VALIDATE(INJECT(zero-height,DET-PAR))";
  auto scheduler = make_scheduler_from_spec(spec, 9);
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 4;
  ec.seed = 9;
  ec.scheduler_spec = spec;
  ec.replay_dump_path = test::unique_temp_path("violation.ppgreplay");

  const CheckedRun run = run_parallel_checked(mt, *scheduler, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kContractViolation);
  ASSERT_EQ(run.status.replay_dump_path, ec.replay_dump_path);

  const ReplayDump dump = load_replay_dump(run.status.replay_dump_path);
  EXPECT_EQ(dump.scheduler_spec, spec);
  EXPECT_EQ(dump.seed, 9u);
  EXPECT_EQ(dump.reason.code, ErrorCode::kContractViolation);
  EXPECT_TRUE(dump.traces.traces() == mt.traces());

  // Deterministic seeds: the re-execution must fail identically, down to
  // the violation text.
  const CheckedRun rerun = run_replay(dump);
  ASSERT_FALSE(rerun.status.ok());
  EXPECT_EQ(rerun.status.error.code, dump.reason.code);
  EXPECT_EQ(rerun.status.error.message, dump.reason.message);
  EXPECT_EQ(rerun.status.error.proc, dump.reason.proc);
  EXPECT_EQ(rerun.status.error.time, dump.reason.time);
}

TEST(Replay, WatchdogTripWritesDumpAndReplayReproduces) {
  const MultiTrace mt = small_workload();
  const std::string spec = "INJECT(excessive-stall,RAND-PAR)";
  auto scheduler = make_scheduler_from_spec(spec, 9);
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 4;
  ec.max_time = Time{1} << 20;  // the injected stall is 2^40 ticks
  ec.seed = 9;
  ec.scheduler_spec = spec;
  ec.replay_dump_path = test::unique_temp_path("watchdog.ppgreplay");

  const CheckedRun run = run_parallel_checked(mt, *scheduler, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kWatchdogTimeout);
  ASSERT_FALSE(run.status.replay_dump_path.empty());

  const ReplayDump dump = load_replay_dump(run.status.replay_dump_path);
  EXPECT_EQ(dump.max_time, ec.max_time);
  const CheckedRun rerun = run_replay(dump);
  ASSERT_FALSE(rerun.status.ok());
  EXPECT_EQ(rerun.status.error.code, ErrorCode::kWatchdogTimeout);
}

TEST(Replay, DumpWriteFailureDoesNotMaskTheRunFailure) {
  const MultiTrace mt = small_workload();
  auto scheduler = make_scheduler_from_spec("INJECT(zero-height,DET-PAR)", 9);
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 4;
  ec.replay_dump_path = "/nonexistent-ppg-dir/replay.ppgreplay";
  const CheckedRun run = run_parallel_checked(mt, *scheduler, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kContractViolation);
  EXPECT_TRUE(run.status.replay_dump_path.empty());
}

/// Runs STATIC over a healthy tenant plus one carrying `fault`, with a
/// replay dump requested and no trace spec, so the dump must drain the
/// sources themselves. run_parallel_checked must come back with the run's
/// own structured status: the drain may neither throw nor spin.
CheckedRun run_with_broken_stream(const TraceFaultSpec& fault,
                                  std::uint64_t max_events,
                                  const std::string& dump_path) {
  MultiTraceSource sources;
  sources.add(gen::cyclic_source(6, 80));
  sources.add(
      make_fault_injecting_source(gen::cyclic_source(8, 100), fault));
  auto scheduler = make_scheduler(SchedulerKind::kStatic, 0);
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 2;
  ec.max_events = max_events;
  ec.replay_dump_path = dump_path;
  return run_parallel_checked(sources, *scheduler, ec);
}

TEST(Replay, DumpOfFailingStreamKeepsTheRunStatus) {
  const std::string path = test::unique_temp_path("fail.ppgreplay");
  CheckedRun run;
  ASSERT_NO_THROW(run = run_with_broken_stream(
                      {TraceFaultClass::kFail, 10}, 0, path));
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(run.status.error.proc, 1);
  ASSERT_EQ(run.status.replay_dump_path, path);
  const ReplayDump dump = load_replay_dump(path);
  EXPECT_FALSE(dump.has_traces);  // the failing source cannot be embedded
  EXPECT_EQ(dump.reason.code, ErrorCode::kCorruptTrace);
  std::remove(path.c_str());
}

TEST(Replay, DumpOfStalledStreamKeepsTheRunStatus) {
  const std::string path = test::unique_temp_path("stall.ppgreplay");
  CheckedRun run;
  ASSERT_NO_THROW(run = run_with_broken_stream(
                      {TraceFaultClass::kStall, 10}, 200, path));
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kCellBudgetExceeded);
  ASSERT_EQ(run.status.replay_dump_path, path);
  const ReplayDump dump = load_replay_dump(path);
  EXPECT_FALSE(dump.has_traces);  // the stalled source cannot be drained
  EXPECT_EQ(dump.reason.code, ErrorCode::kCellBudgetExceeded);
  std::remove(path.c_str());
}

TEST(Replay, CorruptDumpsAreRejectedStructurally) {
  std::stringstream buffer;
  write_replay_dump(buffer, sample_dump());
  const std::string bytes = buffer.str();

  {  // Bad magic.
    std::string bad = bytes;
    bad[0] = 'X';
    std::istringstream is(bad);
    EXPECT_THROW(read_replay_dump(is), PpgException);
  }
  {  // Truncation in the middle of the header and of the trace payload.
    for (const std::size_t cut : {std::size_t{10}, bytes.size() / 2}) {
      std::istringstream is(bytes.substr(0, cut));
      try {
        read_replay_dump(is);
        FAIL() << "accepted a dump truncated to " << cut << " bytes";
      } catch (const PpgException& e) {
        EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
      }
    }
  }
  {  // Oversized declared string length must not allocate.
    // The spec-length u32 sits right after magic(8) + version(4) + four
    // u64 fields (32).
    std::string bad = bytes;
    const std::size_t spec_len_at = 8 + 4 + 4 * 8;
    bad[spec_len_at + 0] = '\xff';
    bad[spec_len_at + 1] = '\xff';
    bad[spec_len_at + 2] = '\xff';
    bad[spec_len_at + 3] = '\xff';
    std::istringstream is(bad);
    try {
      read_replay_dump(is);
      FAIL() << "accepted an oversized string length";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
      EXPECT_NE(e.error().message.find("oversized"), std::string::npos);
    }
  }
}

TEST(Replay, UnknownErrorCodesAreRejected) {
  const ReplayDump dump = sample_dump();
  std::stringstream buffer;
  write_replay_dump(buffer, dump);
  const std::string bytes = buffer.str();
  // 200 is past the last code; 9 and 10 are retired numbers.
  for (const int code : {200, 9, 10}) {
    std::string bad = bytes;
    bad[error_code_offset(dump)] = static_cast<char>(code);
    std::istringstream is(bad);
    try {
      read_replay_dump(is);
      FAIL() << "accepted error code " << code;
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    }
  }
}

TEST(Replay, TenantDeadlineCodeRoundTrips) {
  ReplayDump dump = sample_dump();
  dump.reason.code = ErrorCode::kTenantDeadlineExceeded;
  std::stringstream buffer;
  write_replay_dump(buffer, dump);
  EXPECT_EQ(buffer.str()[error_code_offset(dump)], 12);
  const ReplayDump back = read_replay_dump(buffer);
  EXPECT_EQ(back.reason.code, ErrorCode::kTenantDeadlineExceeded);
}

}  // namespace
}  // namespace ppg
