// Failure replay dumps.
//
// When a checked run fails — a scheduler contract violation or a watchdog
// timeout — the engine serializes everything needed to re-execute the
// exact failing run: the workload, the engine geometry (k, s, max_time),
// the scheduler factory spec, and the seed. The dump is a single binary
// file (magic "PPGRPLAY", version 2). The workload is recorded one of two
// ways:
//  - as a generator spec (see make_source_from_trace_spec) when the run
//    was built from one — the dump stays a few hundred bytes and replay
//    regenerates the exact traces from (spec, seed);
//  - as the full multitrace in the standard trace_io format otherwise, so
//    external tools can also extract the traces.
// Version-1 dumps (always full vectors) remain readable.
// examples/replay_dump loads a dump and re-executes it under a fresh
// ValidatingScheduler, confirming the recorded failure reproduces.
#pragma once

#include <iosfwd>
#include <string>

#include "core/contract.hpp"
#include "core/parallel_engine.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace ppg {

struct ReplayDump {
  Height cache_size = 0;
  Time miss_cost = 2;
  Time max_time = Time{1} << 60;
  std::uint64_t seed = 0;
  /// Scheduler factory spec (see make_scheduler_from_spec), e.g.
  /// "RAND-PAR" or "INJECT(excessive-stall,DET-PAR)".
  std::string scheduler_spec;
  /// What triggered the dump.
  Error reason;
  /// Generator spec of the workload; replay regenerates the traces from it
  /// when `has_traces` is false. Empty when the workload was hand-built.
  std::string trace_spec;
  /// Whether `traces` below holds the request vectors. False for
  /// spec-backed dumps and for oversized streamed runs with no spec (the
  /// failure is still recorded; the run is not replayable).
  bool has_traces = true;
  MultiTrace traces;
};

void write_replay_dump(std::ostream& os, const ReplayDump& dump);
ReplayDump read_replay_dump(std::istream& is);
void save_replay_dump(const std::string& path, const ReplayDump& dump);
ReplayDump load_replay_dump(const std::string& path);

/// Rebuilds the scheduler from the dump's spec (wrapped in a
/// ValidatingScheduler so contract violations are re-detected, not
/// re-crashed) and re-executes the run with run_parallel_checked. The
/// returned status reproduces the recorded failure when the run is
/// deterministic.
CheckedRun run_replay(const ReplayDump& dump,
                      const ValidatorConfig& validator = {});

}  // namespace ppg
