// Parallel sweep executor for the benchmark harness.
//
// Every experiment in the index is a sweep over independent cells —
// (instance x scheduler x seed) — with no shared mutable state between
// cells. This layer enumerates cells up front, runs them concurrently on a
// fixed-size thread pool (util/thread_pool.hpp), and reassembles outcomes
// in deterministic enumeration order.
//
// Determinism contract (tested by tests/test_parallel_sweep.cpp, raced
// under TSan by scripts/tier1.sh):
//  - cell i's work may depend only on its enumeration index and on
//    read-only inputs — never on execution order or thread identity;
//  - per-cell randomness derives from cell_seed(base, i);
//  - results are written to slot i and emitted sequentially afterwards.
// Under this contract `--jobs N` output is byte-identical to `--jobs 1`
// (which runs the plain serial loop) for every N.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "bench_support/experiment.hpp"
#include "util/arg_parse.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace ppg {

/// Resolves the shared `--jobs` flag: a positive thread count, or
/// "max" / "0" for one thread per hardware core. Default 1.
std::size_t jobs_from_args(const ArgParser& args);

/// Resolves the shared `--engine-threads` flag (intra-run parallelism,
/// ExperimentConfig/EngineConfig::engine_threads): a positive thread
/// count, or "max" for one thread per hardware core. Default 1 (serial).
/// The engine is byte-identical at every thread count, so this flag never
/// changes a bench's output.
std::size_t engine_threads_from_args(const ArgParser& args);

/// RNG seed for sweep cell `index`: a splitmix64 mix of the sweep base
/// seed and the enumeration index, so it is independent of execution
/// order and uncorrelated across neighbouring cells.
std::uint64_t cell_seed(std::uint64_t base, std::size_t index);

/// Runs fn(i) for every cell concurrently on `jobs` threads and returns
/// the results in enumeration order (slot i holds fn(i)).
template <typename Fn>
auto sweep_cells(std::size_t jobs, std::size_t num_cells, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out PPG_SHARDED_BY(cell index i)(num_cells);
  parallel_for_index(jobs, num_cells,
                     [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// One run_instance() experiment cell: an instance, the schedulers to run
/// on it, and the per-cell configuration (including the cell's seed).
/// The instance is held as sources, not vectors: a generator-backed cell
/// costs O(1) memory until it runs, so enumerating a large sweep no longer
/// materializes every instance up front.
struct InstanceCell {
  MultiTraceSource sources;
  std::vector<SchedulerKind> kinds;
  ExperimentConfig config;
};

/// Runs every cell's run_instance() concurrently; outcome i corresponds
/// to cells[i]. Per-cell failures are captured in the outcome's
/// SchedulerOutcome::status fields, exactly as in the serial path.
std::vector<InstanceOutcome> run_instances(
    const std::vector<InstanceCell>& cells, std::size_t jobs);

}  // namespace ppg
