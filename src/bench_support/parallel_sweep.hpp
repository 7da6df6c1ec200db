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
//
// Crash safety rides on the same contract. When a SweepJournal is
// attached (the shared --journal PATH / --resume flag pair, see
// journal_from_args), each completed cell's encoded result is appended
// durably; a resumed sweep decodes journaled cells instead of recomputing
// them, and — because cell i is a pure function of i — the final output
// is byte-identical to an uninterrupted run. SIGINT/SIGTERM cooperate
// (util/interrupt): workers finish in-flight cells, the journal is
// already flushed per cell, and the sweep raises kInterrupted so the
// bench exits 130 with a resume hint.
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_support/cell_codec.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/sweep_journal.hpp"
#include "util/arg_parse.hpp"
#include "util/interrupt.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace ppg {

/// Resolves the shared `--jobs` flag: a positive thread count, or
/// "max" / "0" for one thread per hardware core. Default 1.
std::size_t jobs_from_args(const ArgParser& args);

/// Resolves the shared `--engine-threads` flag (intra-run parallelism,
/// ExperimentConfig/EngineConfig::engine_threads): a positive thread
/// count, or "max" for one thread per hardware core. Default 1 (serial).
/// Because the engine is byte-identical at every thread count, this flag
/// never appears in journal bindings — a journal written serially resumes
/// cleanly under any --engine-threads and vice versa.
std::size_t engine_threads_from_args(const ArgParser& args);

/// Resolves the shared `--journal PATH` / `--resume` flag pair. Returns
/// null when no --journal was given (and rejects a bare --resume,
/// kBadInput). `binding` must identify the bench and every flag that
/// shapes cell enumeration; resuming against a journal whose binding
/// differs is refused instead of decoding garbage, and so is a journal
/// another live process is writing (kJournalLocked).
std::unique_ptr<SweepJournal> journal_from_args(const ArgParser& args,
                                                const std::string& binding);

/// RNG seed for sweep cell `index`: a splitmix64 mix of the sweep base
/// seed and the enumeration index, so it is independent of execution
/// order and uncorrelated across neighbouring cells.
std::uint64_t cell_seed(std::uint64_t base, std::size_t index);

/// How a sweep executes: thread count, optional checkpoint journal, and
/// the stage id namespacing this sweep's records within the journal
/// (benches that run several sweeps give each a distinct stage).
struct SweepOptions {
  std::size_t jobs = 1;
  SweepJournal* journal = nullptr;  ///< Borrowed; null = no checkpointing.
  std::uint32_t stage = 0;

  /// Chaos hook (chaos_sweep's --kill-at): raise SIGKILL at the start of
  /// the first *fresh* cell once this many records are journaled,
  /// simulating a hard crash that tears nothing.
  std::int64_t kill_after = -1;

  SweepOptions with_stage(std::uint32_t s) const {
    SweepOptions copy = *this;
    copy.stage = s;
    return copy;
  }
};

/// Everything the shared sweep CLI surface resolves for a bench: --jobs,
/// --engine-threads and --journal/--resume. The journal (when present) is
/// locked against other writers; `options` borrows it.
struct SweepCli {
  SweepOptions options;
  std::unique_ptr<SweepJournal> journal;
  /// Intra-run threads (--engine-threads); benches copy this into each
  /// cell's ExperimentConfig. Not part of the journal binding (results do
  /// not depend on it).
  std::size_t engine_threads = 1;
};

/// One-call CLI resolution for sweep binaries. `binding` is the bench's
/// binding (id + every enumeration-shaping flag).
SweepCli sweep_cli_from_args(const ArgParser& args,
                             const std::string& binding);

/// Raises PpgException(kInterrupted) describing a sweep stopped after
/// `completed` of `total` cells, with a copy-pasteable resume hint when
/// journaled.
[[noreturn]] void throw_sweep_interrupted(std::size_t completed,
                                          std::size_t total,
                                          const SweepOptions& opts);

/// Journaled, interruptible sweep: runs fn(i) for every cell concurrently
/// and returns the results in enumeration order. Cells present in the
/// journal are decoded (not recomputed); freshly computed cells are
/// appended durably before the sweep moves past them. `encode(writer, r)`
/// and `decode(reader) -> R` must be exact inverses. On interruption the
/// completed cells are preserved and kInterrupted is thrown.
template <typename Fn, typename Enc, typename Dec>
auto sweep_cells(const SweepOptions& opts, std::size_t num_cells, Fn&& fn,
                 Enc&& encode, Dec&& decode)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out PPG_SHARDED_BY(cell index i)(num_cells);
  // Per-slot completion marks (plain bytes: each slot is touched by
  // exactly one worker, and wait_all() orders them before the scan).
  std::vector<unsigned char> filled PPG_SHARDED_BY(cell index i)(num_cells, 0);
  parallel_for_index(opts.jobs, num_cells, [&](std::size_t i) {
    if (opts.journal != nullptr) {
      if (const std::string* record =
              opts.journal->find(opts.stage, i)) {
        CellReader reader(*record);
        out[i] = decode(reader);
        reader.expect_end();
        filled[i] = 1;
        return;
      }
    }
    if (opts.kill_after >= 0 && opts.journal != nullptr &&
        opts.journal->num_records() >=
            static_cast<std::size_t>(opts.kill_after)) {
      // Hard-crash drill: die mid-sweep with a signal no handler can
      // soften. Checked at fresh-cell start so the journal holds exactly
      // whole records.
      std::raise(SIGKILL);
    }
    out[i] = fn(i);
    if (opts.journal != nullptr) {
      CellWriter writer;
      encode(writer, out[i]);
      opts.journal->append(opts.stage, i, writer.bytes());
    }
    filled[i] = 1;
  });
  std::size_t completed = 0;
  for (const unsigned char f : filled) completed += f;
  if (completed != num_cells)
    throw_sweep_interrupted(completed, num_cells, opts);
  return out;
}

/// Plain sweep (no journal): same executor, same interrupt cooperation.
template <typename Fn>
auto sweep_cells(std::size_t jobs, std::size_t num_cells, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  SweepOptions opts;
  opts.jobs = jobs;
  return sweep_cells(opts, num_cells, std::forward<Fn>(fn),
                     [](CellWriter&, const R&) {},
                     [](CellReader&) { return R{}; });
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

/// Journaled variant: outcomes are checkpointed/decoded through the
/// InstanceOutcome codec.
std::vector<InstanceOutcome> run_instances(
    const std::vector<InstanceCell>& cells, const SweepOptions& opts);

}  // namespace ppg
