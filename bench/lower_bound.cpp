// E6 — The Theorem 4 lower-bound construction.
//
// Generates the paper's adversarial instance (repeater/polluter prefixes in
// geometric families + single-use suffixes) and runs the library's
// schedulers against the paper's explicit OPT schedule (prefixes one at a
// time at full memory, then all suffixes in parallel).
//
// The mechanism: under any greedily-green allocation every sequence crawls
// at miss speed, so the longest sequence (family F_0: ell - log ell prefix
// phases plus the suffix) needs ~ell "eras" of s*phase_len ticks, while
// OPT needs only the ~log ell suffix eras plus a cheap serial prefix pass.
// The era count is reported directly; its growth with ell is the
// log p / log log p separation. Note Corollary 2: DET-PAR itself fits the
// black-box mold, so it is equally trapped here — consistent with its
// O(log p) guarantee because T_OPT on this instance is itself large.
//
// Scale note: the paper's suffix length (4 log2(ell) phases) only falls
// below the prefix length (ell - log2(ell) phases) for ell >= ~16, i.e.
// p > 100k processors. At laptop scale we shrink the suffix factor to 0.5
// so the crossover — and the growing gap — is visible at ell = 3..6; the
// construction is otherwise verbatim.
//
//   --jobs N|max   run sweep cells on N threads (default 1)
//   --engine-threads N|max
//                  fast-forward each run's same-time boxes on N threads
//                  (default 1; output is byte-identical at every value)
//   --stream       run the schedulers from lazy per-processor sources
//                  instead of the materialized instance (output is
//                  byte-identical; the constructed OPT is clairvoyant and
//                  still materializes inside its stage-A cell)
#include <cmath>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "opt/constructed_opt.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/adversarial.hpp"

int run_bench(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const bool stream = args.get_bool("stream", false);
  const std::size_t jobs = jobs_from_args(args);
  const std::size_t engine_threads = engine_threads_from_args(args);
  bench::reject_unknown_options(args);

  bench::banner(
      "E6", "Theorem 4 adversarial instance: black-box green paging vs OPT",
      "Parallel pagers built from a greedily-green black box take "
      "Omega(log p / log log p) * T_OPT on this instance; OPT escapes by "
      "burning impact on prefixes up front and overlapping all suffixes.");

  const std::vector<SchedulerKind> kinds{
      SchedulerKind::kBlackboxGreenDet, SchedulerKind::kBlackboxGreenRand,
      SchedulerKind::kDetPar, SchedulerKind::kRandPar, SchedulerKind::kEqui};

  const std::vector<std::uint32_t> ells{3, 4, 5, 6};

  // Stage A: one cell per ell — build the instance and run the constructed
  // OPT schedule (shared by every scheduler at that scale).
  struct EllCell {
    AdversarialInstance inst;  ///< Materialized traces (empty under --stream).
    MultiTraceSource sources;  ///< What stage B pulls from.
    Height k = 0;
    ProcId p = 0;
    Time s = 0;
    double era = 0.0;
    ConstructedOptResult opt;
  };
  const std::vector<EllCell> ell_cells =
      sweep_cells(jobs, ells.size(), [&](std::size_t i) {
        AdversarialParams params;
        params.ell = ells[i];
        params.a = 1;
        // gamma = 2*k*alpha must keep each phase long relative to the
        // s*(k-1) cold fill, or OPT's full-cache hit-serving advantage
        // drowns in compulsory misses; alpha = 1 (gamma = 2k) gives hits
        // half of every OPT phase. Shrink slightly at the largest scale
        // for runtime.
        params.alpha = ells[i] >= 6 ? 0.5 : 1.0;
        params.suffix_phase_factor = 0.5;
        EllCell cell;
        AdversarialInstance inst = make_adversarial_instance(params);
        cell.k = params.cache_size();
        cell.p = params.num_procs();
        // The construction requires s large relative to k (s > ck in the
        // theorem); a multiple of k keeps runtimes finite while preserving
        // the regime where misses dominate.
        cell.s = 2 * cell.k;
        cell.era = static_cast<double>(cell.s) *
                   static_cast<double>(params.phase_length());
        cell.opt = run_constructed_opt(inst, cell.s);
        if (stream) {
          cell.sources = make_adversarial_source(params).sources;
        } else {
          cell.inst = std::move(inst);
          cell.sources = MultiTraceSource::view_of(cell.inst.traces);
        }
        return cell;
      });

  // Stage B: one cell per (ell, scheduler) — each run reads its stage-A
  // instance (const) and owns its scheduler + engine.
  struct RunParams {
    std::size_t ell_idx;
    SchedulerKind kind;
  };
  std::vector<RunParams> run_params;
  for (std::size_t i = 0; i < ells.size(); ++i)
    for (const SchedulerKind kind : kinds) run_params.push_back({i, kind});

  const std::vector<Time> makespans =
      sweep_cells(jobs, run_params.size(), [&](std::size_t i) {
        const auto [ell_idx, kind] = run_params[i];
        const EllCell& cell = ell_cells[ell_idx];
        auto scheduler = make_scheduler(kind, 5);
        EngineConfig ec;
        ec.cache_size = cell.k;
        ec.miss_cost = cell.s;
        ec.track_memory_timeline = false;
        ec.engine_threads = engine_threads;
        return run_parallel(cell.sources, *scheduler, ec).makespan;
      });

  Table table({"ell", "p", "k", "T_opt", "opt_eras", "scheduler", "makespan",
               "eras", "ratio_vs_optUB", "log(p)/loglog(p)"});
  for (std::size_t i = 0; i < run_params.size(); ++i) {
    const auto [ell_idx, kind] = run_params[i];
    const EllCell& cell = ell_cells[ell_idx];
    const Time makespan = makespans[i];
    const double logp = std::log2(static_cast<double>(cell.p));
    const double loglogp = std::max(1.0, std::log2(logp));
    table.row()
        .cell(static_cast<std::uint64_t>(ells[ell_idx]))
        .cell(static_cast<std::uint64_t>(cell.p))
        .cell(static_cast<std::uint64_t>(cell.k))
        .cell(cell.opt.makespan)
        .cell(static_cast<double>(cell.opt.makespan) / cell.era, 2)
        .cell(scheduler_kind_name(kind))
        .cell(makespan)
        .cell(static_cast<double>(makespan) / cell.era, 2)
        .cell(static_cast<double>(makespan) /
                  static_cast<double>(cell.opt.makespan),
              2)
        .cell(logp / loglogp, 2);
  }

  bench::section("makespan vs the constructed OPT schedule (achievable "
                 "upper bound on T_OPT); an 'era' is s * phase_len ticks");
  bench::print_table(table);
  std::cout << "\nExpected shape: every online scheduler's era count tracks "
               "the longest sequence's total phase count (~ell), while "
               "OPT's era count tracks only the suffix (~log ell) — the "
               "ratio column grows with p like the last column. All "
               "schedulers tie because the construction makes every "
               "greedily-green allocation (and DET-PAR is one, Corollary 2) "
               "crawl at miss speed.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ppg::bench::guarded_main(run_bench, argc, argv);
}
