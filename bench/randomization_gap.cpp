// E13 — Probing the paper's closing conjecture (Section 5): randomization
// does not beat the deterministic O(log p) ratio for parallel paging.
//
// We cannot prove a conjecture by simulation, but we can stress it: for
// each instance, compare DET-PAR against the FULL seed distribution of
// RAND-PAR — mean, best seed (what a lucky randomized run achieves), and
// worst seed. If randomization bought an asymptotic factor, the best-seed
// curve would detach from DET-PAR's as p grows; it does not.
//
//   --jobs N|max   run sweep cells on N threads (default 1)
//   --engine-threads N|max
//                  fast-forward each run's same-time boxes on N threads
//                  (default 1; output is byte-identical at every value)
//   --stream       pull each instance lazily from generator sources instead
//                  of materializing it (output is byte-identical)
#include <iostream>

#include "bench_common.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/workload.hpp"

int run_bench(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const bool stream = args.get_bool("stream", false);
  const std::size_t jobs = jobs_from_args(args);
  const std::size_t engine_threads = engine_threads_from_args(args);
  bench::reject_unknown_options(args);

  bench::banner(
      "E13", "Does randomization help? (Section 5 conjecture)",
      "Conjecture: the O(log p) deterministic ratio cannot be beaten by "
      "randomized algorithms. Here: even the best of 11 RAND-PAR seeds "
      "tracks DET-PAR rather than beating it asymptotically.");

  const Time s = 64;

  struct CellParams {
    WorkloadKind wkind;
    ProcId p;
  };
  std::vector<CellParams> params;
  for (const WorkloadKind wkind :
       {WorkloadKind::kCacheHungry, WorkloadKind::kHeterogeneousMix})
    for (ProcId p = 8; p <= 128; p *= 4) params.push_back({wkind, p});

  struct CellResult {
    double lb = 1.0;
    Summary det;
    Summary rand;
  };
  const std::vector<CellResult> results =
      sweep_cells(jobs, params.size(), [&](std::size_t i) {
        const auto [wkind, p] = params[i];
        WorkloadParams wp;
        wp.num_procs = p;
        wp.cache_size = 8 * p;
        wp.requests_per_proc = 4000;
        wp.seed = 17 + p;
        wp.miss_cost = s;
        MultiTrace mt;
        MultiTraceSource sources;
        if (stream) {
          sources = make_workload_source(wkind, wp);
        } else {
          mt = make_workload(wkind, wp);
          sources = MultiTraceSource::view_of(mt);
        }

        ExperimentConfig config;
        config.cache_size = wp.cache_size;
        config.miss_cost = s;
        config.engine_threads = engine_threads;
        OptBoundsConfig oc;
        oc.cache_size = wp.cache_size;
        oc.miss_cost = s;
        CellResult cell;
        cell.lb = static_cast<double>(
            std::max<Time>(1, compute_opt_bounds(sources, oc).lower_bound()));
        cell.det =
            makespan_over_seeds(sources, SchedulerKind::kDetPar, config, 1);
        cell.rand =
            makespan_over_seeds(sources, SchedulerKind::kRandPar, config, 11);
        return cell;
      });

  Table table({"workload", "p", "DET-PAR", "RAND mean", "RAND best",
               "RAND worst", "best/det"});
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto [wkind, p] = params[i];
    const CellResult& cell = results[i];
    table.row()
        .cell(workload_kind_name(wkind))
        .cell(static_cast<std::uint64_t>(p))
        .cell(cell.det.mean() / cell.lb)
        .cell(cell.rand.mean() / cell.lb)
        .cell(cell.rand.min() / cell.lb)
        .cell(cell.rand.max() / cell.lb)
        .cell(cell.rand.min() / cell.det.mean(), 3);
  }

  bench::section("makespan ratios vs OPT LB; RAND-PAR over 11 seeds");
  bench::print_table(table);
  std::cout << "\nExpected shape: the best/det column stays near or above "
               "1 as p grows — no seed of the randomized algorithm opens "
               "an asymptotic gap over the deterministic one, consistent "
               "with the conjecture.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ppg::bench::guarded_main(run_bench, argc, argv);
}
