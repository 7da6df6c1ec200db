// E11 — Beyond the model: page sharing (the paper's Section 5 open
// problem).
//
// The disjointness assumption is load-bearing: box-model schedulers can
// only handle sharing by privatizing (duplicating) the shared region into
// every processor's compartment, while a plain shared LRU pool keeps one
// copy. Sweeping the sharing fraction exposes the crossover: with little
// sharing the paper's schedulers keep their worst-case advantages; as the
// shared region dominates, duplication overflows the cache and GLOBAL-LRU
// wins outright — quantifying why the open problem is open.
//
//   --jobs N|max   run sweep cells on N threads (default 1)
#include <iostream>

#include "bench_common.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "trace/shared_workload.hpp"

int run_bench(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const std::size_t jobs = jobs_from_args(args);
  bench::reject_unknown_options(args);

  bench::banner(
      "E11", "Page sharing across processors (open problem, Section 5)",
      "Box-model schedulers require disjoint page sets; under sharing they "
      "pay duplication while a shared pool pays once. The crossover "
      "quantifies the cost of the disjointness assumption.");

  const Time s = 16;

  struct CellParams {
    double sigma;
    ProcId p;
  };
  std::vector<CellParams> params;
  for (const double sigma : {0.0, 0.25, 0.5, 0.75, 0.95})
    for (ProcId p : {8u, 32u}) params.push_back({sigma, p});

  struct CellResult {
    Height k = 0;
    Time global_lru = 0;
    Time det_par = 0;
    Time equi = 0;
  };
  const std::vector<CellResult> results =
      sweep_cells(jobs, params.size(), [&](std::size_t i) {
        const auto [sigma, p] = params[i];
        SharedWorkloadParams sp;
        sp.num_procs = p;
        sp.cache_size = 8 * p;
        sp.requests_per_proc = 8000;
        sp.seed = 91 + p;
        sp.sharing_fraction = sigma;
        const MultiTrace shared = make_shared_workload(sp);
        const MultiTrace priv = privatize(shared);

        CellResult cell;
        cell.k = sp.cache_size;

        GlobalLruConfig gc;
        gc.cache_size = sp.cache_size;
        gc.miss_cost = s;
        cell.global_lru = run_global_lru(shared, gc).makespan;

        EngineConfig ec;
        ec.cache_size = sp.cache_size;
        ec.miss_cost = s;
        auto det_par = make_scheduler(SchedulerKind::kDetPar);
        cell.det_par = run_parallel(priv, *det_par, ec).makespan;
        auto equi = make_scheduler(SchedulerKind::kEqui);
        cell.equi = run_parallel(priv, *equi, ec).makespan;
        return cell;
      });

  Table table({"share_frac", "p", "k", "GLOBAL-LRU", "DET-PAR(priv)",
               "EQUI(priv)", "detpar_over_global"});
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto [sigma, p] = params[i];
    const CellResult& cell = results[i];
    table.row()
        .cell(sigma, 2)
        .cell(static_cast<std::uint64_t>(p))
        .cell(static_cast<std::uint64_t>(cell.k))
        .cell(cell.global_lru)
        .cell(cell.det_par)
        .cell(cell.equi)
        .cell(static_cast<double>(cell.det_par) /
                  static_cast<double>(cell.global_lru),
              2);
  }

  bench::section("makespan under sharing: shared pool vs privatized box "
                 "schedulers");
  bench::print_table(table);
  std::cout << "\nExpected shape: the detpar_over_global column rises with "
               "the sharing fraction — duplicated copies of the shared "
               "region crowd the compartments while the pool keeps one — "
               "and the gap widens with p (more duplicates).\n";
  return 0;
}

int main(int argc, char** argv) {
  return ppg::bench::guarded_main(run_bench, argc, argv);
}
