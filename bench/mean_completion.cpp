// E5 — Mean completion time (paper Corollary 3).
//
// DET-PAR simultaneously achieves the optimal O(log p) ratio for mean
// completion time: on workloads with skewed sequence lengths it must not
// starve short jobs. We report mean-completion ratios against the OPT
// lower bound and the max/min completion spread per scheduler.
//
//   --jobs N|max   run sweep cells on N threads (default 1)
#include <algorithm>
#include <iostream>
#include <limits>

#include "bench_common.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "trace/trace_spec.hpp"
#include "trace/workload.hpp"

int run_bench(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const std::size_t jobs = jobs_from_args(args);
  bench::reject_unknown_options(args);

  bench::banner(
      "E5", "Mean completion time on skewed-length workloads",
      "DET-PAR is O(log p)-competitive for mean completion time as well as "
      "makespan (Corollary 3): balanced + well-rounded => green.");

  const Time s = 8;

  std::vector<ProcId> ps;
  for (ProcId p = 4; p <= 64; p *= 2) ps.push_back(p);

  struct CellResult {
    InstanceOutcome outcome;
    /// Max per-proc stretch per outcome row, computed in the cell so the
    /// traces don't have to outlive it.
    std::vector<double> max_stretch;
    Height k = 0;
  };
  const std::vector<CellResult> results =
      sweep_cells(jobs, ps.size(), [&](std::size_t i) {
        const ProcId p = ps[i];
        WorkloadParams wp;
        wp.num_procs = p;
        wp.cache_size = 8 * p;
        wp.requests_per_proc = 6000;
        wp.seed = 11 + p;
        CellResult cell;
        cell.k = wp.cache_size;
        const MultiTrace mt =
            make_workload(WorkloadKind::kSkewedLengths, wp);

        ExperimentConfig config;
        config.cache_size = wp.cache_size;
        config.miss_cost = s;
        config.trace_spec =
            workload_trace_spec(WorkloadKind::kSkewedLengths, wp);
        cell.outcome = run_instance(mt, all_scheduler_kinds(), config);
        for (const SchedulerOutcome& so : cell.outcome.outcomes) {
          const std::vector<double> stretch =
              per_proc_stretch(mt, so.result.completion, cell.k, s);
          double max_stretch = 0.0;
          for (double v : stretch) max_stretch = std::max(max_stretch, v);
          cell.max_stretch.push_back(max_stretch);
        }
        return cell;
      });

  Table table({"p", "k", "scheduler", "mean_ct", "mean_ratio", "makespan",
               "spread_max_over_min", "max_stretch"});
  ScalingCollector fits;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const ProcId p = ps[i];
    const CellResult& cell = results[i];
    for (std::size_t j = 0; j < cell.outcome.outcomes.size(); ++j) {
      const SchedulerOutcome& so = cell.outcome.outcomes[j];
      Time min_c = std::numeric_limits<Time>::max();
      Time max_c = 0;
      for (Time c : so.result.completion) {
        min_c = std::min(min_c, std::max<Time>(1, c));
        max_c = std::max(max_c, c);
      }
      const double max_stretch = cell.max_stretch[j];
      table.row()
          .cell(static_cast<std::uint64_t>(p))
          .cell(static_cast<std::uint64_t>(cell.k))
          .cell(so.name)
          .cell(so.result.mean_completion, 0)
          .cell(so.mean_ct_ratio)
          .cell(so.result.makespan)
          .cell(static_cast<double>(max_c) / static_cast<double>(min_c), 2)
          .cell(max_stretch, 2);
      fits.add(so.name, static_cast<double>(p), so.mean_ct_ratio);
    }
  }

  bench::section("mean completion ratios (denominator: makespan LB — "
                 "conservative)");
  bench::print_table(table);
  bench::section("scaling fits: mean ratio ~ slope * log2(p) + intercept");
  bench::print_table(fits.fit_table());
  std::cout << "\nExpected shape: DET-PAR/RAND-PAR/BB-GREEN keep mean "
               "completion well below makespan (short jobs finish early); "
               "STATIC lets stragglers dominate both metrics.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ppg::bench::guarded_main(run_bench, argc, argv);
}
