// E8 — Ablation: RAND-PAR chunk anatomy (Observation 1).
//
// The paper balances each chunk so the primary part (minimal boxes for
// everyone) and the secondary part (one sampled green box each) have equal
// expected length — wasted halves amortize against useful ones. This
// ablation scales the primary part and toggles whether processors outside
// the current secondary wave stall (pure paper model) or receive filler
// boxes from the augmentation budget.
//
//   --jobs N|max   run sweep cells on N threads (default 1)
//   --engine-threads N|max
//                  fast-forward each run's same-time boxes on N threads
//                  (default 1; output is byte-identical at every value)
//   --stream       pull each instance lazily from generator sources instead
//                  of materializing it (output is byte-identical)
#include <iostream>

#include "bench_common.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "core/parallel_engine.hpp"
#include "core/rand_par.hpp"
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
      "E8", "Ablation: RAND-PAR primary/secondary balance and wave fillers",
      "Observation 1: primary and secondary parts of a chunk should have "
      "equal (expected) length; unbalancing either direction wastes time.");

  const Time s = 8;

  // Stage A: one cell per (workload, p) — the instance and its OPT bounds
  // are shared by every (primary_x, fillers) variant below.
  struct InstParams {
    WorkloadKind wkind;
    ProcId p;
  };
  std::vector<InstParams> inst_params;
  const std::vector<WorkloadKind> workloads{WorkloadKind::kHeterogeneousMix,
                                            WorkloadKind::kPollutedCycles};
  for (const WorkloadKind wkind : workloads)
    for (ProcId p : {16u, 64u}) inst_params.push_back({wkind, p});

  struct InstCell {
    MultiTrace mt;             ///< Empty under --stream.
    MultiTraceSource sources;  ///< Views mt, or generator-backed.
    Height k = 0;
    OptBounds bounds;
  };
  const std::vector<InstCell> inst_cells =
      sweep_cells(jobs, inst_params.size(), [&](std::size_t i) {
        const auto [wkind, p] = inst_params[i];
        WorkloadParams wp;
        wp.num_procs = p;
        wp.cache_size = 8 * p;
        wp.requests_per_proc = 4000;
        wp.seed = 61 + p;
        InstCell cell;
        if (stream) {
          cell.sources = make_workload_source(wkind, wp);
        } else {
          cell.mt = make_workload(wkind, wp);
          cell.sources = MultiTraceSource::view_of(cell.mt);
        }
        cell.k = wp.cache_size;
        OptBoundsConfig oc;
        oc.cache_size = wp.cache_size;
        oc.miss_cost = s;
        cell.bounds = compute_opt_bounds(cell.sources, oc);
        return cell;
      });

  // Stage B: one cell per (instance, primary_x, fillers) variant; each
  // cell averages 3 fixed-seed trials.
  struct VariantParams {
    std::size_t inst_idx;
    std::uint32_t primary_mult;
    bool stall;
  };
  std::vector<VariantParams> variant_params;
  for (std::size_t i = 0; i < inst_params.size(); ++i)
    for (const std::uint32_t primary_mult : {1u, 2u, 4u})
      for (const bool stall : {false, true})
        variant_params.push_back({i, primary_mult, stall});

  struct VariantResult {
    double makespan_mean = 0.0;
    double stall_mean = 0.0;
  };
  const std::vector<VariantResult> variant_results =
      sweep_cells(jobs, variant_params.size(), [&](std::size_t i) {
        const auto [inst_idx, primary_mult, stall] = variant_params[i];
        const InstCell& inst = inst_cells[inst_idx];
        const ProcId p = inst_params[inst_idx].p;
        double makespan_sum = 0;
        double stall_sum = 0;
        const int trials = 3;
        for (int trial = 0; trial < trials; ++trial) {
          RandParConfig config;
          config.seed = 71 + static_cast<std::uint64_t>(trial);
          config.primary_multiplier = primary_mult;
          config.stall_between_waves = stall;
          auto scheduler = make_rand_par(config);
          EngineConfig ec;
          ec.cache_size = inst.k;
          ec.miss_cost = s;
          ec.engine_threads = engine_threads;
          const ParallelRunResult r =
              run_parallel(inst.sources, *scheduler, ec);
          makespan_sum += static_cast<double>(r.makespan);
          stall_sum += static_cast<double>(r.total_stall) /
                       (static_cast<double>(r.makespan) * p);
        }
        return VariantResult{makespan_sum / trials, stall_sum / trials};
      });

  Table table({"workload", "p", "primary_x", "fillers", "makespan", "ratio",
               "stall_frac"});
  for (std::size_t i = 0; i < variant_params.size(); ++i) {
    const auto [inst_idx, primary_mult, stall] = variant_params[i];
    const auto [wkind, p] = inst_params[inst_idx];
    const VariantResult& res = variant_results[i];
    table.row()
        .cell(workload_kind_name(wkind))
        .cell(static_cast<std::uint64_t>(p))
        .cell(static_cast<std::uint64_t>(primary_mult))
        .cell(stall ? "stall" : "filler")
        .cell(res.makespan_mean, 0)
        .cell(res.makespan_mean /
                  static_cast<double>(inst_cells[inst_idx].bounds.lower_bound()),
              3)
        .cell(res.stall_mean, 3);
  }

  bench::section("chunk-anatomy ablation");
  bench::print_table(table);
  std::cout << "\nExpected shape: primary_x = 1 with fillers is at or near "
               "the best ratio; growing the primary part inflates makespan "
               "on impact-bound workloads; stalling between waves wastes "
               "time that fillers recover.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ppg::bench::guarded_main(run_bench, argc, argv);
}
