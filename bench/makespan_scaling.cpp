// E3/E4 — Parallel paging makespan vs the OPT lower bound (Theorems 2, 3).
//
// Sweeps p with k = 8p over heterogeneous workloads and reports each
// scheduler's makespan ratio against the certified OPT lower bound. The
// paper proves RAND-PAR and DET-PAR are O(log p)-competitive; EQUI /
// STATIC / GLOBAL-LRU have no such guarantee, and BLACKBOX-GREEN carries an
// extra logarithmic factor in the worst case.
//
//   --jobs N|max   run sweep cells on N threads (default 1; output is
//                  byte-identical at every value)
//   --engine-threads N|max
//                  fast-forward each run's same-time boxes on N threads
//                  (default 1; output is byte-identical at every value —
//                  prefer --jobs for many small cells, --engine-threads
//                  for few wide ones)
//   --quick        reduced sweep (p <= 16) for CI smoke runs
//   --stream       pull each instance lazily from generator sources instead
//                  of materializing it (output is byte-identical; peak
//                  memory drops to O(active window))
#include <iostream>

#include "bench_common.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "opt/offline_packer.hpp"
#include "trace/trace_spec.hpp"
#include "trace/workload.hpp"

int run_bench(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const bool stream = args.get_bool("stream", false);
  const std::size_t jobs = jobs_from_args(args);
  const std::size_t engine_threads = engine_threads_from_args(args);
  bench::reject_unknown_options(args);

  bench::banner(
      "E3/E4", "Makespan competitive-ratio scaling",
      "RAND-PAR (Thm 2) and DET-PAR (Thm 3) achieve makespan O(log p) * "
      "T_OPT with O(1) augmentation.");

  // s well above log2(p): the regime where hit-serving beats miss-eating
  // and allocation policy decides the makespan (the paper's lower bounds
  // likewise use large s).
  const Time s = 64;
  const std::vector<WorkloadKind> workloads{WorkloadKind::kCacheHungry,
                                            WorkloadKind::kHeterogeneousMix,
                                            WorkloadKind::kPollutedCycles};
  const std::vector<SchedulerKind> kinds = all_scheduler_kinds();
  const ProcId max_p = quick ? 16 : 128;

  // Enumerate every (workload, p) sweep cell up front; each cell's seeds
  // are functions of its parameters, never of execution order.
  struct CellParams {
    WorkloadKind wkind;
    ProcId p;
  };
  std::vector<CellParams> params;
  for (const WorkloadKind wkind : workloads)
    for (ProcId p = 4; p <= max_p; p *= 2) params.push_back({wkind, p});

  struct CellResult {
    InstanceOutcome outcome;
    Height k = 0;
    Time t_ub = 0;
  };
  const std::vector<CellResult> results =
      sweep_cells(jobs, params.size(), [&](std::size_t i) {
        const auto [wkind, p] = params[i];
        WorkloadParams wp;
        wp.num_procs = p;
        wp.cache_size = 8 * p;
        wp.requests_per_proc = 4000;
        wp.seed = 7 + p;
        wp.miss_cost = s;
        // Same instance either way; --stream just defers generation to the
        // cursors inside the engine.
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
        config.seed = 3;
        config.trace_spec = workload_trace_spec(wkind, wp);
        config.engine_threads = engine_threads;

        CellResult cell;
        cell.k = wp.cache_size;
        cell.outcome = run_instance(sources, kinds, config);

        // Achievable upper bound on T_OPT from offline strip packing of
        // per-processor profiles (fixed-height fallback: the exact DP is
        // too slow at this sweep's sizes; the bracket is just looser).
        OfflinePackConfig pc;
        pc.cache_size = wp.cache_size;
        pc.miss_cost = s;
        pc.exact_profile_max_requests = 1;
        cell.t_ub = pack_offline(sources, pc).makespan;
        return cell;
      });

  Table table({"workload", "p", "k", "T_LB", "T_UB", "scheduler", "makespan",
               "ratio", "xi"});
  ScalingCollector fits;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto [wkind, p] = params[i];
    const CellResult& cell = results[i];
    for (const SchedulerOutcome& so : cell.outcome.outcomes) {
      table.row()
          .cell(workload_kind_name(wkind))
          .cell(static_cast<std::uint64_t>(p))
          .cell(static_cast<std::uint64_t>(cell.k))
          .cell(cell.outcome.bounds.lower_bound())
          .cell(cell.t_ub)
          .cell(so.name)
          .cell(so.result.makespan)
          .cell(so.makespan_ratio)
          .cell(so.result.effective_augmentation, 2);
      fits.add(so.name + "/" + workload_kind_name(wkind),
               static_cast<double>(p), so.makespan_ratio);
    }
  }

  bench::section("makespan ratio vs certified OPT lower bound");
  bench::print_table(table);
  bench::section("scaling fits: ratio ~ slope * log2(p) + intercept");
  bench::print_table(fits.fit_table());
  std::cout << "\nExpected shape: DET-PAR and RAND-PAR stay within a "
               "moderate, slowly growing factor of the bound at every p; "
               "STATIC/EQUI degrade on height-sensitive workloads; ratios "
               "overstate the truth since T_LB <= T_OPT.\n";
  return 0;
}

int main(int argc, char** argv) {
  return ppg::bench::guarded_main(run_bench, argc, argv);
}
