// Multiprogrammed-cache study: the scenario from the paper's introduction.
//
// Several programs with very different locality share one last-level
// cache. This example compares every scheduler in the library on the same
// instance and prints a side-by-side table: who finishes when, at what
// fault rate, with how much memory — the practical question "how should a
// shared cache be partitioned?" answered by each strategy.
//
//   $ ./multiprogram_study [p] [k] [--jobs N|max]
#include <cstdlib>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>

#include "bench_support/parallel_sweep.hpp"
#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/workload.hpp"
#include "util/arg_parse.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

int run_study(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const auto& positional = args.positional();
  const ProcId p =
      !positional.empty() ? static_cast<ProcId>(std::atoi(positional[0].c_str()))
                          : 16;
  const Height k = positional.size() > 1
                       ? static_cast<Height>(std::atoi(positional[1].c_str()))
                       : 8 * p;
  const std::size_t jobs = jobs_from_args(args);
  if (const auto unused = args.unused_keys(); !unused.empty())
    throw std::invalid_argument("unknown option --" + unused.front());
  const Time s = 16;

  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = k;
  wp.requests_per_proc = 20000;
  wp.seed = 7;
  const MultiTrace traces = make_workload(WorkloadKind::kSkewedLengths, wp);

  OptBoundsConfig oc;
  oc.cache_size = k;
  oc.miss_cost = s;
  const OptBounds bounds = compute_opt_bounds(traces, oc);

  std::cout << "p = " << p << ", k = " << k << ", s = " << s
            << ", total requests = " << traces.total_requests()
            << "\nOPT lower bound on makespan: " << bounds.lower_bound()
            << "\n\n";

  // One sweep cell per scheduler (GLOBAL-LRU rides along as the last cell);
  // rows are emitted in scheduler order regardless of --jobs.
  const std::vector<SchedulerKind> kinds = all_scheduler_kinds();
  const std::vector<ParallelRunResult> results =
      sweep_cells(jobs, kinds.size() + 1, [&](std::size_t i) {
        if (i == kinds.size()) {
          // The no-partitioning baseline.
          GlobalLruConfig gc;
          gc.cache_size = k;
          gc.miss_cost = s;
          return run_global_lru(traces, gc);
        }
        auto scheduler = make_scheduler(kinds[i], 3);
        EngineConfig ec;
        ec.cache_size = k;
        ec.miss_cost = s;
        return run_parallel(traces, *scheduler, ec);
      });

  Table table({"scheduler", "makespan", "ratio", "mean_ct", "fault_rate",
               "peak_mem", "boxes"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ParallelRunResult& r = results[i];
    table.row()
        .cell(i == kinds.size() ? "GLOBAL-LRU" : scheduler_kind_name(kinds[i]))
        .cell(r.makespan)
        .cell(static_cast<double>(r.makespan) /
                  static_cast<double>(bounds.lower_bound()),
              2)
        .cell(r.mean_completion, 0)
        .cell(r.fault_rate(), 4)
        .cell(static_cast<std::uint64_t>(r.peak_concurrent_height))
        .cell(r.num_boxes);
  }

  table.print(std::cout);
  std::cout << "\nReading guide: DET-PAR/RAND-PAR trade a few extra faults "
               "(compartmentalized boxes) for worst-case makespan "
               "guarantees no baseline offers; STATIC wastes the cache of "
               "finished programs; GLOBAL-LRU lets streaming programs "
               "pollute everyone's working set.\n";
  return 0;
}

int main(int argc, char** argv) {
  // Examples only see src/ on the include path, so this mirrors
  // bench::guarded_main by hand: allocation failure becomes a structured
  // resource-exhausted error instead of a raw terminate.
  try {
    return run_study(argc, argv);
  } catch (const std::bad_alloc&) {
    ppg::Error oom;
    oom.code = ppg::ErrorCode::kResourceExhausted;
    oom.message = "allocation failed (std::bad_alloc)";
    std::cerr << "error: " << oom.to_string() << "\n";
    return 1;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}
