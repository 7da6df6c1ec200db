// Chaos harness: a small sweep whose cells fail on purpose.
//
// Each cell is a real (tiny) experiment — a deterministic workload run
// through run_instance() — so the binary exercises the sweep's failure
// paths: a cell whose trace is corrupt, or one that exhausts its step
// budget, reports a structured status in its row instead of aborting the
// sweep. scripts/chaos.sh byte-compares those rows across --jobs values.
//
//   $ ./chaos_sweep [--cells N] [--jobs N|max] [--budget EVENTS]
//                   [--faulty-every N]
//
//   --cells N      number of sweep cells (default 48)
//   --budget E     per-cell engine step budget (0 = unlimited); exhausted
//                  cells report a structured [cell-budget-exceeded] status
//                  in their row instead of aborting the sweep
//   --faulty-every N  give every N-th cell a corrupt trace (via the
//                  INJECT-TRACE spec decorator); its row reports a
//                  structured [corrupt-trace] status — failure as data
#include <cstdint>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>

#include "bench_support/experiment.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "trace/trace_spec.hpp"
#include "trace/workload.hpp"
#include "util/arg_parse.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

int run_chaos(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const std::size_t num_cells = args.get_count("cells", 48);
  const std::uint64_t budget = args.get_count("budget", 0);
  const std::uint64_t faulty_every = args.get_count("faulty-every", 0);
  const std::size_t jobs = jobs_from_args(args);
  if (const auto unused = args.unused_keys(); !unused.empty())
    throw std::invalid_argument("unknown option --" + unused.front());

  const std::vector<SchedulerKind> kinds{SchedulerKind::kDetPar};

  const std::vector<InstanceOutcome> outcomes =
      sweep_cells(jobs, num_cells, [&](std::size_t i) {
        WorkloadParams wp;
        wp.num_procs = 4;
        wp.cache_size = 32;
        wp.requests_per_proc = 400;
        wp.seed = cell_seed(7, i);
        ExperimentConfig config;
        config.cache_size = wp.cache_size;
        config.miss_cost = 4;
        config.seed = cell_seed(11, i);
        config.include_global_lru = false;
        config.cell_event_budget = budget;
        if (faulty_every > 0 && i % faulty_every == faulty_every - 1) {
          // Same workload, wrapped in the INJECT-TRACE decorator: the cell
          // fails deterministically with [corrupt-trace] and the sweep
          // reports the failure as data instead of crashing.
          const MultiTraceSource sources = make_source_from_trace_spec(
              "INJECT-TRACE(fail@123,workload(kind=hetero-mix,p=4,k=32,"
              "n=400,seed=" +
              std::to_string(wp.seed) + ",s=4))");
          return run_instance(sources, kinds, config);
        }
        const MultiTrace traces =
            make_workload(WorkloadKind::kHeterogeneousMix, wp);
        return run_instance(traces, kinds, config);
      });

  Table table({"cell", "makespan", "ratio", "status"});
  std::size_t failed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SchedulerOutcome& o = outcomes[i].outcomes.front();
    if (!o.status.ok()) ++failed;
    table.row()
        .cell(static_cast<std::uint64_t>(i))
        .cell(o.result.makespan)
        .cell(o.makespan_ratio, 3)
        .cell(o.status.ok() ? "ok"
                            : error_code_name(o.status.error.code));
  }
  table.print(std::cout);
  std::cout << "\ncells = " << outcomes.size() << ", failed = " << failed
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // Examples only see src/ on the include path; this mirrors
  // bench::guarded_main (structured resource-exhausted on bad_alloc).
  try {
    return run_chaos(argc, argv);
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
