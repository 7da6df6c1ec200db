// trace_analyzer — Mattson-style characterization of a trace file.
//
// Loads a multitrace (binary .ppgt or the "proc page" text format) and
// prints, per processor: footprint, reuse behaviour, the LRU fault curve
// (one stack-distance pass yields the fault count for EVERY cache size),
// and a working-set profile — the quantities that determine how much
// cache each processor "wants", i.e. the marginal-benefit structure the
// paper's schedulers must serve obliviously.
//
//   trace_analyzer --trace-in FILE [--text] [--window N]
//   trace_analyzer --demo            # run on a generated mixed workload
#include <iostream>
#include <string>

#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"
#include "trace/workload.hpp"
#include "util/arg_parse.hpp"
#include "util/math_util.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ppg;
  try {
    const ArgParser args(argc, argv);
    const std::size_t window = args.get_count("window", 1000, 1);
    MultiTrace traces;
    if (args.get_bool("demo")) {
      WorkloadParams wp;
      wp.num_procs = static_cast<ProcId>(args.get_count("p", 8, 1));
      wp.cache_size =
          static_cast<Height>(args.get_count("k", 64, wp.num_procs));
      wp.requests_per_proc = args.get_count("n", 5000);
      traces = make_workload(WorkloadKind::kHeterogeneousMix, wp);
    } else if (args.has("trace-in")) {
      const std::string path = args.get_string("trace-in", "");
      traces = args.get_bool("text") ? load_multitrace_text(path)
                                     : load_multitrace(path);
    } else {
      std::cerr << "usage: trace_analyzer --trace-in FILE [--text] "
                   "[--window N] | --demo [--p N --k N --n N]\n";
      return 1;
    }

    std::cout << "traces: " << traces.num_procs()
              << ", total requests: " << traces.total_requests()
              << ", disjoint: "
              << (traces.validate_disjoint() ? "yes" : "NO (shared pages)")
              << "\n\n";

    const std::uint32_t max_lg = 12;
    Table table({"proc", "requests", "distinct", "reuse", "median_sd",
                 "faults@8", "faults@64", "faults@1024", "ws_peak"});
    for (ProcId i = 0; i < traces.num_procs(); ++i) {
      const Trace& t = traces.trace(i);
      if (t.empty()) {
        table.row().cell(static_cast<std::uint64_t>(i)).cell("0").cell("0")
            .cell("-").cell("-").cell("-").cell("-").cell("-").cell("-");
        continue;
      }
      const TraceStats stats = compute_trace_stats(t, max_lg);
      std::size_t ws_peak = 0;
      for (std::size_t ws : working_set_profile(t, window))
        ws_peak = std::max(ws_peak, ws);
      table.row()
          .cell(static_cast<std::uint64_t>(i))
          .cell(static_cast<std::uint64_t>(stats.num_requests))
          .cell(static_cast<std::uint64_t>(stats.distinct_pages))
          .cell(stats.reuse_fraction, 3)
          .cell(stats.median_stack_distance)
          .cell(stats.lru_fault_curve[3])    // capacity 8
          .cell(stats.lru_fault_curve[6])    // capacity 64
          .cell(stats.lru_fault_curve[10])   // capacity 1024
          .cell(static_cast<std::uint64_t>(ws_peak));
    }
    table.print(std::cout);
    std::cout << "\nfaults@c = LRU faults at cache size c (from one "
                 "stack-distance pass); ws_peak = max distinct pages per "
              << window << "-request window.\n";
    return 0;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}
