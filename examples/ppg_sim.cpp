// ppg_sim — the general-purpose command-line driver.
//
// Runs any scheduler on any workload with explicit parameters and prints a
// metrics table (or CSV for scripting). Traces can be saved and replayed
// so the exact instance behind a result is reproducible as an artifact,
// not just as a seed.
//
//   ppg_sim --scheduler DET-PAR --workload cache-hungry --p 32 --k 256
//           --s 64 --n 20000 --seed 7   (flags may continue on one line)
//   ppg_sim --scheduler all --workload hetero-mix --csv
//   ppg_sim --workload adversarial --ell 5 --scheduler BB-GREEN(det)
//   ppg_sim --workload shared --sigma 0.8 --scheduler GLOBAL-LRU
//   ppg_sim --trace-out inst.ppgt --workload zipf      # snapshot instance
//   ppg_sim --trace-in inst.ppgt --scheduler EQUI      # replay it
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/adversarial.hpp"
#include "trace/shared_workload.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload.hpp"
#include "util/arg_parse.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace ppg;

void print_usage() {
  std::cout <<
      "ppg_sim — parallel paging simulator driver\n"
      "  --scheduler NAME   STATIC | EQUI | RAND-PAR | DET-PAR |\n"
      "                     BB-GREEN(det) | BB-GREEN(rand) | GLOBAL-LRU |\n"
      "                     all   (default: DET-PAR)\n"
      "  --workload NAME    homog-cyclic | hetero-mix | cache-hungry |\n"
      "                     polluted-cycles | zipf | skewed-lengths |\n"
      "                     adversarial | shared   (default: hetero-mix)\n"
      "  --p N --k N --s N  processors / cache size / miss cost\n"
      "  --n N              requests per processor\n"
      "  --seed N           workload + scheduler seed\n"
      "  --sigma X          sharing fraction (workload=shared)\n"
      "  --ell N            adversarial instance size (workload=adversarial)\n"
      "  --trace-in FILE    replay a saved instance (ignores --workload)\n"
      "  --trace-out FILE   save the generated instance and exit\n"
      "  --csv              emit CSV instead of an aligned table\n";
}

struct RunSpec {
  MultiTrace traces;
  Height k = 0;
  Time s = 0;
};

std::optional<RunSpec> build_instance(const ArgParser& args) {
  RunSpec spec;
  const auto p = static_cast<ProcId>(args.get_count("p", 16, 1));
  spec.k = static_cast<Height>(args.get_count("k", 8 * std::uint64_t{p}, 1));
  spec.s = args.get_count("s", 16, 1);
  const std::size_t n = args.get_count("n", 10000);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  if (args.has("trace-in")) {
    spec.traces = load_multitrace(args.get_string("trace-in", ""));
    return spec;
  }

  const std::string wname = args.get_string("workload", "hetero-mix");
  if (wname == "adversarial") {
    AdversarialParams ap;
    ap.ell = static_cast<std::uint32_t>(args.get_count("ell", 4, 2));
    ap.alpha = args.get_double("alpha", 1.0);
    ap.suffix_phase_factor = args.get_double("suffix-factor", 0.5);
    const AdversarialInstance inst = make_adversarial_instance(ap);
    spec.traces = inst.traces;
    spec.k = inst.params.cache_size();
    if (!args.has("s")) spec.s = 2 * spec.k;
    return spec;
  }
  if (wname == "shared") {
    SharedWorkloadParams sp;
    sp.num_procs = p;
    sp.cache_size = spec.k;
    sp.requests_per_proc = n;
    sp.seed = seed;
    sp.sharing_fraction = args.get_double("sigma", 0.5);
    spec.traces = make_shared_workload(sp);
    return spec;
  }
  const std::optional<WorkloadKind> kind = parse_workload_kind(wname);
  if (!kind) {
    std::cerr << "unknown workload '" << wname << "'\n";
    return std::nullopt;
  }
  if (spec.k < p)
    throw_error(ErrorCode::kBadInput, "--k must be at least --p (k >= p)");
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = spec.k;
  wp.requests_per_proc = n;
  wp.seed = seed;
  wp.miss_cost = spec.s;
  spec.traces = make_workload(*kind, wp);
  return spec;
}

void add_result_row(Table& table, const std::string& name,
                    const ParallelRunResult& r, Time lb) {
  table.row()
      .cell(name)
      .cell(r.makespan)
      .cell(static_cast<double>(r.makespan) /
                static_cast<double>(std::max<Time>(1, lb)),
            3)
      .cell(r.mean_completion, 0)
      .cell(r.fault_rate(), 4)
      .cell(static_cast<std::uint64_t>(r.peak_concurrent_height))
      .cell(r.total_stall);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppg;
  try {
    const ArgParser args(argc, argv);
    if (args.get_bool("help")) {
      print_usage();
      return 0;
    }

    const std::optional<RunSpec> spec = build_instance(args);
    if (!spec) return 1;

    if (args.has("trace-out")) {
      save_multitrace(args.get_string("trace-out", ""), spec->traces);
      std::cout << "wrote " << spec->traces.num_procs() << " traces ("
                << spec->traces.total_requests() << " requests)\n";
      return 0;
    }

    const std::string sname = args.get_string("scheduler", "DET-PAR");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    std::vector<std::string> to_run;
    if (sname == "all") {
      for (const SchedulerKind kind : all_scheduler_kinds())
        to_run.emplace_back(scheduler_kind_name(kind));
      to_run.emplace_back("GLOBAL-LRU");
    } else {
      to_run.push_back(sname);
    }

    OptBoundsConfig oc;
    oc.cache_size = spec->k;
    oc.miss_cost = spec->s;
    const OptBounds bounds = compute_opt_bounds(spec->traces, oc);
    const Time lb = bounds.lower_bound();

    Table table({"scheduler", "makespan", "ratio_vs_LB", "mean_ct",
                 "fault_rate", "peak_mem", "stall"});
    for (const std::string& name : to_run) {
      if (name == "GLOBAL-LRU") {
        GlobalLruConfig gc;
        gc.cache_size = spec->k;
        gc.miss_cost = spec->s;
        add_result_row(table, name, run_global_lru(spec->traces, gc), lb);
        continue;
      }
      const std::optional<SchedulerKind> kind = parse_scheduler_kind(name);
      if (!kind) {
        std::cerr << "unknown scheduler '" << name << "'\n";
        return 1;
      }
      auto scheduler = make_scheduler(*kind, seed);
      EngineConfig ec;
      ec.cache_size = spec->k;
      ec.miss_cost = spec->s;
      add_result_row(table, name, run_parallel(spec->traces, *scheduler, ec),
                     lb);
    }

    const bool csv = args.get_bool("csv");
    const auto unused = args.unused_keys();
    if (!unused.empty()) {
      std::cerr << "unknown option(s):";
      for (const auto& key : unused) std::cerr << " --" << key;
      std::cerr << "\n";
      return 1;
    }

    if (csv) {
      std::cout << table.to_csv();
    } else {
      std::cout << "p=" << spec->traces.num_procs() << " k=" << spec->k
                << " s=" << spec->s << " requests="
                << spec->traces.total_requests() << " T_LB=" << lb << "\n";
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    print_usage();
    return 1;
  }
}
