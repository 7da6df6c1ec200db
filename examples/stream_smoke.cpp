// stream_smoke: constant-memory streaming soak run.
//
// Pulls a generator-backed workload through the parallel engine without
// ever materializing it: at 10^8 requests the materialized instance would
// be ~800 MB of page ids, while the streamed run needs only the cursors'
// O(1) state plus the per-box LRU. scripts/tier1.sh runs this at full
// length under a hard `ulimit -v` to gate the pipeline's memory footprint;
// ctest runs a shorter variant as an ordinary example smoke test.
//
// Usage: stream_smoke [--n REQUESTS] [--p PROCS] [--k CACHE] [--s COST]
//                     [--max-rss-mb LIMIT] [--materialize]
//
// --materialize drains the sources into vectors first and runs the engine
// over that resident copy (the same engine path, through the MultiTrace
// view) — the "before" case scripts/bench_perf.sh measures against.
//
// Exits 0 when the run completes (and peak RSS is within --max-rss-mb if
// given), 1 otherwise.
#include <sys/resource.h>

#include <cstdio>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "trace/trace_spec.hpp"
#include "trace/workload.hpp"
#include "util/arg_parse.hpp"

namespace {

/// Peak resident set size of this process, in MiB (Linux reports KiB).
long peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppg;
  try {
    const ArgParser args(argc, argv);
    WorkloadParams wp;
    wp.num_procs = static_cast<ProcId>(args.get_count("p", 1, 1));
    wp.cache_size =
        static_cast<Height>(args.get_count("k", 64, wp.num_procs));
    wp.requests_per_proc = args.get_count("n", 100000000);
    wp.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    wp.miss_cost = args.get_count("s", 8, 1);
    const auto max_rss_mb = static_cast<long>(args.get_count("max-rss-mb", 0));
    const bool materialize = args.get_bool("materialize", false);
    if (const auto unused = args.unused_keys(); !unused.empty())
      throw_error(ErrorCode::kBadInput,
                  "unknown option --" + unused.front());

    const MultiTraceSource sources =
        make_workload_source(WorkloadKind::kHomogeneousCyclic, wp);
    std::printf(
        "stream_smoke: p=%u k=%u n/proc=%zu (total %llu requests, %s)\n",
        wp.num_procs, wp.cache_size, wp.requests_per_proc,
        static_cast<unsigned long long>(sources.total_requests()),
        materialize ? "materialized" : "streamed");

    EngineConfig ec;
    ec.cache_size = wp.cache_size;
    ec.miss_cost = wp.miss_cost;
    ec.trace_spec =
        workload_trace_spec(WorkloadKind::kHomogeneousCyclic, wp);
    const auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    ParallelRunResult result;
    if (materialize) {
      const MultiTrace traces = sources.materialize();
      result = run_parallel(traces, *scheduler, ec);
    } else {
      result = run_parallel(sources, *scheduler, ec);
    }

    const long rss = peak_rss_mb();
    std::printf("makespan=%llu misses=%llu boxes=%llu peak_rss_mb=%ld\n",
                static_cast<unsigned long long>(result.makespan),
                static_cast<unsigned long long>(result.misses),
                static_cast<unsigned long long>(result.num_boxes), rss);
    if (max_rss_mb > 0 && rss > max_rss_mb) {
      std::fprintf(stderr, "FAIL: peak RSS %ld MB exceeds limit %ld MB\n",
                   rss, max_rss_mb);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stream_smoke: %s\n", e.what());
    return 1;
  }
}
