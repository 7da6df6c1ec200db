// Self-test of the benchmark's own machinery, on shrunken instances:
//
//  1. The digest check catches a perturbed result: changing any one output
//     of a run changes its digest, so a pinned digest no longer matches.
//  2. The timing decorators and the box replay leave every simulated output
//     unchanged: on each workload an untraced pass, a second untraced pass
//     and a traced pass have one digest, and the replay agrees with the
//     engine's hit and miss counts.
//  3. The peak concurrent height computed from recorded boxes (the
//     service_churn xi) equals the engine's own memory-timeline peak.
//
// Prints one line per check and exits 1 if any fails.
#include <cstdio>
#include <string>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "trace/workload.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void digest_catches_perturbation() {
  ppg::WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 32;
  wp.requests_per_proc = 2000;
  const ppg::MultiTraceSource sources =
      ppg::make_workload_source(ppg::WorkloadKind::kHeterogeneousMix, wp);
  const auto scheduler = ppg::make_scheduler(ppg::SchedulerKind::kRandPar, 3);
  ppg::EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = wp.miss_cost;
  const ppg::CheckedRun run =
      ppg::run_parallel_checked(sources, *scheduler, ec);
  check(run.status.ok(), "reference run succeeds");

  const auto digest_of = [&](const ppg::ParallelRunResult& result) {
    Digest d;
    digest_run(d, run.status, result);
    return digest_hex(d.value());
  };
  const std::string pinned = digest_of(run.result);
  check(digest_of(run.result) == pinned, "digest repeats on the same result");
  ppg::ParallelRunResult perturbed = run.result;
  ++perturbed.misses;
  check(digest_of(perturbed) != pinned, "digest check fails on one more miss");
  perturbed = run.result;
  ++perturbed.completion.back();
  check(digest_of(perturbed) != pinned,
        "digest check fails on a shifted completion time");
  perturbed = run.result;
  perturbed.completion.pop_back();
  check(digest_of(perturbed) != pinned,
        "digest check fails on a dropped processor");
}

void box_log_peak_matches_engine() {
  ppg::WorkloadParams wp;
  wp.num_procs = 6;
  wp.cache_size = 48;
  wp.requests_per_proc = 3000;
  const ppg::MultiTraceSource sources =
      ppg::make_workload_source(ppg::WorkloadKind::kHeterogeneousMix, wp);
  for (const ppg::SchedulerKind kind :
       {ppg::SchedulerKind::kDetPar, ppg::SchedulerKind::kRandPar}) {
    const auto scheduler = ppg::make_scheduler(kind, 5);
    ppg::EngineConfig ec;
    ec.cache_size = wp.cache_size;
    ec.miss_cost = wp.miss_cost;
    BoxLog log;
    ec.on_box = box_recorder(log);
    const ppg::CheckedRun run =
        ppg::run_parallel_checked(sources, *scheduler, ec);
    check(run.status.ok() && run.result.peak_concurrent_height > 0 &&
              peak_concurrent_height(log, run.result.completion) ==
                  run.result.peak_concurrent_height,
          std::string("box-log peak height equals the engine's under ") +
              scheduler->name());
  }
}

void tracing_leaves_outputs_unchanged(const std::string& name,
                                      const Sizes& sizes) {
  const auto workload = make_workload(name, sizes);
  workload->setup(7);
  const PassResult first = workload->pass(nullptr);
  const PassResult again = workload->pass(nullptr);
  Layers layers;
  const PassResult traced = workload->pass(&layers);
  const std::uint64_t mismatches = workload->replay(layers);

  check(first.attempted > 0 && first.failed == 0,
        name + ": untraced pass passes its output checks");
  check(again.digest == first.digest, name + ": digest repeats across passes");
  check(traced.failed == 0 && traced.digest == first.digest,
        name + ": traced pass has the untraced digest");
  check(mismatches == 0 && layers.replay.boxes > 0,
        name + ": box replay matches the engine's counts");

  workload->setup(8);
  check(workload->pass(nullptr).digest != first.digest,
        name + ": another seed gives another digest");
}

}  // namespace

int main() {
  digest_catches_perturbation();
  box_log_peak_matches_engine();
  Sizes sizes;
  sizes.tenants = 300;
  sizes.tenant_requests = 64;
  sizes.service_k = 256;
  sizes.engine_procs = 4;
  sizes.engine_requests = 20000;
  sizes.engine_instances = 2;
  sizes.sweep_max_p = 8;
  sizes.sweep_requests = 400;
  sizes.sweep_jobs = 2;
  for (const std::string& name : workload_names())
    tracing_leaves_outputs_unchanged(name, sizes);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
