#include "bench_support/experiment.hpp"

#include <algorithm>

#include "core/contract.hpp"
#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "util/assert.hpp"

namespace ppg {

std::size_t InstanceOutcome::num_failed() const {
  std::size_t n = 0;
  for (const SchedulerOutcome& so : outcomes)
    if (!so.status.ok()) ++n;
  return n;
}

namespace {

/// Factory spec for the cell, with the decorators applied, so a replay
/// dump reconstructs the identical (possibly fault-injected) scheduler.
std::string cell_spec(SchedulerKind kind, const ExperimentConfig& config) {
  std::string spec = scheduler_kind_name(kind);
  if (config.inject_fault)
    spec = std::string("INJECT(") + fault_class_name(config.inject_fault->fault) +
           "," + spec + ")";
  return spec;
}

}  // namespace

InstanceOutcome run_instance(const MultiTraceSource& instance,
                             const std::vector<SchedulerKind>& kinds,
                             const ExperimentConfig& config) {
  // One distance pass per resident trace, shared by the bounds and every
  // box-scheduler run; the distances die with this call.
  const MultiTraceSource sources = instance.with_stack_distances();
  InstanceOutcome out;
  OptBoundsConfig ob;
  ob.cache_size = config.cache_size;
  ob.miss_cost = config.miss_cost;
  try {
    out.bounds = compute_opt_bounds(sources, ob);
  } catch (const PpgException& e) {
    // A trace so hostile the bounds pass cannot even read it (e.g. an
    // injected corrupt-trace fault). The cell is still data, not a crash:
    // every scheduler outcome carries the structured failure, mirroring
    // what run_parallel_checked would have reported.
    for (const SchedulerKind kind : kinds) {
      SchedulerOutcome so;
      so.name = scheduler_kind_name(kind);
      so.status = RunStatus::failure(e.error());
      out.outcomes.push_back(std::move(so));
    }
    if (config.include_global_lru) {
      SchedulerOutcome so;
      so.name = "GLOBAL-LRU";
      so.status = RunStatus::failure(e.error());
      out.outcomes.push_back(std::move(so));
    }
    return out;
  }
  const double lb = static_cast<double>(
      std::max<Time>(1, out.bounds.lower_bound()));

  // Mean completion time lower bound: every processor needs at least its
  // own dedicated-cache busy time, and the cache can serve at most k
  // page-ticks per tick; we reuse the makespan LB as a conservative
  // denominator for mean-CT too (mean <= makespan for OPT as well).
  EngineConfig ec;
  ec.cache_size = config.cache_size;
  ec.miss_cost = config.miss_cost;
  ec.max_time = config.max_time;
  ec.max_events = config.cell_event_budget;
  ec.seed = config.seed;
  ec.trace_spec = config.trace_spec;

  for (const SchedulerKind kind : kinds) {
    std::unique_ptr<BoxScheduler> scheduler = make_scheduler(kind, config.seed);
    if (config.inject_fault) {
      FaultInjectionConfig fc = *config.inject_fault;
      fc.seed = config.seed;
      scheduler = make_fault_injecting(std::move(scheduler), fc);
    }
    scheduler = make_validating(std::move(scheduler));

    SchedulerOutcome so;
    so.name = scheduler_kind_name(kind);
    ec.scheduler_spec = cell_spec(kind, config);
    ec.replay_dump_path =
        config.replay_dump_dir.empty()
            ? std::string{}
            : config.replay_dump_dir + "/" + so.name + ".ppgreplay";
    CheckedRun run = run_parallel_checked(sources, *scheduler, ec);
    so.status = std::move(run.status);
    so.result = std::move(run.result);
    if (so.status.ok()) {
      so.makespan_ratio = static_cast<double>(so.result.makespan) / lb;
      so.mean_ct_ratio = so.result.mean_completion / lb;
    }
    out.outcomes.push_back(std::move(so));
  }

  if (config.include_global_lru) {
    GlobalLruConfig gc;
    gc.cache_size = config.cache_size;
    gc.miss_cost = config.miss_cost;
    SchedulerOutcome so;
    so.name = "GLOBAL-LRU";
    // The shared-pool baseline is simulated directly (no box stream to
    // validate), but its failures are captured per-cell all the same.
    try {
      so.result = run_global_lru(sources, gc);
      so.makespan_ratio = static_cast<double>(so.result.makespan) / lb;
      so.mean_ct_ratio = so.result.mean_completion / lb;
    } catch (const PpgException& e) {
      so.status = RunStatus::failure(e.error());
    }
    out.outcomes.push_back(std::move(so));
  }
  return out;
}

Summary makespan_over_seeds(const MultiTraceSource& sources,
                            SchedulerKind kind,
                            const ExperimentConfig& config,
                            std::size_t num_seeds) {
  PPG_CHECK(num_seeds >= 1);
  EngineConfig ec;
  ec.cache_size = config.cache_size;
  ec.miss_cost = config.miss_cost;
  Summary summary;
  for (std::size_t trial = 0; trial < num_seeds; ++trial) {
    auto scheduler = make_scheduler(kind, config.seed + trial * 7919);
    summary.add(static_cast<double>(
        run_parallel(sources, *scheduler, ec).makespan));
  }
  return summary;
}

void ScalingCollector::add(const std::string& scheduler, double p,
                           double ratio) {
  const auto [it, inserted] = index_.emplace(scheduler, series_.size());
  if (inserted) {
    series_.emplace_back(scheduler, Series{{p}, {ratio}});
    return;
  }
  Series& s = series_[it->second].second;
  s.ps.push_back(p);
  s.ratios.push_back(ratio);
}

Table ScalingCollector::fit_table() const {
  Table table({"scheduler", "slope_vs_log2p", "intercept", "r2"});
  for (const auto& [name, s] : series_) {
    if (s.ps.size() < 2) continue;
    const LinearFit fit = fit_log2(s.ps, s.ratios);
    table.row().cell(name).cell(fit.slope).cell(fit.intercept).cell(
        fit.r_squared);
  }
  return table;
}

}  // namespace ppg
