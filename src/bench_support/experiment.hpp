// Shared machinery for the benchmark harness: run a set of schedulers on an
// instance, compute ratio rows against the OPT lower bound, and summarize
// scaling shapes with log-fits.
//
// Runs go through the engine's checked entry point, and every box scheduler
// is wrapped in a ValidatingScheduler: a scheduler breaking the box
// contract, or a cell tripping the watchdog, is captured in that cell's
// SchedulerOutcome::status (with an optional replay dump) instead of
// aborting the whole sweep.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/metrics.hpp"
#include "core/scheduler_factory.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/trace_source.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ppg {

struct ExperimentConfig {
  Height cache_size = 0;
  Time miss_cost = 2;
  std::uint64_t seed = 1;
  bool include_global_lru = true;
  /// Watchdog forwarded to the engine for every cell.
  Time max_time = Time{1} << 60;
  /// Per-cell deadline in simulated engine steps (EngineConfig::max_events),
  /// so a runaway cell fails deterministically with kCellBudgetExceeded
  /// instead of hanging the sweep. 0 = unlimited.
  std::uint64_t cell_event_budget = 0;
  /// When non-empty, failing cells write a replay dump
  /// "<dir>/<scheduler>.ppgreplay" (see core/replay.hpp).
  std::string replay_dump_dir;
  /// Testing hook: corrupt every box scheduler with this fault to exercise
  /// the harness's error capture.
  std::optional<FaultInjectionConfig> inject_fault;
  /// Generator spec of the instance (see make_source_from_trace_spec),
  /// forwarded to the engine so replay dumps record (spec, seed) instead
  /// of the full request vectors.
  std::string trace_spec;
};

struct SchedulerOutcome {
  std::string name;
  /// Per-cell capture: !status.ok() means this cell failed (the ratios are
  /// meaningless) but the rest of the sweep still ran.
  RunStatus status;
  ParallelRunResult result;
  double makespan_ratio = 0.0;   ///< vs. OPT lower bound.
  double mean_ct_ratio = 0.0;    ///< mean completion vs. LB/... see .cpp.
};

struct InstanceOutcome {
  OptBounds bounds;
  std::vector<SchedulerOutcome> outcomes;

  /// Number of cells whose run failed.
  std::size_t num_failed() const;
};

/// Runs every scheduler in `kinds` (plus GLOBAL-LRU if configured) on the
/// instance and computes ratios against the OPT lower bound. Resident
/// traces get their stack distances attached for the length of the call
/// (MultiTraceSource::with_stack_distances), so the bounds and the box
/// runners share one distance pass per trace.
InstanceOutcome run_instance(const MultiTraceSource& instance,
                             const std::vector<SchedulerKind>& kinds,
                             const ExperimentConfig& config);

/// Makespan distribution of one scheduler across seeds (randomized
/// schedulers need aggregation; deterministic ones return a point mass).
Summary makespan_over_seeds(const MultiTraceSource& sources,
                            SchedulerKind kind,
                            const ExperimentConfig& config,
                            std::size_t num_seeds);

/// Collects (p, ratio) points per scheduler across a sweep and reports the
/// slope of ratio vs log2(p).
class ScalingCollector {
 public:
  void add(const std::string& scheduler, double p, double ratio);

  /// One row per scheduler: slope, intercept, R^2 of ratio ~ log2(p).
  Table fit_table() const;

 private:
  struct Series {
    std::vector<double> ps;
    std::vector<double> ratios;
  };
  /// Series in first-add order (fit_table rows keep insertion order); the
  /// map gives O(1) lookup by scheduler name instead of a linear scan per
  /// add (quadratic over many-scheduler sweeps).
  std::vector<std::pair<std::string, Series>> series_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace ppg
