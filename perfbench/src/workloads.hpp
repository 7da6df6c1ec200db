// The benchmark's three workloads, each driving the library only through
// its public calls:
//
//  - service_churn: PagingService under DET-PAR with an open-loop Poisson
//    arrival schedule (in simulated time), mixed tenants and mid-run
//    departures. Scheduler, admission and the engine event loop dominate.
//  - engine_long: batch run_parallel_checked under RAND-PAR on few
//    processors with tall boxes and long streamed hetero-mix traces. Trace
//    cursors and the streamed BoxRunner dominate; the scheduler is idle.
//  - sweep_grid: the E3/E4 cell grid (materialized), each cell running
//    run_instance plus pack_offline on a bench_support sweep pool. The
//    researcher's path: opt bounds, packing, GLOBAL-LRU and validation.
//
// A workload builds its inputs from the seed in setup(), then runs whole
// passes over them. A pass returns a digest of every simulated output, so
// repeated, traced and replayed passes can be compared bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// Instance sizes. The defaults are the benchmark's; the self-test shrinks
/// them.
struct Sizes {
  // service_churn
  std::uint64_t tenants = 6000;
  std::size_t tenant_requests = 256;  ///< Mean requests per tenant.
  ppg::Height service_k = 4096;
  // engine_long
  ProcId engine_procs = 16;
  std::size_t engine_requests = 500000;  ///< Per processor.
  std::size_t engine_instances = 4;
  // sweep_grid
  ProcId sweep_max_p = 128;
  std::size_t sweep_requests = 4000;  ///< Per processor.
  std::size_t sweep_jobs = 0;         ///< 0: min(nproc, 4).
};

/// Simulated outputs of one pass: pure functions of the seed.
struct SimOutputs {
  double makespan = 0;         ///< Mean makespan over the pass's runs.
  double mean_completion = 0;  ///< Mean of the runs' mean completion.
  double fault_rate = 0;       ///< Misses / requests over the pass.
};

struct PassResult {
  std::uint64_t wall_ns = 0;
  std::uint64_t requests = 0;  ///< Simulated page requests served.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  /// Host latency of each operation: a tenant's sojourn (service_churn), a
  /// run (engine_long) or the whole grid (sweep_grid).
  std::vector<double> latency_ms;
  std::vector<double> step_us;  ///< Per PagingService::step (service_churn).
  std::vector<double> cell_ms;  ///< Per grid cell (sweep_grid).
  SimOutputs sim;
};

/// Host time by layer, summed over the traced passes (pass-level fields)
/// plus the one replay pass (replay_* and mirror_* fields).
struct Layers {
  std::uint64_t passes = 0;
  std::uint64_t busy_ns = 0;     ///< Driver thread time (sweep: sum of cells).
  std::uint64_t covered_ns = 0;  ///< Part of busy_ns inside library calls.

  SchedSpans sched;  ///< The scheduler proper.
  std::uint64_t validate_ns = 0;
  std::uint64_t validated_boxes = 0;
  TraceSpans trace;
  std::uint64_t engine_ns = 0;  ///< Inside run_parallel_checked.
  std::uint64_t events = 0;
  std::uint64_t boxes = 0;

  std::uint64_t submit_ns = 0;
  std::uint64_t submits = 0;
  std::uint64_t accepted = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t peak_active = 0;
  std::uint64_t peak_queued = 0;

  std::uint64_t bounds_ns = 0;
  std::uint64_t pack_ns = 0;
  std::uint64_t global_lru_ns = 0;
  std::uint64_t global_lru_requests = 0;

  // Filled by Workload::replay.
  ReplayTotals replay;
  TraceSpans replay_trace;
  std::uint64_t mirror_step_ns = 0;  ///< service_churn: bare EngineStepper.
  std::uint64_t mirror_events = 0;
  SchedSpans mirror_sched;
  TraceSpans mirror_trace;
  double sim_xi = 0;
  std::uint64_t sim_max_faults = 0;

  /// Adds every pass-level field of `cell` (sweep cells trace on their own
  /// threads, then merge).
  void merge_pass_fields(const Layers& cell);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`, replacing any previous ones.
  virtual void setup(std::uint64_t seed) = 0;

  /// One pass over the inputs; traced (decorated and timed into `layers`)
  /// when `layers` is non-null.
  virtual PassResult pass(Layers* layers) = 0;

  /// Re-runs one pass recording every box, replays the boxes through
  /// BoxRunner, and fills the replay fields of `layers`. Returns the number
  /// of replayed runs whose counts differ from the engine's (0 when sound).
  virtual std::uint64_t replay(Layers& layers) = 0;

  /// Operations the replay checks (for the attempted count).
  virtual std::uint64_t replay_checks() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Sizes& sizes);

std::vector<std::string> workload_names();

/// Sweep pool size sweep_grid uses: Sizes::sweep_jobs, or min(nproc, 4).
std::size_t sweep_jobs(const Sizes& sizes);

}  // namespace perfbench
