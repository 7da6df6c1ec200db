// The parallel paging engine.
//
// Event-driven executor of the paper's model: p processors advance through
// their request sequences inside scheduler-assigned boxes; a hit costs 1
// tick, a miss costs s; a request whose cost does not fit in the box's
// remaining time stalls the processor to the box boundary. Events (box
// expirations, completions) are processed in strict global-time order so
// schedulers always observe consistent active counts; within a box a
// processor's progress depends only on its own trace, so each box is
// fast-forwarded in one step. Event times are integers that never fall
// below the last batch time, so pending events sit in a monotone radix
// queue (O(1) amortized per event) whose batch pops keep the exact
// (time, kind, proc, seq) order. Because no event produced while draining
// the batch at time t can land back at time t, the engine drains whole
// same-time batches in two in-order passes: every scheduler call of the
// batch first, then each granted box's fast-forward and fold (see
// DESIGN.md §10). The engine runs on the calling thread.
//
// One batch driver, run_parallel_checked(), loops over EngineStepper and
// returns a structured RunStatus; when EngineConfig::replay_dump_path is
// set, a failed run also serializes a replay dump (trace spec or full
// traces, plus config + scheduler spec + seed) so the failure can be
// re-executed offline by examples/replay_dump. run_parallel() is the same
// driver with any failure made fatal (PPG_CHECK abort).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/scheduler.hpp"
#include "trace/trace_source.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace ppg {

struct EngineConfig {
  Height cache_size = 0;  ///< k.
  Time miss_cost = 2;     ///< s.
  /// Watchdog against misbehaving schedulers: run_parallel() aborts
  /// (PPG_CHECK) and run_parallel_checked() returns kWatchdogTimeout if
  /// simulated time passes this.
  Time max_time = Time{1} << 60;
  /// Per-run budget on processed engine *events* — the sweep layer's
  /// per-cell deadline. One unit is charged per event the engine pops: a
  /// box grant (exactly one per box issued, regardless of how many
  /// thousands of page requests that box fast-forwards), a processor
  /// completion, or an online arrival (EngineStepper). The budget does NOT
  /// count page requests, and it does not count event *batches* either —
  /// every event inside a same-time batch is charged individually
  /// (pinned by EngineStepperTest.EventBudgetCountsEventsNotRequests).
  /// Counted in simulated steps, not wall-clock, so exhausting it is
  /// deterministic and reproducible from the seed. 0 means unlimited;
  /// run_parallel_checked() returns kCellBudgetExceeded when the budget is
  /// spent, run_parallel() aborts (PPG_CHECK) like any other fatal engine
  /// condition. The units consumed are surfaced in
  /// CheckedRun::events_consumed so admission layers (PagingService) can
  /// account against the budget.
  std::uint64_t max_events = 0;
  /// Per-processor event budget: the number of boxes one processor may be
  /// granted before it is quarantined with kTenantBudgetExceeded (forced
  /// departure at the box boundary, see contain_proc_failures below for the
  /// mechanics). Unlike max_events — which fails the whole run — a breach
  /// here evicts only the runaway processor; everyone else proceeds
  /// byte-identically. Counted in simulated units, so tripping it is
  /// deterministic. 0 means unlimited.
  std::uint64_t proc_event_budget = 0;
  /// Per-processor sojourn deadline, in simulated time since activation: a
  /// processor still requesting boxes `proc_deadline` ticks after it
  /// activated is quarantined with kTenantDeadlineExceeded. 0 = unlimited.
  Time proc_deadline = 0;
  /// Contained-failure mode. When false (the default, the batch contract),
  /// a PpgException thrown while fast-forwarding a box — a corrupt trace, a
  /// hostile page id — fails the whole run, exactly as before. When true,
  /// the failure quarantines only the offending processor: its box is
  /// charged as fully stalled (no hit/miss counters), the structured
  /// ppg::Error is preserved, and the processor is forced out at the box
  /// boundary through the same notify_departed path a depart() uses, so the
  /// scheduler — and therefore every other processor's box sequence — sees
  /// a quarantine exactly as it would see a departure. The quarantined
  /// completion is surfaced via StepCompletion::quarantined/error.
  /// Per-processor budget/deadline breaches (above) always quarantine,
  /// independent of this flag: configuring them is the opt-in.
  bool contain_proc_failures = false;
  /// Ignored: the peak concurrent height is always tracked, online, in
  /// memory bounded by the live boxes. Kept only because
  /// perfbench/src/workloads.cpp still assigns it.
  bool track_memory_timeline = true;
  /// Optional observer invoked for every box the scheduler issues (after
  /// validation, before simulation). Used by tests to verify scheduler
  /// properties such as DET-PAR's well-roundedness.
  std::function<void(ProcId, const BoxAssignment&)> on_box;

  // --- failure-replay metadata (used by the batch driver only) ---
  /// When non-empty, the batch driver writes a replay dump here on any
  /// failure.
  std::string replay_dump_path;
  /// Scheduler factory spec recorded in the dump (see
  /// make_scheduler_from_spec); when empty the scheduler's name() is
  /// recorded instead.
  std::string scheduler_spec;
  /// Seed recorded in the dump (whatever seeded the scheduler).
  std::uint64_t seed = 0;
  /// Generator spec of the workload (see make_source_from_trace_spec).
  /// When set, a replay dump records this spec instead of the full request
  /// vectors, so dumps of generator-backed runs stay O(bytes of spec).
  std::string trace_spec;
};

/// Result of a checked run: `result` is complete when status.ok(), partial
/// (metrics up to the failure point) otherwise.
struct CheckedRun {
  RunStatus status;
  ParallelRunResult result;
  /// Units charged against EngineConfig::max_events: the number of engine
  /// events processed (box grants + completions + online arrivals),
  /// including the event whose charge exhausted the budget on a
  /// kCellBudgetExceeded failure. Equals num_boxes + completions on a
  /// clean batch run.
  std::uint64_t events_consumed = 0;
};

/// One completion surfaced by EngineStepper::last_completions().
struct StepCompletion {
  ProcId proc = 0;
  Time time = 0;
  bool departed = false;  ///< Forced out via depart(), not drained.
  /// Quarantined: evicted by the containment layer (runner failure,
  /// per-processor budget, or deadline) rather than by the caller. When
  /// set, `error` carries the structured cause and `departed` is false —
  /// a quarantine outranks a racing depart() on the same processor.
  bool quarantined = false;
  Error error;  ///< The structured cause; kOk unless quarantined.
};

/// The engine's event loop, inverted into a resumable state machine.
///
/// run_parallel_checked() is a thin loop over this class, so a batch run
/// and a stepped run are the same code path and produce byte-identical
/// output. On top of the batch contract the stepper adds what a
/// long-lived service needs:
///
///  - start() seeds the initial cohort's events after the scheduler sees
///    the instance geometry; processors added before start() form that
///    cohort exactly as the sources passed to run_parallel_checked would.
///  - step() drains exactly one global-time event batch (scheduler pass,
///    then box simulation and fold, both in event order — see DESIGN.md
///    §10) and returns false once the run is complete or failed. Between steps the
///    caller may inspect any accessor, add processors, or request
///    departures; interleaving those calls with step() is deterministic.
///  - add_processor(source, arrival) admits a processor mid-run: it
///    becomes active when the engine reaches `arrival`, the scheduler is
///    told through BoxScheduler::notify_arrived, and its first box request
///    follows in a same-time successor batch.
///  - depart(proc) cancels a processor at its next box boundary (the box
///    in flight completes); the scheduler is told through notify_departed.
///  - finish() computes the final metrics (makespan, mean completion,
///    peak concurrent height) and returns the CheckedRun.
///
/// Per-processor resources (the BoxRunner with its cursor and box cache)
/// are released as soon as a processor finishes or departs, so a service
/// that admits N tenants over time holds memory proportional to the
/// *concurrently active* tenants, not N.
class EngineStepper {
 public:
  /// `scheduler` must outlive the stepper; `config` is copied.
  EngineStepper(BoxScheduler& scheduler, const EngineConfig& config);
  ~EngineStepper();
  EngineStepper(const EngineStepper&) = delete;
  EngineStepper& operator=(const EngineStepper&) = delete;

  /// Pre-start: adds a processor to the initial cohort (arrival t = 0).
  /// Returns its ProcId (dense, in call order).
  ProcId add_processor(std::shared_ptr<const TraceSource> source);

  /// Calls BoxScheduler::start with the initial cohort and seeds its
  /// events. Must be called exactly once, before the first step(). A
  /// cohort may be empty (a service that starts idle); processors then
  /// join via the arrival overload.
  void start();

  /// Post-start: admits a processor that becomes active at `arrival`,
  /// which must be >= now() (the engine cannot rewrite processed time).
  ProcId add_processor(std::shared_ptr<const TraceSource> source,
                       Time arrival);

  /// Requests that `proc` leave at its next box boundary. Idempotent; a
  /// processor that finishes first simply finishes.
  void depart(ProcId proc);

  /// Processes one global-time event batch. Returns true while more
  /// batches remain (i.e. the run is neither complete nor failed).
  bool step();

  bool started() const;
  /// True once the run can make no more progress: failed, or no pending
  /// events (all admitted processors finished or departed).
  bool done() const;
  bool has_pending() const;  ///< Any event still queued?
  /// Time of the next pending batch. Requires has_pending(). A pure peek:
  /// arrivals may still be added anywhere in [now(), frontier()].
  Time frontier() const;
  /// Time of the last processed batch (0 before the first step).
  Time now() const;

  const RunStatus& status() const;
  std::uint64_t events_consumed() const;
  ProcId num_procs() const;
  ProcId active_count() const;
  /// The engine's live view of the active set — what schedulers observe.
  const EngineView& view() const;
  std::uint64_t proc_hits(ProcId proc) const;
  std::uint64_t proc_misses(ProcId proc) const;
  /// Completions (natural or departed) surfaced by the most recent step().
  const std::vector<StepCompletion>& last_completions() const;

  /// Final metrics. Requires done(); call once after the stepping loop.
  CheckedRun finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The batch driver: runs every processor of `sources` from t = 0 to
/// completion on one EngineStepper. Each processor pulls its requests from
/// a TraceCursor, so peak memory is O(p * box height) plus whatever the
/// sources buffer, independent of trace length; a materialized MultiTrace
/// converts to a non-owning view and must outlive the call. Requires at
/// least one processor. Scheduler misbehaviour (a malformed box, a
/// PpgException thrown by a decorator such as ValidatingScheduler) or a
/// watchdog trip comes back as a structured RunStatus, with a replay dump
/// written if configured.
CheckedRun run_parallel_checked(const MultiTraceSource& sources,
                                BoxScheduler& scheduler,
                                const EngineConfig& config);

/// As run_parallel_checked, but any failure is fatal (PPG_CHECK abort).
ParallelRunResult run_parallel(const MultiTraceSource& sources,
                               BoxScheduler& scheduler,
                               const EngineConfig& config);

}  // namespace ppg
