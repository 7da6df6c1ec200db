// Scheduler interface for parallel paging.
//
// A BoxScheduler decides, online, the box (height x time interval) each
// processor runs in next. The engine pulls: whenever a processor's current
// box ends, it asks the scheduler for the next one. Schedulers in this
// library are *oblivious* in the paper's sense — the only dynamic
// information they consult is which processors are still active (exposed
// through EngineView), never the request sequences themselves.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace ppg {

struct BoxAssignment {
  Height height = 0;
  Time start = 0;  ///< >= the `now` passed to next_box (gap = stall).
  Time end = 0;    ///< > start.
  /// Compartmentalized box: reset the processor's cache at `start`. False
  /// models a continuation at the same height (used by EQUI and ablations).
  bool fresh = true;
};

/// Instance geometry handed to the scheduler once at start.
struct SchedulerContext {
  ProcId num_procs = 0;   ///< p.
  Height cache_size = 0;  ///< k (the un-augmented budget OPT is given).
  Time miss_cost = 0;     ///< s.
};

/// The scheduler's window into engine state.
class EngineView {
 public:
  virtual ~EngineView() = default;
  virtual ProcId num_procs() const = 0;
  virtual ProcId active_count() const = 0;
  virtual bool is_active(ProcId proc) const = 0;

  /// The active processor ids in ascending order, size active_count().
  /// The view keeps this list current as processors arrive and leave, so
  /// reading it is O(1) and copying it O(active) — never O(processors
  /// ever admitted) — with no allocation on the view's side. Schedulers
  /// snapshot it at every chunk/phase start and rank a processor in the
  /// snapshot (RAND-PAR by binary search, DET-PAR through a position
  /// table over the snapshot's id span). The reference is invalidated by
  /// the next activation or deactivation.
  virtual const std::vector<ProcId>& active_ids() const = 0;

  /// Visits active_ids() in order (ascending id), without allocating.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (const ProcId proc : active_ids()) fn(proc);
  }
};

class BoxScheduler {
 public:
  virtual ~BoxScheduler() = default;

  virtual void start(const SchedulerContext& ctx, const EngineView& view) = 0;

  /// Next box for `proc`, starting at or after `now`. The engine calls this
  /// exactly when `proc` holds no box, in global time order.
  virtual BoxAssignment next_box(ProcId proc, Time now,
                                 const EngineView& view) = 0;

  /// `proc` completed its sequence at time `now` (called before any
  /// same-time next_box, so active counts are already updated).
  virtual void notify_finished(ProcId proc, Time now, const EngineView& view) {
    (void)proc;
    (void)now;
    (void)view;
  }

  /// Active-set growth: `proc` joined the instance at time `now` (online
  /// tenant arrival through EngineStepper / PagingService). Called after
  /// the view already reports the processor active and before any
  /// same-time next_box, so schedulers with per-processor or phase state
  /// can grow/re-phase here. Batch runs fix the processor set up front and
  /// never call this, so the default no-op preserves their behavior.
  virtual void notify_arrived(ProcId proc, Time now, const EngineView& view) {
    (void)proc;
    (void)now;
    (void)view;
  }

  /// Active-set shrink without completion: `proc` was forcibly departed at
  /// time `now` (PagingService::depart). The view already reports it
  /// inactive. Distinct from notify_finished so schedulers can tell a
  /// cancelled tenant from a drained one; the default treats both alike.
  virtual void notify_departed(ProcId proc, Time now, const EngineView& view) {
    notify_finished(proc, now, view);
  }

  virtual const char* name() const = 0;
};

}  // namespace ppg
