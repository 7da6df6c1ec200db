// PolicyBoxRunner: BoxRunner with a pluggable in-box eviction policy.
//
// The paper fixes per-box LRU "without loss of generality" — the claim
// being that any replacement policy inside compartmentalized boxes changes
// costs by at most a constant factor (boxes start empty and are short, so
// policy differences cannot compound). This runner exists to measure that
// constant (ablation E12) and to let users experiment with in-box Belady /
// CLOCK / ARC. The hot path stays in BoxRunner (specialized LRU); this
// class trades speed for generality — though residency routes through the
// policy's own index (touch_if_resident) instead of a second hash set.
//
// Requests are pulled from a TraceCursor on every source, so any online
// policy also runs over lazy (generator / file) sources in O(height)
// memory. The exception is kBelady: it is clairvoyant — its next-use table
// requires the whole trace up front — so it takes that table from
// source.materialized() and rejects lazy sources.
#pragma once

#include <memory>

#include "green/box.hpp"
#include "green/green_algorithm.hpp"
#include "paging/eviction_policy.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"

namespace ppg {

class PolicyBoxRunner {
 public:
  /// `kind` selects the in-box policy; kBelady uses global next-use times
  /// (clairvoyant within and across boxes — a lower-bound reference) and
  /// PPG_CHECKs that `source` is materialized. The source's backing data
  /// must outlive the runner.
  PolicyBoxRunner(const TraceSource& source, Time miss_cost, PolicyKind kind,
                  std::uint64_t seed = 1);

  /// Runs over a materialized trace (any policy); the trace must outlive
  /// the runner.
  PolicyBoxRunner(const Trace& trace, Time miss_cost, PolicyKind kind,
                  std::uint64_t seed = 1);

  /// Same semantics as BoxRunner::run_box: serve requests while they fit,
  /// stall the remainder, reset the compartment when `fresh`.
  BoxStepResult run_box(Height height, Time duration, bool fresh = true);

  bool finished() const { return cursor_->done(); }
  std::size_t position() const {
    return static_cast<std::size_t>(cursor_->position());
  }

 private:
  void reset_compartment(Height height);

  std::unique_ptr<TraceCursor> cursor_;
  Time miss_cost_;
  PolicyKind kind_;
  std::uint64_t seed_;
  Height capacity_ = 0;
  Height resident_count_ = 0;
  std::unique_ptr<EvictionPolicy> policy_;
};

/// Replays `trace` through canonical boxes emitted by `pager` with the
/// given in-box policy; returns totals (mirrors run_green_paging).
ProfileRunResult run_green_paging_with_policy(const Trace& trace,
                                              GreenPager& pager,
                                              Time miss_cost, PolicyKind kind,
                                              std::uint64_t seed = 1);

/// Streaming counterpart (kBelady requires a materialized source).
ProfileRunResult run_green_paging_with_policy(const TraceSource& source,
                                              GreenPager& pager,
                                              Time miss_cost, PolicyKind kind,
                                              std::uint64_t seed = 1);

}  // namespace ppg
