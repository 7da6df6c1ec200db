// PolicyBoxRunner: BoxRunner with a pluggable in-box eviction policy.
//
// The paper fixes per-box LRU "without loss of generality" — the claim
// being that any replacement policy inside compartmentalized boxes changes
// costs by at most a constant factor (boxes start empty and are short, so
// policy differences cannot compound). In a canonical box (s*h ticks) the
// constant is exactly 1: the box pays for at most h misses, so no policy
// ever evicts and every policy replays a pager's boxes exactly as
// run_green_paging() does (pinned for every PolicyKind by the
// InBoxPolicyConservation tests). Only longer boxes evict, so this runner
// exists to measure the policy spread there (ablation E12's 4x and 16x
// boxes) and to let users experiment with in-box Belady / CLOCK / ARC.
// Residency routes through the policy's own index (touch_if_resident)
// instead of a second hash set.
//
// Requests are pulled from a TraceCursor in spans on every source, as in
// BoxRunner's cursor loops: a stalled request stays buffered for the next
// box, and every refill passes the same kInvalidPage screen (screen_span). So
// any online policy also runs over lazy (generator / file) sources in
// O(height) memory. The exception is kBelady: it is clairvoyant — its
// next-use table requires the whole trace up front — so it builds that
// table from source.materialized(), rejects lazy sources, and is screened
// for kInvalidPage by the previous-access table when it is built.
#pragma once

#include <memory>
#include <vector>

#include "green/box.hpp"
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

  bool finished() const { return span_pos_ >= span_len_ && cursor_->done(); }
  std::size_t position() const {
    // The cursor has over-consumed by the unserved tail of the span buffer.
    return static_cast<std::size_t>(cursor_->position()) -
           (span_len_ - span_pos_);
  }

 private:
  void reset_compartment(Height height);

  std::unique_ptr<TraceCursor> cursor_;
  std::vector<PageId> span_;  ///< Bulk-pull buffer.
  std::size_t span_pos_ = 0;  ///< Next unserved entry in span_.
  std::size_t span_len_ = 0;  ///< Valid prefix of span_.
  Time miss_cost_;
  PolicyKind kind_;
  std::uint64_t seed_;
  Height capacity_ = 0;
  Height resident_count_ = 0;
  std::unique_ptr<EvictionPolicy> policy_;
};

}  // namespace ppg
