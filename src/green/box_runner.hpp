// BoxRunner: executes one processor's request sequence through a sequence
// of compartmentalized boxes.
//
// Semantics (paper Section 2): inside a box of height h the processor runs
// LRU on h slots starting empty; a hit costs 1 tick, a miss costs s ticks.
// If the next request's cost exceeds the time remaining in the box the
// processor stalls to the box boundary and retries in the next box (a
// height-z canonical box therefore always completes at least z requests).
//
// BoxRunner serves boxes of any duration, fresh or continued, so its boxes
// may evict: the engine's boxes and run_profile() replay through it. A
// canonical box never evicts, so the green pagers and the greedy check
// replay on the previous-access table instead (canonical_box_advance in
// green_opt.hpp).
//
// Two loops serve a box, chosen by the input alone:
//
//   - Distance loop, for a source that carries its stack distances
//     (TraceSource::stack_distances(), attached by with_stack_distances()).
//     LRU is a stack algorithm, so in a compartment that opened empty and
//     has taken m misses, request i hits iff d[i] < min(m, h): nothing is
//     evicted before the compartment fills, and after that the inclusion
//     property holds. The loop's whole state is the position and min(m, h),
//     reset when a box opens fresh or changes height.
//   - LRU loop, for every other source. Requests are pulled from a
//     TraceCursor in bulk spans (TraceCursor::next_span into a small
//     resident buffer, one virtual call per span), and the box cache is an
//     LruSet over raw PageIds — one lookup per request (a linear scan of
//     an inline array up to LruSet::kArrayCapacity pages, where most boxes
//     are; an open-addressing probe above), O(height) memory regardless of
//     trace length. A stalled box leaves the request in the span buffer
//     unconsumed, so the next box resumes at the same logical position.
//     Every refilled span is screened (screen_span) for the reserved
//     kInvalidPage sentinel, which must never enter a cache (a trace
//     holding it never carries distances, so it always takes this loop).
//
// In both loops a hit always fits (cost 1, remaining >= 1) and commits
// directly; a miss checks the remaining budget before committing the fault.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "green/box.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"
#include "util/lru_set.hpp"
#include "util/types.hpp"

namespace ppg {

class BoxRunner {
 public:
  /// Runs over `source`: on its stack distances when it carries them,
  /// otherwise over a fresh cursor (O(height) memory, any trace length).
  BoxRunner(const TraceSource& source, Time miss_cost);

  /// Runs over a materialized trace without copying it; the trace must
  /// outlive the runner (so a temporary is rejected at compile time).
  BoxRunner(const Trace& trace, Time miss_cost);
  BoxRunner(Trace&& trace, Time miss_cost) = delete;

  /// Runs one box of the given height and duration from the current
  /// position. `fresh` resets the cache first (compartmentalized box); pass
  /// false to model a continuation at the same height.
  BoxStepResult run_box(Height height, Time duration, bool fresh = true);

  bool finished() const {
    if (distances_ != nullptr) return next_ >= distances_->size();
    return span_pos_ >= span_len_ && cursor_->done();
  }
  std::size_t position() const {
    if (distances_ != nullptr) return next_;
    // The cursor has over-consumed by the unprocessed tail of the span
    // buffer; the logical position discounts it.
    return static_cast<std::size_t>(cursor_->position()) -
           (span_len_ - span_pos_);
  }
  std::uint64_t total_hits() const { return total_hits_; }
  std::uint64_t total_misses() const { return total_misses_; }

 private:
  /// Distance loop: serves requests until the trace ends, the box budget
  /// runs out, or a miss no longer fits.
  void serve_distances(BoxStepResult& step, Time& remaining);

  /// LRU loop: refills and screens the span buffer and drains it through
  /// advance_span until the box budget runs out or a miss no longer fits.
  void serve_lru(BoxStepResult& step, Time& remaining);

  /// Hot loop: serves requests from the resident span buffer until the
  /// buffer drains, the box budget runs out, or a miss no longer fits.
  /// Returns false on a stall (the request stays buffered for the next
  /// box), true otherwise.
  bool advance_span(BoxStepResult& step, Time& remaining);

  // Distance loop state; distances_ is null on the LRU loop.
  std::shared_ptr<const std::vector<std::uint32_t>> distances_;
  std::size_t next_ = 0;  ///< Next request to serve.
  Height filled_ = 0;     ///< min(misses since the compartment opened, h).

  // LRU loop state; the cursor is null and the cache empty on the distance
  // loop.
  std::unique_ptr<TraceCursor> cursor_;
  std::optional<LruSet> cache_;
  std::vector<PageId> span_;    ///< Bulk-pull buffer (kStreamSpan pages).
  std::size_t span_pos_ = 0;    ///< Next unprocessed entry in span_.
  std::size_t span_len_ = 0;    ///< Valid prefix of span_.

  Time miss_cost_;
  std::uint64_t total_hits_ = 0;
  std::uint64_t total_misses_ = 0;
  Height cache_height_ = 0;  ///< Logical capacity of the current box.
};

/// Runs the whole trace through a fixed profile; PPG_CHECKs that the
/// profile is long enough to finish the trace. Returns total time and
/// aggregate counters.
ProfileRunResult run_profile(const Trace& trace, const BoxProfile& profile,
                             Time miss_cost);

/// As above, over any source.
ProfileRunResult run_profile(const TraceSource& source,
                             const BoxProfile& profile, Time miss_cost);

}  // namespace ppg
