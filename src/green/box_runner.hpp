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
// Three loops serve a box, chosen by the input and by the box alone:
//
//   - Distance loop, for a source that carries its stack distances
//     (TraceSource::stack_distances(), attached by with_stack_distances()).
//     LRU is a stack algorithm, so in a compartment that opened empty and
//     has taken m misses, request i hits iff d[i] < min(m, h): nothing is
//     evicted before the compartment fills, and after that the inclusion
//     property holds. The loop's whole state is the position and min(m, h),
//     reset when a box opens fresh or changes height.
//
//   Every other source is pulled from a TraceCursor in bulk spans
//   (TraceCursor::next_span into a small resident buffer, one virtual call
//   per span). A stalled box leaves the request in the span buffer
//   unconsumed, so the next box resumes at the same logical position. Every
//   refilled span is screened (screen_span) for the reserved kInvalidPage
//   sentinel, which must never enter a cache (a trace holding it never
//   carries distances, so it never takes the distance loop). Whether the
//   box can fill picks the loop: it can unless it opens (fresh, or a new
//   height) and lasts at most s*h, since such a box affords at most h
//   misses and so never evicts.
//
//   - Membership loop, for a box that cannot fill. Only membership
//     matters, so each request is one probe of an LruFlatIndex (the hash
//     index inside LruSet, without the list), and a hit reorders nothing.
//     The index is reset per box by an epoch bump; an engine owns one and
//     lends it to all its runners, which serve their boxes one at a time,
//     so a small box probes the same few hot cache lines whichever runner
//     it belongs to. The runner keeps only the pages it inserted, each with
//     the stamp of its last touch, so a continuation right after the box
//     (which can fill) rebuilds its LruSet in exact recency order.
//   - LRU loop, for a box that can fill: an LruSet over raw PageIds, one
//     lookup per request, O(height) memory regardless of trace length.
//
// In every loop a hit always fits (cost 1, remaining >= 1) and commits
// directly; a miss checks the remaining budget before committing the fault.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// otherwise over a fresh cursor (O(height) memory, any trace length),
  /// with a membership index of its own.
  BoxRunner(const TraceSource& source, Time miss_cost);

  /// As above, borrowing the membership index `members`, which must
  /// outlive the runner. Runners that share it must not run boxes
  /// concurrently.
  BoxRunner(const TraceSource& source, Time miss_cost, LruFlatIndex& members);

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
  /// A page a membership box inserted, with the clock value of its last
  /// touch.
  struct Member {
    PageId page;
    std::uint64_t touch;
  };

  BoxRunner(const TraceSource& source, Time miss_cost, LruFlatIndex* members);

  /// Distance loop: serves requests until the trace ends, the box budget
  /// runs out, or a miss no longer fits.
  void serve_distances(BoxStepResult& step, Time& remaining);

  /// Readies the LruSet for a box that can fill: empties it when the box
  /// opens, and moves a membership box's pages into it when the box
  /// continues one.
  void open_lru(bool opens);

  /// Refills and screens the drained span buffer; false when the source
  /// is exhausted.
  bool refill();

  /// Membership loop: serves requests until the trace ends, the box budget
  /// runs out, or a miss no longer fits (a stall, which leaves the request
  /// buffered for the next box).
  void serve_members(BoxStepResult& step, Time& remaining);

  /// LRU loop: drains span after span through advance_lru until the box
  /// budget runs out or a miss no longer fits.
  void serve_lru(BoxStepResult& step, Time& remaining);

  /// Serves requests from the resident span buffer until the buffer
  /// drains, the box budget runs out, or a miss no longer fits. Returns
  /// false on a stall (the request stays buffered for the next box), true
  /// otherwise.
  bool advance_lru(BoxStepResult& step, Time& remaining);

  // Distance loop state; distances_ is null on the other loops.
  std::shared_ptr<const std::vector<std::uint32_t>> distances_;
  std::size_t next_ = 0;  ///< Next request to serve.
  Height filled_ = 0;     ///< min(misses since the compartment opened, h).

  // Cursor state; the cursor, the index and the LruSet are null on the
  // distance loop.
  std::unique_ptr<TraceCursor> cursor_;
  std::vector<PageId> span_;    ///< Bulk-pull buffer (kStreamSpan pages).
  std::size_t span_pos_ = 0;    ///< Next unprocessed entry in span_.
  std::size_t span_len_ = 0;    ///< Valid prefix of span_.
  // Membership loop: the index probed (lent, or owned_index_), mapping
  // each page of the current box to its entry in members_, which holds
  // the box's pages in insertion order while on_members_, in its first
  // member_count_ entries (room for the tallest box).
  LruFlatIndex* index_ = nullptr;
  std::unique_ptr<LruFlatIndex> owned_index_;
  std::unique_ptr<Member[]> members_;
  Height members_capacity_ = 0;
  std::uint32_t member_count_ = 0;
  std::uint64_t clock_ = 0;  ///< Requests the membership loop has served.
  bool on_members_ = false;  ///< The compartment lives in members_.
  // LRU loop: built at the first box that can fill.
  std::unique_ptr<LruSet> cache_;

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
