// Mattson stack-distance (reuse-distance) analysis.
//
// The stack distance of a request is the number of DISTINCT pages accessed
// since the previous access to the same page (infinity for first accesses).
// Under LRU with capacity c, a request hits iff its stack distance < c, so
// one profile yields the fault count for every cache size at once — the
// classic tool for reasoning about how much cache a processor "wants",
// which is exactly the marginal-benefit structure the paper's scheduler
// must cope with.
//
// Batch passes (previous_accesses, stack_distances,
// packed_stack_distances) are one loop over the trace:
//   - The previous access of each request comes from a flat open-addressing
//     table keyed by PageId (Fibonacci hashing, load <= 1/2, grown with the
//     number of distinct pages), not a node-per-page hash map. Its empty
//     key is the reserved kInvalidPage, and a request for it throws
//     kCorruptTrace at its position: the table is the sentinel screen of
//     every pass here that reads a Trace, and so of every whole-trace
//     consumer built on them.
//   - The distance of request i with previous access p is the number of
//     pages whose latest access lies in (p, i). One bit per position marks
//     each page's latest access; a reuse clears the bit at p and sets the
//     bit at i. A window that starts in the last two 256-position groups is
//     counted word by word, with no tree on either update; the sweep's
//     traces reuse a page a mean 18.8 requests later, so that is the common
//     case. Older groups are committed, once each, to a Fenwick tree of
//     per-group counts, so a long window costs a few word counts plus two
//     walks over n / 256 groups: O(log n) per request, nothing linear in
//     the window. Memory: n / 8 B of bits next to the output, and the
//     table, O(distinct pages).
// OnlineStackDistance below instead allocates compact slots in a Fenwick
// tree over live pages and renumbers them when they run out, so a single
// pass over an arbitrarily long stream needs only O(distinct pages) memory
// at O(log) amortized cost per request.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_source.hpp"

namespace ppg {

inline constexpr std::uint64_t kInfiniteDistance = UINT64_MAX;

/// Online Mattson distances: feed requests one at a time, get the stack
/// distance of each. Memory is O(distinct pages seen), independent of how
/// many requests have been fed — the streaming building block behind the
/// cursor-based trace-stats fold.
class OnlineStackDistance {
 public:
  /// Returns the stack distance of this access (kInfiniteDistance for the
  /// first access to `page`), then records the access.
  std::uint64_t access(PageId page);

  std::uint64_t num_distinct() const { return slot_of_.size(); }

 private:
  void tree_add(std::size_t slot, std::int64_t delta);
  std::uint64_t tree_prefix(std::size_t slot) const;  ///< Sum over [0, slot].
  /// Renumbers live pages into [0, m) preserving recency order and resizes
  /// the tree to ~2m slots; amortizes to O(log) per access.
  void compact();

  std::unordered_map<PageId, std::uint64_t> slot_of_;  // page -> live slot
  std::vector<std::uint64_t> tree_;  // Fenwick over slot occupancy
  std::uint64_t next_slot_ = 0;
};

inline constexpr std::size_t kNoPrevious = SIZE_MAX;

/// Per-request position of the previous access to the same page
/// (kNoPrevious for a first access), from one O(n) pass over a flat
/// table. A cache that starts empty at position b can hit request i >= b
/// only if previous[i] >= b: a page last touched before b is not resident.
/// Throws kCorruptTrace at the first kInvalidPage.
std::vector<std::size_t> previous_accesses(const Trace& trace);

/// Per-request stack distances, one pass finding previous accesses and
/// counting live markers together; entry i is kInfiniteDistance when
/// request i is the first access to its page.
std::vector<std::uint64_t> stack_distances(const Trace& trace);

/// The same live-marker count over an already computed previous_accesses()
/// vector, for callers that also need `previous` itself.
std::vector<std::uint64_t> stack_distances(
    const std::vector<std::size_t>& previous);

/// stack_distances() in 32 bits, kColdDistance for a first access: the
/// form a source carries once with_stack_distances() attached it (see
/// trace_source.hpp). A finite distance is below the trace length, so this
/// requires trace.size() < kColdDistance and then loses nothing.
std::vector<std::uint32_t> packed_stack_distances(const Trace& trace);

/// Reference O(n * m) implementation (explicit LRU stack) for testing.
std::vector<std::uint64_t> stack_distances_naive(const Trace& trace);

}  // namespace ppg
