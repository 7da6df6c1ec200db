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
// Implementation: Fenwick tree holding a 1 at the most recent access slot
// of each currently "live" page; the distance of a request is the count of
// live slots after its page's previous slot. The batch API indexes the tree
// by request position (O(n) memory); OnlineStackDistance below instead
// allocates compact slots and renumbers live pages when they run out, so a
// single pass over an arbitrarily long stream needs only O(distinct pages)
// memory at the same O(log) amortized cost per request.
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
/// cursor-based profile/stats/impact folds.
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
/// (kNoPrevious for a first access), from one O(n) hash pass. A cache that
/// starts empty at position b can hit request i >= b only if
/// previous[i] >= b: a page last touched before b is not resident.
std::vector<std::size_t> previous_accesses(const Trace& trace);

/// Per-request stack distances, one Fenwick pass over previous_accesses();
/// entry i is kInfiniteDistance when request i is the first access to its
/// page.
std::vector<std::uint64_t> stack_distances(const Trace& trace);

/// The same Fenwick pass over an already computed previous_accesses()
/// vector, for callers that also need `previous` itself.
std::vector<std::uint64_t> stack_distances(
    const std::vector<std::size_t>& previous);

/// stack_distances() in 32 bits, kColdDistance for a first access: the
/// form a source carries once with_stack_distances() attached it (see
/// trace_source.hpp). A finite distance is below the trace length, so this
/// requires trace.size() < kColdDistance and then loses nothing.
std::vector<std::uint32_t> packed_stack_distances(const Trace& trace);

/// Aggregated profile: counts[d] = number of requests with stack distance
/// exactly d (d < max_tracked); cold_misses counts first accesses;
/// far counts distances >= max_tracked.
struct StackDistanceProfile {
  std::vector<std::uint64_t> counts;
  std::uint64_t cold_misses = 0;
  std::uint64_t far = 0;

  /// LRU faults with capacity c: cold misses + requests with distance >= c.
  /// Requires c <= counts.size().
  std::uint64_t lru_faults(std::uint64_t capacity) const;
};

StackDistanceProfile stack_distance_profile(const Trace& trace,
                                            std::uint64_t max_tracked);

/// Single-pass profile over a cursor in O(distinct pages) memory; the Trace
/// overload delegates here, so the two are identical by construction.
StackDistanceProfile stack_distance_profile(TraceCursor& cursor,
                                            std::uint64_t max_tracked);

/// Reference O(n * m) implementation (explicit LRU stack) for testing.
std::vector<std::uint64_t> stack_distances_naive(const Trace& trace);

}  // namespace ppg
