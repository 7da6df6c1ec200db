// Offline optimal green paging (within the normalized box model).
//
// The paper compares green pagers against an OPT that, WLOG (with O(1)
// resource augmentation), allocates compartmentalized canonical boxes with
// power-of-two heights on the ladder. Under that normalization the optimal
// profile is computable exactly by a forward dynamic program over request
// positions: from position i, a box of height h advances the sequence to a
// fixed position next(i, h) at impact cost s*h^2, so minimum-impact
// completion is a shortest path on a DAG with n+1 nodes and L = O(log p)
// outgoing edges per node. With an epoch schedule (Section 4: the ladder's
// bottom rises as processors finish) the edges leaving i are the rungs of
// the ladder in force at i; a single ladder is the one-epoch case.
//
// Each edge is one canonical_box_advance() over the previous-access table
// (no cache is simulated): O(min(s*h, n)) per edge, so the DP costs
// O(n * s * h_max) in the worst case; keep traces passed here to laptop
// scale (~1e5 requests). Both the value and the argmin profile are
// recoverable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "green/box.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace.hpp"

namespace ppg {

/// Where one fresh canonical box stops and how many of its ticks it left
/// unused (its busy time is s*h minus that).
struct BoxAdvance {
  std::size_t end = 0;  ///< First request it did not serve (n at the end).
  Time stall = 0;       ///< Ticks left unused at the box's end.
};

/// Opens a fresh canonical box of height h at position b over `previous`
/// (previous_accesses() of the trace) and serves requests while they fit.
/// Its s*h ticks pay for at most h misses, so it touches at most h distinct
/// pages and LRU never evicts inside it: request i hits iff previous[i] >= b.
/// The one canonical-box hit test: of the DP, of the offline packer's rung
/// scans, of the green pagers' replays and of the greedy check.
inline BoxAdvance canonical_box_advance(std::span<const std::size_t> previous,
                                        std::size_t b, Height h,
                                        Time miss_cost) {
  // Positions are compared signed: kNoPrevious (SIZE_MAX) reads as -1, so
  // a first access fails the hit test with no separate branch.
  static_assert(static_cast<std::ptrdiff_t>(kNoPrevious) == -1);
  const auto n = static_cast<std::ptrdiff_t>(previous.size());
  const auto begin = static_cast<std::ptrdiff_t>(b);
  const std::size_t* prev = previous.data();
  const Time duration = canonical_box(h, miss_cost).duration;
  Time remaining = duration;
  std::ptrdiff_t i = begin;
  for (; i < n; ++i) {
    const Time step =
        static_cast<std::ptrdiff_t>(prev[i]) >= begin ? 1 : miss_cost;
    if (step > remaining) break;  // stall to the box boundary
    remaining -= step;
  }
  return BoxAdvance{static_cast<std::size_t>(i), remaining};
}

struct GreenOptResult {
  Impact impact = 0;     ///< Minimum memory impact to finish the trace.
  Time time = 0;         ///< Duration of the optimal profile.
  BoxProfile profile;    ///< One optimal box sequence (final box clipped).
};

/// Exact minimum-impact profile with canonical boxes whose every height
/// lies on the ladder of its starting position. The final box is charged
/// only for the ticks actually used (matching the accounting of
/// run_green_paging / run_profile, so ratios are >= 1). Throws
/// kCorruptTrace at the first kInvalidPage in `trace`.
GreenOptResult green_opt(const Trace& trace, const EpochSchedule& schedule,
                         Time miss_cost);

/// The same DP over a trace's previous-access table. A prefix of the table
/// is the table of the trace's prefix, so prefixes need no copy.
GreenOptResult green_opt(std::span<const std::size_t> previous,
                         const EpochSchedule& schedule, Time miss_cost);

/// Brute-force reference: enumerates all box sequences up to a depth bound,
/// simulating each box's LRU (exponential; for unit tests on tiny traces
/// only, as an oracle independent of the no-eviction argument above).
Impact green_opt_impact_bruteforce(const Trace& trace,
                                   const EpochSchedule& schedule,
                                   Time miss_cost, std::uint32_t max_boxes);

}  // namespace ppg
