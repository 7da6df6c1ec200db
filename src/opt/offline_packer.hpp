// Offline box packing: an achievable schedule that upper-bounds T_OPT.
//
// Pipeline: for each processor, score the canonical-LRU profile at every
// fixed height 1, 2, 4, ..., pow2_floor(k) by its cost alone (total impact
// and total duration), plus — when the trace is short enough — the exact
// minimum-impact profile from green_opt. A global selection then picks one
// candidate per processor, trading duration against impact across
// processors, and only the chosen fixed-height rung is expanded into a box
// list. The boxes are packed into the shared cache — preserving each
// processor's box order — with a greedy earliest-fit strip-packing pass
// over the height timeline. The result is a legal schedule (total height
// <= k at every tick; every processor's requests complete inside its
// boxes, which compartmentalization makes insensitive to when the boxes
// run), so its makespan is a TRUE upper bound on the offline optimum.
// Together with opt_bounds' certified lower bound this brackets the
// unknowable T_OPT from both sides:
//
//     T_LB  <=  T_OPT  <=  T_pack
//
// and every experiment can report how tight its denominator is.
//
// Cost: per n-request trace, one O(n) previous-access pass
// (trace/stack_distance), then one cost-only O(n) scan per rung until a
// rung's first box covers the whole trace; every taller rung then has the
// same busy time and costs O(1). After selection, one more scan builds the
// chosen rung's box list. The exact profile, when enabled, adds one
// green-OPT DP per processor over the same previous-access table
// (O(n * s * k) each). Every canonical box, in the scans and in the DP,
// is one canonical_box_advance() (green/green_opt.hpp). Packing B boxes
// pops the processors' frontiers in nondecreasing ready time, so the
// skyline drops every segment that ends before the current frontier: it
// holds only the boxes still ahead of it, and each box costs a walk over
// the segments its earliest fit has to skip (O(B^2) in the adversarial
// worst case).
#pragma once

#include <cstddef>
#include <vector>

#include "green/box.hpp"
#include "trace/trace_source.hpp"
#include "util/types.hpp"

namespace ppg {

struct PackedBox {
  ProcId proc = 0;
  Box box;
  Time start = 0;
};

struct OfflinePackResult {
  Time makespan = 0;
  std::vector<Time> completion;     ///< Per-processor last box end.
  double mean_completion = 0.0;
  Impact total_impact = 0;          ///< Sum of packed box impacts.
  Height peak_height = 0;           ///< Max concurrent height (<= k).
  std::vector<PackedBox> schedule;  ///< The witness schedule.
};

struct OfflinePackConfig {
  Height cache_size = 0;  ///< k: the packing budget AND the profile ladder top.
  Time miss_cost = 2;     ///< s.
  /// Cap on requests per processor for the exact DP; longer traces fall
  /// back to a canonical LRU profile at the best fixed height (still a
  /// legal schedule, just a looser upper bound). 0 = no cap.
  std::size_t exact_profile_max_requests = 0;
};

/// Cost coordinates of one candidate profile: total impact and total
/// duration, the only two numbers the selection reads.
struct ProfileCost {
  Impact impact = 0;
  Time duration = 0;

  bool operator==(const ProfileCost&) const = default;
};

/// Costs of the canonical-LRU profile at each fixed height 1, 2, 4, ...,
/// h_max, in that order: back-to-back fresh canonical boxes (height h,
/// duration s*h) until the trace completes, the last box charged only its
/// busy time. `previous` is previous_accesses(trace): a canonical box
/// affords at most h misses, so LRU never evicts inside it, and a box
/// starting empty at position b hits request i iff previous[i] >= b. Each
/// rung is one flat scan, and once a rung's first box covers the whole
/// trace every taller rung costs O(1). pack_offline scores every processor
/// with it; declared here for tests.
std::vector<ProfileCost> fixed_height_costs(
    const std::vector<std::size_t>& previous, Height h_max, Time miss_cost);

/// The box list of the canonical-LRU profile at fixed height h (any rung
/// fixed_height_costs() scored), from the same scan. pack_offline builds it
/// once per processor, for the rung the selection chose.
BoxProfile fixed_height_profile(const std::vector<std::size_t>& previous,
                                Height h, Time miss_cost);

/// Packs one selected profile per processor; returns the witness schedule
/// and its (achievable) makespan. The scans and the DP need random access,
/// so lazy sources are materialized one processor at a time; each
/// processor's previous-access positions (8 B per request) are held from
/// its scan until its chosen box list is built. Throws kCorruptTrace at the
/// first kInvalidPage in a trace, from its previous_accesses() table.
OfflinePackResult pack_offline(const MultiTraceSource& sources,
                               const OfflinePackConfig& config);

}  // namespace ppg
