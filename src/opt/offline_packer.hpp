// Offline box packing: an achievable schedule that upper-bounds T_OPT.
//
// Pipeline: compute each processor's exact minimum-impact box profile
// (green_opt over the full ladder 1..k), then pack those boxes into the
// shared cache — preserving each processor's box order — with a greedy
// earliest-fit strip-packing pass over the height timeline. The result is
// a legal schedule (total height <= k at every tick; every processor's
// requests complete inside its boxes, which compartmentalization makes
// insensitive to when the boxes run), so its makespan is a TRUE upper
// bound on the offline optimum. Together with opt_bounds' certified lower
// bound this brackets the unknowable T_OPT from both sides:
//
//     T_LB  <=  T_OPT  <=  T_pack
//
// and every experiment can report how tight its denominator is.
//
// Cost: the fixed-height candidates of an n-request trace take one O(n)
// pass recording each request's previous-access position
// (trace/stack_distance) plus one O(n) scan per ladder rung — log2(k) + 1
// scans, no LRU simulation. The exact minimum-impact profile, when
// enabled, adds one green-OPT DP per processor (O(n * s * k) each).
// Packing B boxes is an earliest-fit pass over the skyline, O(B^2) in the
// worst case — intended for analysis-time use, not inner loops.
#pragma once

#include <vector>

#include "green/box.hpp"
#include "trace/trace.hpp"
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

/// A candidate profile for one processor: a legal box sequence plus its
/// cost coordinates (total impact and total duration).
struct CandidateProfile {
  BoxProfile profile;
  Impact impact = 0;
  Time duration = 0;
};

/// The canonical-LRU profile at each fixed height 1, 2, 4, ..., h_max, in
/// that order: back-to-back fresh canonical boxes (height h, duration s*h)
/// until the trace completes, the last box charged only its busy time.
/// Built from one previous-access pass, not an LRU replay per height: a
/// canonical box affords at most h misses, so LRU never evicts inside it,
/// and a box starting empty at position b hits request i iff
/// previous[i] >= b. Each height is then one flat scan. Declared here for
/// tests; pack_offline uses it for every processor.
std::vector<CandidateProfile> fixed_height_candidates(const Trace& trace,
                                                      Height h_max,
                                                      Time miss_cost);

/// Packs per-processor optimal green profiles; returns the witness
/// schedule and its (achievable) makespan. The per-processor DP needs
/// random access, so lazy sources are materialized one processor at a time
/// (peak memory = the largest single trace).
OfflinePackResult pack_offline(const MultiTraceSource& sources,
                               const OfflinePackConfig& config);

}  // namespace ppg
