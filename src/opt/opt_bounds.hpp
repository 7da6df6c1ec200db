// Lower bounds on the offline optimum.
//
// Offline parallel paging is NP-hard, so experiments report competitive
// ratios against a certified lower-bound bracket T_LB <= T_OPT; measured
// ratios are therefore upper bounds on the true ratio and can never flatter
// an algorithm. Three bounds are combined:
//
//   1. max_i |R^i|              — every request takes at least one tick;
//   2. max_i BusyMin_k(R^i)     — a processor cannot beat having the whole
//                                 cache k to itself with Belady eviction:
//                                 n_i + (s-1) * OPT-faults;
//   3. (sum_i I_LB(R^i)) / k    — memory-impact conservation: OPT has at
//                                 most k page-ticks available per tick, and
//                                 servicing R^i under ANY compartmentalized
//                                 profile costs at least I_LB(R^i).
//
// I_LB is impact_lb_stack, O(n): a request either misses (impact >= s, one
// page held for s ticks) or hits inside its box, which requires the box
// height to exceed its stack distance d (impact >= d+1 for that tick).
// Hence I >= sum_r min(s, d_r + 1), with cold requests counting as misses.
// Valid for every compartmentalized box profile. The exact green-OPT DP of
// green_opt.hpp is tighter but costs O(n * s * k) per trace, so it is not
// an estimator here; tests check that it dominates this one.
//
// Both per-trace terms come from one previous_accesses() pass over a flat
// table (trace/stack_distance.hpp). The stack distances are the live-marker
// count over it, or, on a source that carries them (with_stack_distances()
// in trace/trace_source.hpp), are read off the source: there the
// previous-access pass runs only when Belady has to evict. Belady needs no
// cache simulator: with at most k distinct pages its faults are the
// distinct count, and otherwise it is one scan with a flat max-heap of
// (next use, position), next uses read off the same previous-access array.
// The table rejects a reserved kInvalidPage: compute_opt_bounds throws
// kCorruptTrace at its position, with the processor set.
#pragma once

#include <cstdint>
#include <vector>

#include "green/box.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"
#include "util/types.hpp"

namespace ppg {

/// n + (s-1) * Belady faults at capacity `cache`: minimal busy time of the
/// trace on a dedicated cache.
Time busy_min_single(const Trace& trace, Height cache, Time miss_cost);

/// Stack-distance impact lower bound (see header comment): the
/// min(s, d + 1) fold over stack_distances(trace).
Impact impact_lb_stack(const Trace& trace, Time miss_cost);

struct OptBounds {
  Time lb_max_length = 0;
  Time lb_max_single = 0;
  Time lb_impact = 0;

  Time lower_bound() const;
};

struct OptBoundsConfig {
  Height cache_size = 0;
  Time miss_cost = 2;
};

/// The Belady term is clairvoyant, so each lazy source is materialized one
/// processor at a time: peak memory is the largest single trace, not the
/// whole instance, and the bounds stay exact.
OptBounds compute_opt_bounds(const MultiTraceSource& sources,
                             const OptBoundsConfig& config);

/// Per-processor stretch (slowdown): completion time divided by the
/// processor's dedicated-cache minimum busy time (Belady at capacity k).
/// Stretch 1 means "as fast as running alone on the whole cache"; large
/// stretches expose starvation. Empty traces report stretch 1. Lazy
/// sources are materialized per processor like compute_opt_bounds.
std::vector<double> per_proc_stretch(const MultiTraceSource& sources,
                                     const std::vector<Time>& completion,
                                     Height cache_size, Time miss_cost);

}  // namespace ppg
