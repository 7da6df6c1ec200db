// GLOBAL-LRU: the "do nothing special" baseline — all p processors share a
// single LRU pool of k pages with no explicit partitioning.
//
// This is what a plain shared cache does in practice. It lives outside the
// box model (no compartments, no allocation decisions), so it is simulated
// directly: each processor issues its next request as soon as the previous
// one is served; a hit costs 1 tick, a miss costs s; evictions follow the
// global recency order. Requests are served in deterministic time order
// (ties by processor id).
//
// Ticks are integers and a served processor is ready again 1 tick later
// (hit) or s ticks later (miss), so the processors ready at tick T are two
// ascending runs: the hits served at T-1 and the misses served at T-s.
// Misses land in the order they were served, so a FIFO of (land time,
// proc) keeps them sorted, and merging its front with the hit run
// reproduces a (time, proc) priority queue's order in O(1) per request,
// with no empty ticks visited and O(p) memory whatever s is. Pages come
// through a 64-page next_span buffer per processor (one virtual call per
// span), and each request probes the cache once (try_touch, then
// insert_absent on a miss).
#pragma once

#include <memory>

#include "core/metrics.hpp"
#include "core/scheduler.hpp"
#include "trace/trace_source.hpp"
#include "util/types.hpp"

namespace ppg {

struct GlobalLruConfig {
  Height cache_size = 0;  ///< k.
  Time miss_cost = 2;     ///< s.
};

/// Streams each processor's requests; memory is O(k + p) regardless of
/// trace length. Requires at least one processor.
ParallelRunResult run_global_lru(const MultiTraceSource& sources,
                                 const GlobalLruConfig& config);

/// Box-model facade of the shared-pool baseline, for the robustness layer:
/// each processor holds a chained continuation box of height
/// max(1, pow2_floor(k/p)) — a power of two, so it satisfies the paper's
/// height-ladder contract and can be wrapped by ValidatingScheduler /
/// FaultInjectingScheduler (the measured GLOBAL-LRU baseline remains the
/// direct simulation above, which has no box stream to decorate).
/// name() is "GLOBAL-LRU(box)".
std::unique_ptr<BoxScheduler> make_global_lru_box_facade();

}  // namespace ppg
