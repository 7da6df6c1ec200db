// Descriptive statistics of a trace: footprint, reuse behaviour, working-set
// profile. Used by examples and by EXPERIMENTS.md tables to characterize
// the workloads each experiment runs on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_source.hpp"

namespace ppg {

struct TraceStats {
  std::size_t num_requests = 0;
  std::size_t distinct_pages = 0;
  double reuse_fraction = 0.0;     ///< 1 - distinct/requests.
  std::uint64_t median_stack_distance = 0;  ///< Over finite distances; 0 if none.
  double cold_miss_fraction = 0.0;
  /// LRU fault counts at capacities 2^0, 2^1, ... up to max_capacity_log2.
  std::vector<std::uint64_t> lru_fault_curve;
};

TraceStats compute_trace_stats(const Trace& trace,
                               std::uint32_t max_capacity_log2 = 16);

/// Single-pass fold over a cursor in O(distinct pages) memory: the median
/// and fault curve are derived from a distance histogram instead of the
/// raw per-request vector. The Trace overload delegates here, so the two
/// agree exactly. A stalled stream throws kCorruptTrace.
TraceStats compute_trace_stats(TraceCursor& cursor,
                               std::uint32_t max_capacity_log2 = 16);

/// Sliding-window working-set sizes: distinct pages per window of the given
/// length (non-overlapping windows).
std::vector<std::size_t> working_set_profile(const Trace& trace,
                                             std::size_t window);

/// Streaming counterpart: O(window) transient memory per window. A stalled
/// stream throws kCorruptTrace.
std::vector<std::size_t> working_set_profile(TraceCursor& cursor,
                                             std::size_t window);

std::string format_trace_stats(const TraceStats& stats);

}  // namespace ppg
