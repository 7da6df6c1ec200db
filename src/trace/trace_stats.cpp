#include "trace/trace_stats.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "trace/stack_distance.hpp"
#include "util/assert.hpp"

namespace ppg {

TraceStats compute_trace_stats(TraceCursor& cursor,
                               std::uint32_t max_capacity_log2) {
  TraceStats stats;
  OnlineStackDistance online;
  // Finite distances are bounded by the number of distinct pages, so this
  // histogram — and the whole fold — is O(distinct) memory.
  std::vector<std::uint64_t> hist;
  std::uint64_t cold = 0;
  std::uint64_t total_finite = 0;
  std::size_t n = 0;
  for_each_span(cursor, [&](const PageId* pages, std::size_t count) {
    n += count;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t d = online.access(pages[i]);
      if (d == kInfiniteDistance) {
        ++cold;
        continue;
      }
      if (d >= hist.size()) hist.resize(static_cast<std::size_t>(d) + 1, 0);
      ++hist[static_cast<std::size_t>(d)];
      ++total_finite;
    }
  });
  stats.num_requests = n;
  stats.distinct_pages = static_cast<std::size_t>(online.num_distinct());
  if (n == 0) return stats;
  stats.reuse_fraction = 1.0 - static_cast<double>(stats.distinct_pages) /
                                   static_cast<double>(stats.num_requests);
  stats.cold_miss_fraction =
      static_cast<double>(cold) / static_cast<double>(n);

  // Upper median (sorted rank total/2), matching nth_element on the raw
  // distance vector.
  if (total_finite > 0) {
    const std::uint64_t rank = total_finite / 2;
    std::uint64_t cum = 0;
    for (std::size_t d = 0; d < hist.size(); ++d) {
      cum += hist[d];
      if (cum > rank) {
        stats.median_stack_distance = d;
        break;
      }
    }
  }

  // Fault curve from the histogram: fault at capacity c iff distance >= c
  // (or cold), i.e. cold + total_finite - #{d < c}.
  const std::uint64_t max_tracked = std::uint64_t{1} << max_capacity_log2;
  std::vector<std::uint64_t> below(hist.size() + 1, 0);  // #{d < i}
  for (std::size_t i = 0; i < hist.size(); ++i) below[i + 1] = below[i] + hist[i];
  stats.lru_fault_curve.reserve(max_capacity_log2 + 1);
  for (std::uint32_t lg = 0; lg <= max_capacity_log2; ++lg) {
    const std::uint64_t c = std::uint64_t{1} << lg;
    const std::size_t idx =
        std::min<std::size_t>(hist.size(), static_cast<std::size_t>(c));
    stats.lru_fault_curve.push_back(cold + total_finite - below[idx]);
    if (c >= max_tracked) break;
  }
  return stats;
}

TraceStats compute_trace_stats(const Trace& trace,
                               std::uint32_t max_capacity_log2) {
  const auto cursor = VectorTraceSource::view(trace)->cursor();
  return compute_trace_stats(*cursor, max_capacity_log2);
}

std::vector<std::size_t> working_set_profile(TraceCursor& cursor,
                                             std::size_t window) {
  PPG_CHECK(window >= 1);
  std::vector<std::size_t> out;
  std::unordered_set<PageId> seen;
  std::size_t in_window = 0;
  for_each_span(cursor, [&](const PageId* pages, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      seen.insert(pages[i]);
      if (++in_window == window) {
        out.push_back(seen.size());
        seen.clear();
        in_window = 0;
      }
    }
  });
  if (in_window > 0) out.push_back(seen.size());  // partial tail window
  return out;
}

std::vector<std::size_t> working_set_profile(const Trace& trace,
                                             std::size_t window) {
  const auto cursor = VectorTraceSource::view(trace)->cursor();
  return working_set_profile(*cursor, window);
}

std::string format_trace_stats(const TraceStats& stats) {
  std::ostringstream os;
  os << "requests=" << stats.num_requests
     << " distinct=" << stats.distinct_pages
     << " reuse=" << stats.reuse_fraction
     << " median_sd=" << stats.median_stack_distance
     << " cold_frac=" << stats.cold_miss_fraction;
  return os.str();
}

}  // namespace ppg
