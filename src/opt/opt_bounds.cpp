#include "opt/opt_bounds.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "trace/stack_distance.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace ppg {

namespace {

/// Borrows the source's vectors when materialized; otherwise drains one
/// cursor into `storage`. The Belady term needs random access, so lazy
/// sources cost one trace of transient memory each — never the whole
/// instance at once.
const Trace& materialized_view(const TraceSource& source, Trace& storage) {
  if (const Trace* trace = source.materialized()) return *trace;
  storage = materialize(source);
  return storage;
}

/// Belady (MIN) faults at capacity `cache`, from the trace's
/// previous_accesses(). With at most `cache` distinct pages nothing is ever
/// evicted, so the faults are the first accesses. Otherwise a resident page
/// is its latest access position, keyed by that position's next use in a
/// flat max-heap, and eviction pops the top. A hit leaves its page's old
/// entry behind stale, keyed by the hit's own position; so stale keys are
/// <= now while every resident key is > now, and the top is always
/// resident.
std::uint64_t belady_faults(const std::vector<std::size_t>& previous,
                            Height cache) {
  const std::size_t n = previous.size();
  const auto distinct = static_cast<std::uint64_t>(
      std::count(previous.begin(), previous.end(), kNoPrevious));
  if (distinct <= cache) return distinct;

  constexpr std::size_t kNoNextUse = SIZE_MAX;
  std::vector<std::size_t> next_use(n, kNoNextUse);
  for (std::size_t i = 0; i < n; ++i)
    if (previous[i] != kNoPrevious) next_use[previous[i]] = i;

  std::vector<char> resident(n, 0);  // resident[i]: request i's page, held
  std::vector<std::pair<std::size_t, std::size_t>> heap;  // (next use, i)
  std::uint64_t faults = 0;
  Height held = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t prev = previous[i];
    if (prev != kNoPrevious && resident[prev] != 0) {
      resident[prev] = 0;  // hit: (i, prev) goes stale
    } else {
      ++faults;
      if (held == cache) {
        std::pop_heap(heap.begin(), heap.end());
        resident[heap.back().second] = 0;
        heap.pop_back();
      } else {
        ++held;
      }
    }
    resident[i] = 1;
    heap.emplace_back(next_use[i], i);
    std::push_heap(heap.begin(), heap.end());
  }
  return faults;
}

Time busy_time(std::size_t requests, std::uint64_t faults, Time miss_cost) {
  return requests + (miss_cost - 1) * faults;
}

Time busy_time(const std::vector<std::size_t>& previous, Height cache,
               Time miss_cost) {
  return busy_time(previous.size(), belady_faults(previous, cache),
                   miss_cost);
}

/// sum_r min(s, d_r + 1), cold requests (D's maximum: kInfiniteDistance or
/// kColdDistance) counting s (see the header).
template <typename D>
Impact stack_impact(const std::vector<D>& distances, Time miss_cost) {
  Impact total = 0;
  for (const D d : distances)
    total += d == std::numeric_limits<D>::max()
                 ? miss_cost
                 : std::min<Impact>(miss_cost, Impact{d} + 1);
  return total;
}

}  // namespace

Time busy_min_single(const Trace& trace, Height cache, Time miss_cost) {
  return busy_time(previous_accesses(trace), cache, miss_cost);
}

Impact impact_lb_stack(const Trace& trace, Time miss_cost) {
  return stack_impact(stack_distances(trace), miss_cost);
}

Time OptBounds::lower_bound() const {
  return std::max({lb_max_length, lb_max_single, lb_impact});
}

std::vector<double> per_proc_stretch(const MultiTraceSource& sources,
                                     const std::vector<Time>& completion,
                                     Height cache_size, Time miss_cost) {
  PPG_CHECK(completion.size() == sources.num_procs());
  std::vector<double> stretch(sources.num_procs(), 1.0);
  for (ProcId i = 0; i < sources.num_procs(); ++i) {
    Trace storage;
    const Time busy = busy_min_single(
        materialized_view(sources.source(i), storage), cache_size, miss_cost);
    if (busy == 0) continue;
    stretch[i] =
        static_cast<double>(completion[i]) / static_cast<double>(busy);
  }
  return stretch;
}

OptBounds compute_opt_bounds(const MultiTraceSource& sources,
                             const OptBoundsConfig& config) {
  PPG_CHECK(config.cache_size >= 1);
  OptBounds bounds;
  Impact impact_sum = 0;

  for (ProcId i = 0; i < sources.num_procs(); ++i) {
    const TraceSource& source = sources.source(i);
    try {
      Trace storage;
      const Trace& t = materialized_view(source, storage);
      bounds.lb_max_length = std::max<Time>(bounds.lb_max_length, t.size());
      Time single = 0;
      if (const auto attached = source.stack_distances()) {
        // The attached distances count the distinct pages, so the
        // previous-access pass runs only when Belady has to evict, and no
        // distance pass runs here.
        const auto distinct = static_cast<std::uint64_t>(
            std::count(attached->begin(), attached->end(), kColdDistance));
        single = distinct <= config.cache_size
                     ? busy_time(t.size(), distinct, config.miss_cost)
                     : busy_time(previous_accesses(t), config.cache_size,
                                 config.miss_cost);
        impact_sum += stack_impact(*attached, config.miss_cost);
      } else {
        const std::vector<std::size_t> previous = previous_accesses(t);
        single = busy_time(previous, config.cache_size, config.miss_cost);
        impact_sum +=
            stack_impact(stack_distances(previous), config.miss_cost);
      }
      bounds.lb_max_single = std::max(bounds.lb_max_single, single);
    } catch (const PpgException& e) {
      Error error = e.error();
      error.proc = i;
      throw PpgException(std::move(error));
    }
  }
  bounds.lb_impact = impact_sum / config.cache_size;
  return bounds;
}

}  // namespace ppg
