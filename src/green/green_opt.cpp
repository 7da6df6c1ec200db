#include "green/green_opt.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "util/lru_set.hpp"

namespace ppg {

namespace {
constexpr Impact kInf = std::numeric_limits<Impact>::max();
}  // namespace

GreenOptResult green_opt(const Trace& trace, const EpochSchedule& schedule,
                         Time miss_cost) {
  return green_opt(previous_accesses(trace), schedule, miss_cost);
}

GreenOptResult green_opt(std::span<const std::size_t> previous,
                         const EpochSchedule& schedule, Time miss_cost) {
  PPG_CHECK(miss_cost >= 1);
  GreenOptResult result;
  const std::size_t n = previous.size();
  if (n == 0) return result;

  std::vector<Impact> dist(n + 1, kInf);
  std::vector<Height> best_height(n + 1, 0);  // box that reaches a position
  std::vector<std::size_t> best_prev(n + 1, 0);  // where that box started
  Time final_busy = 0;  // busy time of the best box that reaches n
  dist[0] = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (dist[pos] == kInf) continue;
    const HeightLadder& ladder = schedule.ladder_at(pos);
    for (std::uint32_t r = 0; r < ladder.num_heights(); ++r) {
      const Height h = ladder.height(r);
      const BoxAdvance adv = canonical_box_advance(previous, pos, h, miss_cost);
      PPG_DCHECK(adv.end > pos);  // a canonical box fits any request
      // Final box is charged for its busy ticks only; interior boxes for
      // their full canonical duration.
      const Time duration = canonical_box(h, miss_cost).duration;
      const Time charged = adv.end == n ? duration - adv.stall : duration;
      const Impact cand = dist[pos] + static_cast<Impact>(h) * charged;
      if (cand < dist[adv.end]) {
        dist[adv.end] = cand;
        best_height[adv.end] = h;
        best_prev[adv.end] = pos;
        if (adv.end == n) final_busy = charged;
      }
    }
  }
  PPG_CHECK_MSG(dist[n] != kInf, "DP failed to reach end");
  result.impact = dist[n];

  // Reconstruct the box chain back from position n.
  std::vector<Box> boxes;
  for (std::size_t pos = n; pos != 0; pos = best_prev[pos]) {
    const Height h = best_height[pos];
    boxes.push_back(
        Box{h, pos == n ? final_busy : canonical_box(h, miss_cost).duration});
  }
  std::reverse(boxes.begin(), boxes.end());
  result.profile = BoxProfile(std::move(boxes));
  result.time = result.profile.total_duration();
  PPG_CHECK(result.profile.total_impact() == result.impact);
  return result;
}

namespace {

/// Serves `trace` from `pos` inside one fresh canonical box of height h on
/// a real LRU cache; returns the new position and the unused ticks.
BoxAdvance simulate_box(const Trace& trace, std::size_t pos, Height h,
                        Time miss_cost, LruSet& cache) {
  cache.reset(h);
  Time remaining = static_cast<Time>(h) * miss_cost;
  while (pos < trace.size()) {
    const PageId page = trace[pos];
    const Time cost = cache.contains(page) ? 1 : miss_cost;
    if (cost > remaining) break;
    cache.access(page);
    remaining -= cost;
    ++pos;
  }
  return BoxAdvance{pos, remaining};
}

Impact brute_rec(const Trace& trace, const EpochSchedule& schedule,
                 Time miss_cost, std::size_t pos, std::uint32_t budget,
                 LruSet& cache) {
  if (pos >= trace.size()) return 0;
  if (budget == 0) return kInf;
  Impact best = kInf;
  const HeightLadder& ladder = schedule.ladder_at(pos);
  for (std::uint32_t r = 0; r < ladder.num_heights(); ++r) {
    const Height h = ladder.height(r);
    const BoxAdvance adv = simulate_box(trace, pos, h, miss_cost, cache);
    const Time duration = static_cast<Time>(h) * miss_cost;
    const Time charged =
        adv.end == trace.size() ? duration - adv.stall : duration;
    const Impact cost = static_cast<Impact>(h) * charged;
    const Impact rest =
        brute_rec(trace, schedule, miss_cost, adv.end, budget - 1, cache);
    if (rest != kInf) best = std::min(best, cost + rest);
  }
  return best;
}

}  // namespace

Impact green_opt_impact_bruteforce(const Trace& trace,
                                   const EpochSchedule& schedule,
                                   Time miss_cost, std::uint32_t max_boxes) {
  LruSet cache(1);
  return brute_rec(trace, schedule, miss_cost, 0, max_boxes, cache);
}

}  // namespace ppg
