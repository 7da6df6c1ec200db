#include "opt/offline_packer.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "green/green_opt.hpp"
#include "trace/stack_distance.hpp"
#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

/// Piecewise-constant height usage over time ("skyline"): key = segment
/// start, value = total allocated height from that instant until the next
/// key. Supports earliest-fit queries, box placement, and forgetting the
/// segments behind a monotone query frontier.
class Skyline {
 public:
  explicit Skyline(Height budget) : budget_(budget) { level_[0] = 0; }

  /// Earliest t >= t0 such that a box of the given height fits for
  /// `duration` ticks.
  Time find_slot(Time t0, Time duration, Height height) const {
    PPG_CHECK_MSG(height <= budget_, "box taller than the cache");
    Time t = t0;
    for (;;) {
      const Time conflict = first_conflict(t, duration, height);
      if (conflict == kTimeInfinity) return t;
      // Resume searching after the conflicting segment ends.
      auto it = level_.upper_bound(conflict);
      t = it == level_.end() ? conflict + 1 : it->first;
    }
  }

  void place(Time start, Time duration, Height height) {
    split_at(start);
    split_at(start + duration);
    for (auto it = level_.find(start);
         it != level_.end() && it->first < start + duration; ++it) {
      it->second += height;
      PPG_CHECK_MSG(it->second <= budget_, "skyline overflow");
      peak_ = std::max(peak_, it->second);
    }
  }

  /// Erases every segment that ends at or before t, keeping the one that
  /// contains t. Valid once no later find_slot or place starts before t.
  void forget_before(Time t) {
    level_.erase(level_.begin(), std::prev(level_.upper_bound(t)));
  }

  /// Max level ever placed. Levels only grow, so this is the peak of the
  /// whole schedule, forgotten segments included.
  Height peak() const { return peak_; }

 private:
  /// Start time of the first segment in [t, t+duration) whose level would
  /// overflow with `height` added; kTimeInfinity if the box fits.
  Time first_conflict(Time t, Time duration, Height height) const {
    auto it = level_.upper_bound(t);
    PPG_DCHECK(it != level_.begin());
    --it;  // segment containing t
    while (it != level_.end() && it->first < t + duration) {
      if (it->second + height > budget_)
        return std::max(it->first, t);
      ++it;
    }
    return kTimeInfinity;
  }

  void split_at(Time t) {
    auto it = level_.upper_bound(t);
    PPG_DCHECK(it != level_.begin());
    --it;
    if (it->first != t) level_.emplace(t, it->second);
  }

  Height budget_;
  Height peak_ = 0;
  std::map<Time, Height> level_;
};

/// Picks one candidate per processor minimizing the packing bottleneck
/// B = max(max_i duration_i, sum_i impact_i / k). A per-processor local
/// rule cannot do this — whether a hungry processor should hit-serve
/// depends on how much cache slack the OTHER processors leave. This
/// relaxation is exactly minimizable: for a duration cap T, each processor
/// takes its minimum-impact candidate with duration <= T, and the best B
/// over all caps is the optimum. Only candidate durations change the
/// choice, so every distinct duration is tried as T and the best kept.
std::vector<std::size_t> select_profiles(
    const std::vector<std::vector<ProfileCost>>& candidates,
    Height cache_size) {
  const std::size_t n = candidates.size();
  std::vector<std::size_t> selection(n, 0);

  // Candidate durations are the only interesting duration thresholds; the
  // impact term is evaluated exactly per threshold.
  std::vector<Time> thresholds;
  for (const auto& cands : candidates)
    for (const ProfileCost& c : cands) thresholds.push_back(c.duration);
  if (thresholds.empty()) return selection;
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  // feasible(T): each processor takes its min-impact candidate with
  // duration <= T; returns the resulting bottleneck (infinity if some
  // processor has no candidate that fast).
  auto evaluate = [&](Time limit, std::vector<std::size_t>* out) {
    double sum_imp = 0;
    Time max_dur = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (candidates[i].empty()) continue;
      std::size_t best = SIZE_MAX;
      for (std::size_t j = 0; j < candidates[i].size(); ++j) {
        if (candidates[i][j].duration > limit) continue;
        if (best == SIZE_MAX ||
            candidates[i][j].impact < candidates[i][best].impact)
          best = j;
      }
      if (best == SIZE_MAX) return std::numeric_limits<double>::infinity();
      if (out != nullptr) (*out)[i] = best;
      sum_imp += static_cast<double>(candidates[i][best].impact);
      max_dur = std::max(max_dur, candidates[i][best].duration);
    }
    return std::max(static_cast<double>(max_dur),
                    sum_imp / static_cast<double>(cache_size));
  };

  Time best_limit = thresholds.back();
  double best_value = evaluate(best_limit, nullptr);
  // The bottleneck is unimodal-ish in T but cheap enough to scan exactly:
  // O(#thresholds * n * #candidates) with #candidates = O(log k).
  for (const Time limit : thresholds) {
    const double value = evaluate(limit, nullptr);
    if (value < best_value) {
      best_value = value;
      best_limit = limit;
    }
  }
  evaluate(best_limit, &selection);
  return selection;
}

/// The one rung scan: back-to-back fresh canonical boxes of height h from
/// the start of the trace, the last box charged only its busy time.
/// Appends every box to `boxes` when given; returns the profile's cost.
ProfileCost scan_rung(const std::vector<std::size_t>& previous, Height h,
                      Time miss_cost, BoxProfile* boxes) {
  PPG_CHECK(miss_cost >= 1);
  const Time duration = canonical_box(h, miss_cost).duration;
  // Positions are compared signed: kNoPrevious (SIZE_MAX) reads as -1, so
  // a first access fails the hit test below with no separate branch.
  static_assert(static_cast<std::ptrdiff_t>(kNoPrevious) == -1);
  const auto n = static_cast<std::ptrdiff_t>(previous.size());
  const std::size_t* prev = previous.data();
  ProfileCost cost;
  std::ptrdiff_t i = 0;
  while (i < n) {
    // One fresh box from b. Its s*h ticks pay for at most h misses, so it
    // touches at most h distinct pages and LRU never evicts inside it:
    // request i hits iff its page was already touched in this box.
    const std::ptrdiff_t b = i;
    Time remaining = duration;
    for (; i < n; ++i) {
      const Time step =
          static_cast<std::ptrdiff_t>(prev[i]) >= b ? 1 : miss_cost;
      if (step > remaining) break;  // stall to the box boundary
      remaining -= step;
    }
    const Time used = i < n ? duration : duration - remaining;
    if (boxes != nullptr) boxes->push_back(Box{h, used});
    cost.impact += static_cast<Impact>(h) * used;
    cost.duration += used;
  }
  return cost;
}

}  // namespace

std::vector<ProfileCost> fixed_height_costs(
    const std::vector<std::size_t>& previous, Height h_max, Time miss_cost) {
  std::vector<ProfileCost> out;
  // Set once a rung's first box covers the whole trace (a fresh box serves
  // at least one request, so a total within one box's ticks means one
  // box). Every taller rung's single box then serves the same requests
  // with the same hits — those with previous[i] >= 0 — in the same busy
  // time n + (s - 1) * distinct.
  bool covered = false;
  Time busy = 0;
  for (Height h = 1; h <= h_max; h *= 2) {
    if (covered) {
      out.push_back(ProfileCost{static_cast<Impact>(h) * busy, busy});
      continue;
    }
    out.push_back(scan_rung(previous, h, miss_cost, nullptr));
    busy = out.back().duration;
    covered = busy <= canonical_box(h, miss_cost).duration;
  }
  return out;
}

BoxProfile fixed_height_profile(const std::vector<std::size_t>& previous,
                                Height h, Time miss_cost) {
  BoxProfile boxes;
  scan_rung(previous, h, miss_cost, &boxes);
  return boxes;
}

OfflinePackResult pack_offline(const MultiTraceSource& sources,
                               const OfflinePackConfig& config) {
  PPG_CHECK(config.cache_size >= 1);
  const ProcId num_procs = sources.num_procs();
  const Height h_max = std::max<Height>(
      1, static_cast<Height>(pow2_floor(config.cache_size)));
  const HeightLadder ladder{1, h_max};

  // Candidate costs per processor: every fixed-height rung always, plus
  // the exact minimum-impact DP profile (cost at index `rungs`, box list
  // kept in `profiles`) when affordable. The global selection pass then
  // trades duration against impact across processors. Lazy sources are
  // drained one processor at a time — the scans and the DP need random
  // access, but never more than one trace's worth of it.
  const auto rungs = std::size_t{ilog2_floor(h_max)} + 1;
  std::vector<std::vector<ProfileCost>> candidates(num_procs);
  std::vector<std::vector<std::size_t>> previous(num_procs);
  std::vector<BoxProfile> profiles(num_procs);
  for (ProcId i = 0; i < num_procs; ++i) {
    Trace storage;
    const Trace* mat = sources.source(i).materialized();
    if (mat == nullptr) {
      storage = materialize(sources.source(i));
      mat = &storage;
    }
    const Trace& t = *mat;
    if (t.empty()) continue;
    previous[i] = previous_accesses(t);
    candidates[i] = fixed_height_costs(previous[i], h_max, config.miss_cost);
    const bool exact = config.exact_profile_max_requests == 0 ||
                       t.size() <= config.exact_profile_max_requests;
    if (exact) {
      GreenOptResult opt = green_opt(t, ladder, config.miss_cost);
      candidates[i].push_back(ProfileCost{opt.impact, opt.time});
      profiles[i] = std::move(opt.profile);
    }
  }
  // Only the chosen rung becomes a box list; the DP profile, when chosen,
  // is already in place.
  const std::vector<std::size_t> selection =
      select_profiles(candidates, config.cache_size);
  std::size_t total_boxes = 0;
  for (ProcId i = 0; i < num_procs; ++i) {
    if (candidates[i].empty()) continue;
    if (selection[i] < rungs)
      profiles[i] = fixed_height_profile(
          previous[i], Height{1} << selection[i], config.miss_cost);
    std::vector<std::size_t>().swap(previous[i]);
    total_boxes += profiles[i].size();
  }

  // Greedy earliest-fit packing; processors are interleaved by their
  // current frontier so nobody races far ahead (keeps mean completion
  // reasonable and the makespan near the impact bound).
  OfflinePackResult result;
  result.completion.assign(num_procs, 0);
  result.schedule.reserve(total_boxes);
  Skyline skyline(config.cache_size);

  struct Frontier {
    Time ready;
    ProcId proc;
    std::size_t next_box;
    bool operator>(const Frontier& other) const {
      if (ready != other.ready) return ready > other.ready;
      return proc > other.proc;
    }
  };
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<>> queue;
  for (ProcId i = 0; i < num_procs; ++i)
    if (!profiles[i].empty()) queue.push(Frontier{0, i, 0});

  // Every push is a box end, no earlier than the ready time just popped,
  // so ready times pop in nondecreasing order and nothing before the
  // popped one is queried again.
  while (!queue.empty()) {
    const Frontier f = queue.top();
    queue.pop();
    skyline.forget_before(f.ready);
    const Box& box = profiles[f.proc][f.next_box];
    const Time start = skyline.find_slot(f.ready, box.duration, box.height);
    skyline.place(start, box.duration, box.height);
    result.schedule.push_back(PackedBox{f.proc, box, start});
    result.total_impact += box.impact();
    const Time end = start + box.duration;
    result.completion[f.proc] = end;
    if (f.next_box + 1 < profiles[f.proc].size())
      queue.push(Frontier{end, f.proc, f.next_box + 1});
  }

  for (Time c : result.completion)
    result.makespan = std::max(result.makespan, c);
  double mean = 0.0;
  for (Time c : result.completion) mean += static_cast<double>(c);
  result.mean_completion =
      num_procs == 0 ? 0.0 : mean / static_cast<double>(num_procs);
  result.peak_height = skyline.peak();
  PPG_CHECK(result.peak_height <= config.cache_size);
  return result;
}

}  // namespace ppg
