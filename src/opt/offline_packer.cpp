#include "opt/offline_packer.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <utility>

#include "green/green_opt.hpp"
#include "trace/stack_distance.hpp"
#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

/// Piecewise-constant height usage over time ("skyline"): key = segment
/// start, value = total allocated height from that instant until the next
/// key. Supports earliest-fit queries and box placement.
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
    }
  }

  Height peak() const {
    Height peak = 0;
    for (const auto& [t, h] : level_) peak = std::max(peak, h);
    return peak;
  }

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
    const std::vector<std::vector<CandidateProfile>>& candidates,
    Height cache_size) {
  const std::size_t n = candidates.size();
  std::vector<std::size_t> selection(n, 0);

  // Candidate durations are the only interesting duration thresholds; the
  // impact term is evaluated exactly per threshold.
  std::vector<Time> thresholds;
  for (const auto& cands : candidates)
    for (const CandidateProfile& c : cands) thresholds.push_back(c.duration);
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

}  // namespace

std::vector<CandidateProfile> fixed_height_candidates(const Trace& trace,
                                                      Height h_max,
                                                      Time miss_cost) {
  PPG_CHECK(miss_cost >= 1);
  const std::vector<std::size_t> previous = previous_accesses(trace);
  const std::size_t n = trace.size();
  std::vector<CandidateProfile> out;
  for (Height h = 1; h <= h_max; h *= 2) {
    const Time duration = canonical_box(h, miss_cost).duration;
    CandidateProfile cand;
    std::size_t i = 0;
    while (i < n) {
      // One fresh box from b. Its s*h ticks pay for at most h misses, so it
      // touches at most h distinct pages and LRU never evicts inside it:
      // request i hits iff its page was already touched in this box.
      const std::size_t b = i;
      Time remaining = duration;
      while (remaining > 0 && i < n) {
        const bool hit = previous[i] != kNoPrevious && previous[i] >= b;
        const Time cost = hit ? 1 : miss_cost;
        if (cost > remaining) break;  // stall to the box boundary
        remaining -= cost;
        ++i;
      }
      const Time used = i < n ? duration : duration - remaining;
      cand.profile.push_back(Box{h, used});
      cand.impact += static_cast<Impact>(h) * used;
      cand.duration += used;
    }
    out.push_back(std::move(cand));
  }
  return out;
}

OfflinePackResult pack_offline(const MultiTraceSource& sources,
                               const OfflinePackConfig& config) {
  PPG_CHECK(config.cache_size >= 1);
  const ProcId num_procs = sources.num_procs();
  const Height h_max = std::max<Height>(
      1, static_cast<Height>(pow2_floor(config.cache_size)));
  const HeightLadder ladder{1, h_max};

  // Candidate profiles per processor: the fixed-height family always, plus
  // the exact minimum-impact DP profile when affordable. The global
  // selection pass then trades duration against impact across processors.
  // Lazy sources are drained one processor at a time — the DP needs random
  // access, but never more than one trace's worth of it.
  std::vector<std::vector<CandidateProfile>> candidates(num_procs);
  for (ProcId i = 0; i < num_procs; ++i) {
    Trace storage;
    const Trace* mat = sources.source(i).materialized();
    if (mat == nullptr) {
      storage = materialize(sources.source(i));
      mat = &storage;
    }
    const Trace& t = *mat;
    if (t.empty()) continue;
    candidates[i] = fixed_height_candidates(t, h_max, config.miss_cost);
    const bool exact = config.exact_profile_max_requests == 0 ||
                       t.size() <= config.exact_profile_max_requests;
    if (exact) {
      const GreenOptResult opt = green_opt(t, ladder, config.miss_cost);
      candidates[i].push_back(
          CandidateProfile{opt.profile, opt.impact, opt.time});
    }
  }
  const std::vector<std::size_t> selection =
      select_profiles(candidates, config.cache_size);
  std::vector<BoxProfile> profiles(num_procs);
  for (ProcId i = 0; i < num_procs; ++i)
    if (!candidates[i].empty())
      profiles[i] = candidates[i][selection[i]].profile;

  // Greedy earliest-fit packing; processors are interleaved by their
  // current frontier so nobody races far ahead (keeps mean completion
  // reasonable and the makespan near the impact bound).
  OfflinePackResult result;
  result.completion.assign(num_procs, 0);
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

  while (!queue.empty()) {
    const Frontier f = queue.top();
    queue.pop();
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
