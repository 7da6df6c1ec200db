#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "green/box_runner.hpp"
#include "opt/offline_packer.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/workload.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

OfflinePackConfig config_for(Height k, Time s) {
  OfflinePackConfig c;
  c.cache_size = k;
  c.miss_cost = s;
  return c;
}

/// Max concurrent height recomputed from the witness schedule (boxes hold
/// [start, start + duration)); fails the test if it ever goes negative.
Height schedule_peak(const OfflinePackResult& r) {
  std::map<Time, std::int64_t> deltas;
  for (const PackedBox& pb : r.schedule) {
    deltas[pb.start] += pb.box.height;
    deltas[pb.start + pb.box.duration] -= pb.box.height;
  }
  std::int64_t level = 0;
  std::int64_t peak = 0;
  for (const auto& [t, d] : deltas) {
    level += d;
    EXPECT_GE(level, 0);
    peak = std::max(peak, level);
  }
  return static_cast<Height>(peak);
}

/// The reported peak is the schedule's own, and within the budget.
void expect_exact_peak(const OfflinePackResult& r, Height k) {
  EXPECT_EQ(r.peak_height, schedule_peak(r));
  EXPECT_LE(r.peak_height, k);
}

TEST(OfflinePacker, SingleProcessorMatchesGreenOptTime) {
  // With one processor there is nothing to pack: the makespan is the
  // optimal profile's own duration.
  MultiTrace mt;
  mt.add(gen::cyclic(6, 500));
  const OfflinePackResult r = pack_offline(mt, config_for(8, 5));
  EXPECT_EQ(r.completion.size(), 1u);
  EXPECT_EQ(r.makespan, r.completion[0]);
  EXPECT_GT(r.makespan, 0u);
  expect_exact_peak(r, 8);
}

TEST(OfflinePacker, RespectsCacheBudgetExactly) {
  WorkloadParams wp;
  wp.num_procs = 6;
  wp.cache_size = 16;
  wp.requests_per_proc = 600;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  // The witness's concurrent height, recomputed from the schedule, stays
  // within k and is exactly the reported peak.
  expect_exact_peak(pack_offline(mt, config_for(16, 4)), 16);
}

TEST(OfflinePacker, PreservesPerProcessorBoxOrder) {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 400;
  const MultiTrace mt = make_workload(WorkloadKind::kZipf, wp);
  const OfflinePackResult r = pack_offline(mt, config_for(16, 4));
  expect_exact_peak(r, 16);
  std::map<ProcId, Time> last_end;
  for (const PackedBox& pb : r.schedule) {
    const auto it = last_end.find(pb.proc);
    if (it != last_end.end()) {
      EXPECT_GE(pb.start, it->second);
    }
    last_end[pb.proc] = pb.start + pb.box.duration;
  }
}

TEST(OfflinePacker, BracketsTheLowerBound) {
  // T_LB <= T_pack on every workload — the whole point of the bracket.
  WorkloadParams wp;
  wp.num_procs = 8;
  wp.cache_size = 32;
  wp.requests_per_proc = 800;
  wp.seed = 5;
  for (const WorkloadKind kind : all_workload_kinds()) {
    const MultiTrace mt = make_workload(kind, wp);
    OptBoundsConfig oc;
    oc.cache_size = 32;
    oc.miss_cost = 4;
    const OptBounds lb = compute_opt_bounds(mt, oc);
    const OfflinePackResult ub = pack_offline(mt, config_for(32, 4));
    EXPECT_GE(ub.makespan, lb.lower_bound()) << workload_kind_name(kind);
    expect_exact_peak(ub, 32);
  }
}

TEST(OfflinePacker, FallbackProfileAlsoLegal) {
  MultiTrace mt;
  mt.add(gen::rebase_to_proc(gen::cyclic(10, 3000), 0));
  mt.add(gen::rebase_to_proc(gen::single_use(2000), 1));
  OfflinePackConfig c = config_for(16, 4);
  c.exact_profile_max_requests = 100;  // force the fixed-height fallback
  const OfflinePackResult r = pack_offline(mt, c);
  expect_exact_peak(r, 16);
  EXPECT_GT(r.makespan, 0u);
  // The fallback bound dominates the exact one.
  const OfflinePackResult exact = pack_offline(mt, config_for(16, 4));
  expect_exact_peak(exact, 16);
  EXPECT_GE(r.total_impact, exact.total_impact);
}

TEST(OfflinePacker, EmptyTracesCompleteAtZero) {
  MultiTrace mt;
  mt.add(Trace{});
  mt.add(gen::rebase_to_proc(gen::cyclic(3, 50), 1));
  const OfflinePackResult r = pack_offline(mt, config_for(8, 3));
  expect_exact_peak(r, 8);
  EXPECT_EQ(r.completion[0], 0u);
  EXPECT_GT(r.completion[1], 0u);
}

TEST(OfflinePacker, ParallelismBeatsSerialization) {
  // Two light processors must overlap: makespan well under the sum of
  // their individual profile durations.
  MultiTrace mt;
  mt.add(gen::rebase_to_proc(gen::cyclic(3, 400), 0));
  mt.add(gen::rebase_to_proc(gen::cyclic(3, 400), 1));
  const OfflinePackResult r = pack_offline(mt, config_for(16, 4));
  expect_exact_peak(r, 16);
  Time serial = 0;
  for (const PackedBox& pb : r.schedule) serial += pb.box.duration;
  EXPECT_LT(r.makespan, serial * 3 / 4);
}

// --- Fixed-height candidates vs an LRU replay ------------------------------
// The oracle is the per-rung BoxRunner loop the previous-access scan
// replaced: a fresh runner per height, back-to-back canonical boxes, the
// last box charged its busy time. Every rung's cost, and the box list
// rebuilt for that rung, must match it exactly.

struct ReplayedRung {
  BoxProfile profile;
  ProfileCost cost;
};

std::vector<ReplayedRung> replayed_rungs(const Trace& trace, Height h_max,
                                         Time miss_cost) {
  std::vector<ReplayedRung> out;
  for (Height h = 1; h <= h_max; h *= 2) {
    BoxRunner runner(trace, miss_cost);
    ReplayedRung rung;
    while (!runner.finished()) {
      const Box box = canonical_box(h, miss_cost);
      const BoxStepResult step = runner.run_box(box.height, box.duration);
      const Time used = step.finished ? step.busy_time : box.duration;
      rung.profile.push_back(Box{h, used});
      rung.cost.impact += static_cast<Impact>(h) * used;
      rung.cost.duration += used;
    }
    out.push_back(std::move(rung));
  }
  return out;
}

void expect_candidates_match(const Trace& trace, Height h_max, Time s,
                             const std::string& label) {
  const std::vector<std::size_t> previous = previous_accesses(trace);
  const std::vector<ProfileCost> got = fixed_height_costs(previous, h_max, s);
  const std::vector<ReplayedRung> want = replayed_rungs(trace, h_max, s);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].impact, want[r].cost.impact) << label << " rung " << r;
    EXPECT_EQ(got[r].duration, want[r].cost.duration)
        << label << " rung " << r;
    const BoxProfile boxes =
        fixed_height_profile(previous, Height{1} << r, s);
    EXPECT_TRUE(boxes.boxes() == want[r].profile.boxes())
        << label << " rung " << r << ": " << boxes.size() << " boxes vs "
        << want[r].profile.size();
  }
}

TEST(FixedHeightCandidates, MatchLruReplayAcrossTraceShapes) {
  Rng rng(2024);
  for (const Time s : {Time{1}, Time{2}, Time{64}}) {
    for (const Height h : {Height{1}, Height{4}, Height{32}, Height{256},
                           Height{1024}}) {
      const std::string at = " s=" + std::to_string(s) +
                             " h=" + std::to_string(h);
      // Cycles of h - 1, h and h + 1 pages put the working set exactly on
      // one rung's box capacity.
      for (const std::uint64_t pages : {std::uint64_t{h}, std::uint64_t{h} + 1,
                                        std::uint64_t{std::max<Height>(
                                            1, h - 1)}}) {
        expect_candidates_match(gen::cyclic(pages, 3 * pages + 500), h, s,
                                "cyclic " + std::to_string(pages) + at);
      }
      expect_candidates_match(gen::zipf(2 * h + 8, 3000, 0.9, rng), h, s,
                              "zipf" + at);
      expect_candidates_match(gen::single_use(1200), h, s, "single-use" + at);
      expect_candidates_match(gen::sawtooth(h / 2 + 1, 2 * h + 3, 150, 12, rng),
                              h, s, "sawtooth" + at);
      expect_candidates_match(Trace{}, h, s, "empty" + at);
    }
  }
}

TEST(FixedHeightCandidates, MatchLruReplayOnRandomTraces) {
  Rng rng(77);
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t pages = rng.next_in(1, 300);
    const auto len = static_cast<std::size_t>(rng.next_below(2500));
    const Time s = rng.next_in(1, 70);
    const Height h_max = Height{1} << rng.next_below(11);
    expect_candidates_match(gen::uniform_random(pages, len, rng), h_max, s,
                            "round " + std::to_string(round));
  }
}

TEST(FixedHeightCandidates, MatchLruReplayOnWholeTraceShortcutBoundary) {
  // A cycle over D <= h pages, n >= D requests, is served by one box from
  // the start in busy time n + (s - 1) * D. Choosing n so that this lands
  // on s*h/2 + 1, s*h - 1 or s*h puts the trace where rung h is the first
  // to cover it in one box: rung h/2 scans, rung h and every taller rung
  // take the whole-trace shortcut.
  for (const Time s : {Time{1}, Time{2}, Time{64}}) {
    for (const Height h : {Height{1}, Height{2}, Height{4}, Height{32},
                           Height{256}}) {
      const Time box = canonical_box(h, s).duration;
      for (const std::uint64_t pages :
           {std::uint64_t{1}, std::uint64_t{std::max<Height>(1, h / 2)},
            std::uint64_t{h}}) {
        for (const Time busy : {box / 2 + 1, box - 1, box}) {
          const Time cold = (s - 1) * pages;
          if (busy <= box / 2 || busy < cold + pages) continue;
          const std::size_t n = busy - cold;
          const std::string label = "cyclic " + std::to_string(pages) +
                                    " n=" + std::to_string(n) +
                                    " s=" + std::to_string(s) +
                                    " h=" + std::to_string(h);
          const Trace trace = gen::cyclic(pages, n);
          const std::vector<ProfileCost> costs =
              fixed_height_costs(previous_accesses(trace), 4 * h, s);
          const std::size_t rung = ilog2_floor(h);
          ASSERT_EQ(costs[rung].duration, busy) << label;
          if (rung > 0) {
            ASSERT_GT(costs[rung - 1].duration,
                      canonical_box(h / 2, s).duration)
                << label;
          }
          expect_candidates_match(trace, 4 * h, s, label);
        }
      }
      expect_candidates_match(Trace{}, 4 * h, s,
                              "empty s=" + std::to_string(s) +
                                  " h=" + std::to_string(h));
    }
  }
}

// --- Golden results ------------------------------------------------------
// Makespan, total impact and an FNV-1a hash of the witness schedule
// (proc, height, duration, start per packed box, in placement order),
// pinned on three instances: the fixed-height fallback alone, the exact DP
// alone, and a mix where short traces get the DP and long ones fall back.
// Any change to a candidate, the selection or the packing shows up here;
// on mismatch the actual triple is printed so a deliberate change can be
// re-pinned.

struct GoldenPack {
  Time makespan;
  Impact total_impact;
  std::uint64_t schedule_hash;

  bool operator==(const GoldenPack&) const = default;
};

std::uint64_t schedule_hash(const std::vector<PackedBox>& schedule) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const PackedBox& pb : schedule) {
    mix(pb.proc);
    mix(pb.box.height);
    mix(pb.box.duration);
    mix(pb.start);
  }
  return h;
}

GoldenPack golden_of(const OfflinePackResult& r) {
  return GoldenPack{r.makespan, r.total_impact, schedule_hash(r.schedule)};
}

std::string render(const GoldenPack& g) {
  std::ostringstream out;
  out << "{" << g.makespan << "u, " << g.total_impact << "u, 0x" << std::hex
      << g.schedule_hash << "ull}";
  return out.str();
}

TEST(OfflinePackerGolden, FixedHeightFallback) {
  WorkloadParams wp;
  wp.num_procs = 8;
  wp.cache_size = 64;
  wp.requests_per_proc = 1500;
  wp.seed = 3;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  OfflinePackConfig c = config_for(64, 64);
  c.exact_profile_max_requests = 1;
  const OfflinePackResult r = pack_offline(mt, c);
  expect_exact_peak(r, 64);
  const GoldenPack got = golden_of(r);
  const GoldenPack want = {59064u, 2200576u, 0x9424e5b60ee709fdull};
  EXPECT_TRUE(got == want) << "actual: " << render(got);
}

TEST(OfflinePackerGolden, ExactDp) {
  Rng rng(11);
  MultiTrace mt;
  mt.add(gen::rebase_to_proc(gen::cyclic(9, 300), 0));
  mt.add(gen::rebase_to_proc(gen::zipf(40, 300, 0.9, rng), 1));
  mt.add(gen::rebase_to_proc(gen::single_use(200), 2));
  mt.add(gen::rebase_to_proc(gen::sawtooth(3, 20, 25, 10, rng), 3));
  const OfflinePackResult r = pack_offline(mt, config_for(16, 4));
  expect_exact_peak(r, 16);
  const GoldenPack got = golden_of(r);
  const GoldenPack want = {1566u, 18548u, 0x965612e620df512eull};
  EXPECT_TRUE(got == want) << "actual: " << render(got);
}

TEST(OfflinePackerGolden, ExactShortTracesFallbackLongOnes) {
  Rng rng(12);
  MultiTrace mt;
  mt.add(gen::rebase_to_proc(gen::cyclic(17, 350), 0));
  mt.add(gen::rebase_to_proc(gen::cyclic(33, 2400), 1));
  mt.add(gen::rebase_to_proc(gen::zipf(60, 380, 1.0, rng), 2));
  mt.add(gen::rebase_to_proc(gen::zipf(200, 3000, 0.8, rng), 3));
  mt.add(gen::rebase_to_proc(gen::sawtooth(5, 40, 60, 30, rng), 4));
  mt.add(gen::rebase_to_proc(gen::single_use(1000), 5));
  OfflinePackConfig c = config_for(32, 8);
  c.exact_profile_max_requests = 400;
  const OfflinePackResult r = pack_offline(mt, c);
  expect_exact_peak(r, 32);
  const GoldenPack got = golden_of(r);
  const GoldenPack want = {38331u, 659632u, 0xc3e540fb75659edull};
  EXPECT_TRUE(got == want) << "actual: " << render(got);
}

TEST(OfflinePackerGolden, PollutedCyclesManyBoxes) {
  // The sweep's many-box shape: every processor falls back to height-1
  // boxes, 64,000 in all, so the skyline places one box per request. The
  // 16 unit-height boxes in flight never contend for k = 128, so the
  // levels themselves are checked by expect_exact_peak.
  WorkloadParams wp;
  wp.num_procs = 16;
  wp.cache_size = 128;
  wp.requests_per_proc = 4000;
  const MultiTrace mt = make_workload(WorkloadKind::kPollutedCycles, wp);
  OfflinePackConfig c = config_for(128, 64);
  c.exact_profile_max_requests = 1;
  const OfflinePackResult r = pack_offline(mt, c);
  expect_exact_peak(r, 128);
  const GoldenPack got = golden_of(r);
  const GoldenPack want = {256000u, 4096000u, 0x908b1f5d2fdc5f03ull};
  EXPECT_TRUE(got == want) << "actual: " << render(got);
}

}  // namespace
}  // namespace ppg
