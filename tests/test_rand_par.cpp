#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/rand_par.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

MultiTrace mixed_workload(ProcId p, Height k, std::size_t len,
                          std::uint64_t seed = 1) {
  WorkloadParams params;
  params.num_procs = p;
  params.cache_size = k;
  params.requests_per_proc = len;
  params.seed = seed;
  return make_workload(WorkloadKind::kHeterogeneousMix, params);
}

EngineConfig config_for(Height k, Time s) {
  EngineConfig c;
  c.cache_size = k;
  c.miss_cost = s;
  return c;
}

TEST(RandPar, CompletesAllSequences) {
  const MultiTrace mt = mixed_workload(8, 32, 2000);
  auto scheduler = make_rand_par();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  for (Time c : r.completion) EXPECT_GT(c, 0u);
}

TEST(RandPar, DeterministicGivenSeed) {
  const MultiTrace mt = mixed_workload(8, 32, 1500);
  RandParConfig config;
  config.seed = 99;
  auto s1 = make_rand_par(config);
  auto s2 = make_rand_par(config);
  const ParallelRunResult a = run_parallel(mt, *s1, config_for(32, 4));
  const ParallelRunResult b = run_parallel(mt, *s2, config_for(32, 4));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completion, b.completion);
}

TEST(RandPar, DifferentSeedsSampleDifferentHeights) {
  // The secondary-part heights are the randomized ingredient: two seeds
  // must produce different box-height sequences (makespan itself can
  // coincide when a height-insensitive straggler dominates).
  const MultiTrace mt = mixed_workload(8, 32, 1500);
  auto collect = [&](std::uint64_t seed) {
    RandParConfig config;
    config.seed = seed;
    auto scheduler = make_rand_par(config);
    EngineConfig c = config_for(32, 4);
    std::vector<Height> heights;
    c.on_box = [&](ProcId proc, const BoxAssignment& box) {
      if (proc == 0) heights.push_back(box.height);
    };
    run_parallel(mt, *scheduler, c);
    return heights;
  };
  EXPECT_NE(collect(1), collect(2));
}

TEST(RandPar, RespectsConstantAugmentation) {
  const MultiTrace mt = mixed_workload(16, 64, 2000);
  auto scheduler = make_rand_par();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(64, 4));
  // Primary: <= k across processors. Secondary: waves of floor(k/j) boxes
  // of height j (<= k) plus fillers (<= k). Constant augmentation overall.
  EXPECT_LE(r.effective_augmentation, 4.0);
}

TEST(RandPar, BoxHeightsLieOnLadder) {
  const MultiTrace mt = mixed_workload(8, 32, 800);
  auto scheduler = make_rand_par();
  EngineConfig c = config_for(32, 4);
  bool all_on_ladder = true;
  c.on_box = [&](ProcId, const BoxAssignment& box) {
    // Heights are powers of two between 1 and k (fillers use the chunk's
    // minimal height which is itself a ladder rung).
    if (!is_pow2(box.height) || box.height > 32) all_on_ladder = false;
  };
  run_parallel(mt, *scheduler, c);
  EXPECT_TRUE(all_on_ladder);
}

TEST(RandPar, StallModeAlsoCompletes) {
  RandParConfig config;
  config.stall_between_waves = true;
  const MultiTrace mt = mixed_workload(8, 32, 1000);
  auto scheduler = make_rand_par(config);
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  EXPECT_GT(r.total_stall, 0u);
}

TEST(RandPar, UsesLargeBoxesOccasionally) {
  const MultiTrace mt = mixed_workload(8, 64, 4000);
  auto scheduler = make_rand_par();
  EngineConfig c = config_for(64, 4);
  Height max_seen = 0;
  c.on_box = [&](ProcId, const BoxAssignment& box) {
    max_seen = std::max(max_seen, box.height);
  };
  run_parallel(mt, *scheduler, c);
  // With thousands of chunks, some secondary draw must exceed the minimum
  // height 64/8 = 8.
  EXPECT_GT(max_seen, 8u);
}

TEST(RandPar, PrimaryMultiplierScalesChunks) {
  // Sanity of the ablation knob: a larger primary multiplier still
  // completes and changes the schedule.
  RandParConfig config;
  config.primary_multiplier = 4;
  const MultiTrace mt = mixed_workload(8, 32, 1000);
  auto scheduler = make_rand_par(config);
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
}

// --- Golden box stream ---------------------------------------------------
// The wave layout pinned on a tiny instance (p = 8, k = 32, s = 4, seed 7):
// every (proc, height, start, end) the engine's on_box hook sees, in grant
// order. Any change to the primary part, the secondary height draws, the
// wave packing or the filler boxes shows up here as a diff; on mismatch the
// actual stream is printed in the same literal form, so a deliberate change
// can be re-pinned.

struct BoxRecord {
  ProcId proc;
  Height height;
  Time start;
  Time end;

  bool operator==(const BoxRecord&) const = default;
};

std::string render(const std::vector<BoxRecord>& boxes) {
  std::ostringstream out;
  for (const BoxRecord& b : boxes)
    out << "{" << b.proc << ", " << b.height << ", " << b.start << ", "
        << b.end << "},\n";
  return out.str();
}

/// Mixed single-use and cyclic processors of staggered lengths, so chunks
/// of different sizes form and the active count shrinks mid-run.
std::shared_ptr<const TraceSource> golden_source(ProcId i) {
  if (i % 2 == 0) return gen::single_use_source(12 * (i + 1));
  return gen::cyclic_source(6 + i, 20 * (i + 1));
}

TEST(RandParGolden, BatchBoxStream) {
  MultiTraceSource sources;
  for (ProcId i = 0; i < 8; ++i) sources.add(golden_source(i));
  std::vector<BoxRecord> got;
  EngineConfig c = config_for(32, 4);
  c.on_box = [&got](ProcId proc, const BoxAssignment& box) {
    got.push_back(BoxRecord{proc, box.height, box.start, box.end});
  };
  RandParConfig config;
  config.seed = 7;
  auto scheduler = make_rand_par(config);
  run_parallel(sources, *scheduler, c);

  const std::vector<BoxRecord> want = {
      {0, 4, 0, 16}, {1, 4, 0, 16}, {2, 4, 0, 16}, {3, 4, 0, 16},
      {4, 4, 0, 16}, {5, 4, 0, 16}, {6, 4, 0, 16}, {7, 4, 0, 16},
      {0, 4, 16, 32}, {1, 4, 16, 32}, {2, 4, 16, 32}, {3, 4, 16, 32},
      {4, 4, 16, 32}, {5, 4, 16, 32}, {6, 4, 16, 32}, {7, 4, 16, 32},
      {0, 4, 32, 48}, {1, 4, 32, 48}, {2, 4, 32, 48}, {3, 4, 32, 48},
      {4, 4, 32, 48}, {5, 4, 32, 48}, {6, 4, 32, 48}, {7, 4, 32, 48},
      {1, 4, 48, 64}, {2, 4, 48, 64}, {3, 4, 48, 64}, {4, 4, 48, 64},
      {5, 4, 48, 64}, {6, 4, 48, 64}, {7, 4, 48, 64}, {1, 4, 64, 80},
      {2, 4, 64, 80}, {3, 4, 64, 80}, {4, 4, 64, 80}, {5, 4, 64, 80},
      {6, 4, 64, 80}, {7, 4, 64, 80}, {1, 8, 80, 112}, {2, 8, 80, 112},
      {3, 8, 80, 112}, {4, 8, 80, 112}, {5, 8, 80, 112}, {6, 8, 80, 112},
      {7, 8, 80, 112}, {1, 8, 112, 144}, {2, 8, 112, 144}, {3, 8, 112, 144},
      {4, 8, 112, 144}, {5, 8, 112, 144}, {6, 8, 112, 144}, {7, 8, 112, 144},
      {3, 8, 144, 176}, {4, 8, 144, 176}, {5, 8, 144, 176}, {6, 8, 144, 176},
      {7, 8, 144, 176}, {3, 8, 176, 208}, {4, 8, 176, 208}, {5, 8, 176, 208},
      {6, 8, 176, 208}, {7, 8, 176, 208}, {3, 8, 208, 240}, {4, 8, 208, 240},
      {5, 8, 208, 240}, {6, 8, 208, 240}, {7, 8, 208, 240}, {3, 8, 240, 272},
      {5, 8, 240, 272}, {6, 8, 240, 272}, {7, 8, 240, 272}, {3, 8, 272, 304},
      {5, 8, 272, 304}, {6, 8, 272, 304}, {7, 8, 272, 304}, {3, 8, 304, 336},
      {5, 8, 304, 336}, {6, 8, 304, 336}, {7, 8, 304, 336}, {5, 16, 336, 400},
      {7, 8, 336, 400}, {5, 8, 400, 464}, {7, 16, 400, 464}, {7, 32, 464, 592},
  };
  EXPECT_TRUE(got == want) << "actual stream:\n" << render(got);
}

}  // namespace
}  // namespace ppg
