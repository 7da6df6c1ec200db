#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/det_par.hpp"
#include "core/parallel_engine.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

MultiTrace mixed_workload(ProcId p, Height k, std::size_t len) {
  WorkloadParams params;
  params.num_procs = p;
  params.cache_size = k;
  params.requests_per_proc = len;
  params.seed = 3;
  return make_workload(WorkloadKind::kHeterogeneousMix, params);
}

EngineConfig config_for(Height k, Time s) {
  EngineConfig c;
  c.cache_size = k;
  c.miss_cost = s;
  return c;
}

TEST(DetPar, CompletesAllSequences) {
  const MultiTrace mt = mixed_workload(8, 32, 2000);
  auto scheduler = make_det_par();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
}

TEST(DetPar, FullyDeterministic) {
  const MultiTrace mt = mixed_workload(8, 32, 1500);
  auto s1 = make_det_par();
  auto s2 = make_det_par();
  const ParallelRunResult a = run_parallel(mt, *s1, config_for(32, 4));
  const ParallelRunResult b = run_parallel(mt, *s2, config_for(32, 4));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.num_boxes, b.num_boxes);
}

TEST(DetPar, RespectsConstantAugmentation) {
  const MultiTrace mt = mixed_workload(16, 64, 2000);
  auto scheduler = make_det_par();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(64, 4));
  // Base boxes ~2k + strips ~k + tall-box cycling ~2k: well under 8x.
  EXPECT_LE(r.effective_augmentation, 8.0);
}

TEST(DetPar, EveryActiveProcessorAlwaysHasABox) {
  // Well-roundedness property 1: between its first box and its completion,
  // a processor is never without an assignment (no stall gaps).
  const MultiTrace mt = mixed_workload(8, 32, 1000);
  auto scheduler = make_det_par();
  EngineConfig c = config_for(32, 4);
  std::map<ProcId, Time> last_end;
  bool gap_free = true;
  c.on_box = [&](ProcId proc, const BoxAssignment& box) {
    if (auto it = last_end.find(proc); it != last_end.end()) {
      if (box.start > it->second) gap_free = false;
    }
    last_end[proc] = box.end;
  };
  run_parallel(mt, *scheduler, c);
  EXPECT_TRUE(gap_free);
}

// Well-roundedness property 2 (the heart of Lemma 6): for every height z on
// the phase ladder, a processor receives a box of height >= z at least
// every C * z^2 * s * log(p) / b ticks. We verify empirically with a
// generous constant, using equal-length single-use traces so that no
// processor finishes early (phases do not rotate mid-measurement).
TEST(DetPar, WellRoundedGapBound) {
  const ProcId p = 8;
  const Height k = 64;
  const Time s = 4;
  MultiTrace mt;
  for (ProcId i = 0; i < p; ++i)
    mt.add(gen::rebase_to_proc(gen::single_use(30000), i));

  auto scheduler = make_det_par();
  EngineConfig c = config_for(k, s);
  // last_tall[proc][rung] = last time a box of height >= z ended.
  const Height b = static_cast<Height>(pow2_ceil(2 * k / p));  // 16
  const std::uint32_t rungs = ilog2_floor(k / b) + 1;          // 16,32,64
  std::vector<std::vector<Time>> last_seen(p, std::vector<Time>(rungs, 0));
  std::vector<std::vector<Time>> worst_gap(p, std::vector<Time>(rungs, 0));
  c.on_box = [&](ProcId proc, const BoxAssignment& box) {
    for (std::uint32_t rung = 0; rung < rungs; ++rung) {
      const Height z = b << rung;
      if (box.height >= z) {
        const Time gap = box.start - last_seen[proc][rung];
        worst_gap[proc][rung] = std::max(worst_gap[proc][rung], gap);
        last_seen[proc][rung] = box.end;
      }
    }
  };
  const ParallelRunResult r = run_parallel(mt, *scheduler, c);

  const double logp = std::max(1.0, std::log2(static_cast<double>(p)));
  for (ProcId proc = 0; proc < p; ++proc) {
    for (std::uint32_t rung = 0; rung < rungs; ++rung) {
      const double z = static_cast<double>(b << rung);
      const double bound =
          16.0 * z * z * static_cast<double>(s) * logp / b;
      EXPECT_LE(static_cast<double>(worst_gap[proc][rung]), bound)
          << "proc " << proc << " z " << z;
      // The processor must have received the tall box at all (the run is
      // long enough for several periods).
      EXPECT_GT(last_seen[proc][rung], 0u) << "proc " << proc << " z " << z;
    }
  }
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
}

TEST(DetPar, PhaseBaseHeightGrowsAsProcessorsFinish) {
  // Wildly different lengths: as processors finish, later boxes should be
  // taller on average (base height doubles each phase).
  const Height k = 64;
  MultiTrace mt;
  for (ProcId i = 0; i < 8; ++i) {
    const std::size_t len = 500 << (i % 4 == 0 ? 4 : 0);
    mt.add(gen::rebase_to_proc(gen::single_use(len), i));
  }
  auto scheduler = make_det_par();
  EngineConfig c = config_for(k, 4);
  Height max_filler_seen = 0;
  c.on_box = [&](ProcId, const BoxAssignment& box) {
    max_filler_seen = std::max(max_filler_seen, box.height);
  };
  const ParallelRunResult r = run_parallel(mt, *scheduler, c);
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  EXPECT_EQ(max_filler_seen, k);  // last survivor gets full-cache boxes
}

// --- Closed-form strip windows ------------------------------------------
// The reference is the horizon scan DET-PAR's next_box used before the
// closed form: try cycles cycle+1 .. cycle + ceil(r0/C) + 2 in order and
// take the first one whose slots serve idx.

bool reference_serves(std::size_t r0, std::size_t slots, std::size_t offset,
                      Time cycle, std::size_t idx) {
  const auto base = static_cast<std::size_t>(
      (static_cast<Time>(slots) * cycle + offset) % static_cast<Time>(r0));
  return (idx + r0 - base) % r0 < slots;
}

std::optional<Time> reference_next_cycle(std::size_t r0, std::size_t slots,
                                         std::size_t offset, Time cycle,
                                         std::size_t idx) {
  const Time horizon = cycle + ceil_div(r0, slots) + 2;
  for (Time c = cycle + 1; c <= horizon; ++c)
    if (reference_serves(r0, slots, offset, c, idx)) return c;
  return std::nullopt;
}

void expect_matches_reference(std::size_t r0, std::size_t slots,
                              std::size_t offset, Time cycle,
                              std::size_t idx) {
  const std::optional<Time> want =
      reference_next_cycle(r0, slots, offset, cycle, idx);
  // The horizon never clipped the answer: some cycle in it always serves.
  ASSERT_TRUE(want.has_value()) << "r0=" << r0 << " C=" << slots
                                << " offset=" << offset << " c=" << cycle
                                << " idx=" << idx;
  const StripWindow got = strip_window(r0, slots, offset, cycle, idx);
  ASSERT_EQ(got.next_cycle, *want)
      << "r0=" << r0 << " C=" << slots << " offset=" << offset
      << " c=" << cycle << " idx=" << idx;
  ASSERT_EQ(got.serves_now, reference_serves(r0, slots, offset, cycle, idx))
      << "r0=" << r0 << " C=" << slots << " offset=" << offset
      << " c=" << cycle << " idx=" << idx;
}

TEST(DetParStrip, ClosedFormNextCycleMatchesHorizonScanExhaustively) {
  // Every small geometry, including r0 = 1 and C >= r0 (up to r0 + 3).
  for (std::size_t r0 = 1; r0 <= 24; ++r0)
    for (std::size_t slots = 1; slots <= r0 + 3; ++slots)
      for (std::size_t offset = 0; offset < 4; ++offset)
        for (Time cycle = 0; cycle < 6; ++cycle)
          for (std::size_t idx = 0; idx < r0; ++idx)
            expect_matches_reference(r0, slots, offset, cycle, idx);
}

TEST(DetParStrip, ClosedFormNextCycleMatchesHorizonScanRandomized) {
  Rng rng(12);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t r0 = rng.next_in(1, 5000);
    // Half the trials draw C log-uniformly so narrow strips (long scans)
    // and C >= r0 both show up often.
    const std::size_t slots =
        rng.next_bool(0.5)
            ? rng.next_in(1, r0 + 3)
            : std::min<std::size_t>(
                  r0 + 3, std::size_t{1} << rng.next_below(14));
    const std::size_t offset = rng.next_below(1 << 20);
    const Time cycle = rng.next_below(Time{1} << 40);
    const std::size_t idx = rng.next_below(r0);
    expect_matches_reference(r0, slots, offset, cycle, idx);
  }
}

// --- O(1) phase positions ------------------------------------------------
// DET-PAR ranks a processor through a position table over the phase's id
// span. Its boxes depend on ids only through their rank in the phase-start
// list, so a run on gapped ids must match, box for box, the same run on the
// dense ids 0..r0-1, across re-phases that shrink and grow the span.

class ListView final : public EngineView {
 public:
  explicit ListView(ProcId num_procs) : num_procs_(num_procs) {}
  void set(std::vector<ProcId> ids) { ids_ = std::move(ids); }
  ProcId num_procs() const override { return num_procs_; }
  ProcId active_count() const override {
    return static_cast<ProcId>(ids_.size());
  }
  bool is_active(ProcId proc) const override {
    return std::binary_search(ids_.begin(), ids_.end(), proc);
  }
  const std::vector<ProcId>& active_ids() const override { return ids_; }

 private:
  ProcId num_procs_;
  std::vector<ProcId> ids_;
};

const SchedulerContext kPositionContext{1001, 64, 4};

TEST(DetParPosition, GappedIdsServeLikeDenseIdsAcrossRephases) {
  // Each step is the active list for a stretch of calls. The id spans run
  // 398, then 2 after half leave (a halving re-phase), 999 after arrivals
  // (an arrival re-phase), 2 again, then 3 and 997 after more arrivals.
  const std::vector<std::vector<ProcId>> steps = {
      {3, 9, 10, 400}, {9, 10}, {2, 9, 10, 1000}, {9, 10}, {9, 10, 11},
      {0, 9, 10, 11, 996}};
  ListView gapped(kPositionContext.num_procs);
  ListView dense(kPositionContext.num_procs);
  auto on_gapped = make_det_par();
  auto on_dense = make_det_par();
  const auto set_both = [&](const std::vector<ProcId>& ids) {
    std::vector<ProcId> ranks(ids.size());
    std::iota(ranks.begin(), ranks.end(), ProcId{0});
    gapped.set(ids);
    dense.set(ranks);
  };
  set_both(steps.front());
  on_gapped->start(kPositionContext, gapped);
  on_dense->start(kPositionContext, dense);

  Time now = 0;
  std::size_t boxes = 0;
  for (std::size_t step = 0; step < steps.size(); ++step) {
    const std::vector<ProcId>& ids = steps[step];
    set_both(ids);
    if (step > 0 && ids.size() >= steps[step - 1].size()) {
      // Growth is an arrival: the newest id announces itself.
      on_gapped->notify_arrived(ids.back(), now, gapped);
      on_dense->notify_arrived(static_cast<ProcId>(ids.size() - 1), now,
                               dense);
    }
    for (int round = 0; round < 40; ++round, now += 7) {
      for (std::size_t rank = 0; rank < ids.size(); ++rank) {
        const BoxAssignment got = on_gapped->next_box(ids[rank], now, gapped);
        const BoxAssignment want =
            on_dense->next_box(static_cast<ProcId>(rank), now, dense);
        ASSERT_EQ(got.height, want.height) << "step " << step << " now "
                                           << now << " id " << ids[rank];
        ASSERT_EQ(got.start, want.start) << "step " << step << " now " << now
                                         << " id " << ids[rank];
        ASSERT_EQ(got.end, want.end) << "step " << step << " now " << now
                                     << " id " << ids[rank];
        ++boxes;
      }
    }
  }
  EXPECT_EQ(boxes, 40u * (4 + 2 + 4 + 2 + 3 + 5));
}

TEST(DetParPositionDeathTest, ProcessorOutsideThePhaseListAborts) {
  ListView view(kPositionContext.num_procs);
  view.set({3, 9, 10, 400});
  const auto box_for = [&](ProcId proc) {
    auto scheduler = make_det_par();
    scheduler->start(kPositionContext, view);
    scheduler->next_box(proc, 0, view);
  };
  box_for(400);  // a member is served
  // Inside the span but not a member, below the first id, above the last.
  EXPECT_DEATH(box_for(5), "processor missing from phase list");
  EXPECT_DEATH(box_for(1), "processor missing from phase list");
  EXPECT_DEATH(box_for(401), "processor missing from phase list");
}

// --- Golden box streams --------------------------------------------------
// Lemma 6's strip layout pinned on tiny instances (p = 8, k = 32, s = 4):
// every (proc, height, start, end) the engine's on_box hook sees, in grant
// order. Any change to phase order, strip positions, r0, rungs or window
// arithmetic shows up here as a diff; on mismatch the actual stream is
// printed in the same literal form, so a deliberate change can be re-pinned.

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

std::function<void(ProcId, const BoxAssignment&)> recorder(
    std::vector<BoxRecord>& boxes) {
  return [&boxes](ProcId proc, const BoxAssignment& box) {
    boxes.push_back(BoxRecord{proc, box.height, box.start, box.end});
  };
}

/// Mixed single-use and cyclic processors of staggered lengths, so the
/// active count halves mid-run and several phases rotate.
std::shared_ptr<const TraceSource> golden_source(ProcId i) {
  if (i % 2 == 0) return gen::single_use_source(12 * (i + 1));
  return gen::cyclic_source(6 + i, 20 * (i + 1));
}

TEST(DetParGolden, BatchBoxStreamPinsStripLayout) {
  MultiTraceSource sources;
  for (ProcId i = 0; i < 8; ++i) sources.add(golden_source(i));
  std::vector<BoxRecord> got;
  EngineConfig c = config_for(32, 4);
  c.on_box = recorder(got);
  auto scheduler = make_det_par();
  run_parallel(sources, *scheduler, c);

  const std::vector<BoxRecord> want = {
      {0, 8, 0, 32}, {1, 16, 0, 64}, {2, 32, 0, 128}, {3, 8, 0, 32},
      {4, 8, 0, 32}, {5, 8, 0, 32}, {6, 8, 0, 32}, {7, 8, 0, 32},
      {0, 8, 32, 64}, {3, 8, 32, 64}, {4, 8, 32, 64}, {5, 8, 32, 64},
      {6, 8, 32, 64}, {7, 8, 32, 64}, {3, 8, 64, 96}, {4, 8, 64, 96},
      {5, 8, 64, 96}, {6, 8, 64, 96}, {7, 8, 64, 96}, {3, 8, 96, 128},
      {4, 8, 96, 128}, {5, 8, 96, 128}, {6, 8, 96, 128}, {7, 8, 96, 128},
      {2, 8, 128, 160}, {3, 32, 128, 256}, {4, 8, 128, 160}, {5, 8, 128, 160},
      {6, 8, 128, 160}, {7, 8, 128, 160}, {4, 8, 160, 192}, {5, 8, 160, 192},
      {6, 8, 160, 192}, {7, 8, 160, 192}, {4, 16, 192, 256}, {5, 8, 192, 224},
      {6, 8, 192, 224}, {7, 8, 192, 224}, {5, 32, 224, 352}, {6, 16, 224, 288},
      {7, 16, 224, 288}, {6, 16, 288, 352}, {7, 16, 288, 352}, {7, 32, 352, 480},
  };
  EXPECT_TRUE(got == want) << "actual stream:\n" << render(got);
}

TEST(DetParGolden, OnlineArrivalDepartureBoxStream) {
  std::vector<BoxRecord> got;
  EngineConfig c = config_for(32, 4);
  c.on_box = recorder(got);
  auto scheduler = make_det_par();
  EngineStepper stepper(*scheduler, c);
  for (ProcId i = 0; i < 4; ++i) stepper.add_processor(golden_source(i));
  stepper.start();
  int steps = 0;
  bool more = true;
  while (more) {
    more = stepper.step();
    ++steps;
    if (steps == 2) {
      // Three arrivals folding into one re-phase...
      for (ProcId i = 4; i < 7; ++i)
        stepper.add_processor(golden_source(i), stepper.now() + 3);
      more = true;
    }
    // ...a forced departure, and a straggler arriving alone.
    if (steps == 6) stepper.depart(1);
    if (steps == 9) {
      stepper.add_processor(golden_source(7), stepper.now() + 1);
      more = true;
    }
  }
  ASSERT_TRUE(stepper.finish().status.ok());

  const std::vector<BoxRecord> want = {
      {0, 16, 0, 64}, {1, 32, 0, 128}, {2, 16, 0, 64}, {3, 16, 0, 64},
      {4, 16, 51, 115}, {5, 16, 51, 115}, {6, 16, 51, 115}, {2, 32, 64, 179},
      {3, 16, 64, 128}, {4, 16, 115, 179}, {5, 16, 115, 179}, {6, 16, 115, 179},
      {3, 16, 128, 179}, {7, 16, 145, 209}, {4, 32, 179, 273}, {5, 16, 179, 243},
      {6, 16, 179, 243}, {7, 16, 209, 273}, {5, 16, 243, 273}, {6, 16, 243, 307},
      {4, 16, 273, 337}, {5, 32, 273, 401}, {7, 16, 273, 337}, {6, 16, 307, 337},
      {6, 32, 337, 465}, {7, 32, 337, 465},
  };
  EXPECT_TRUE(got == want) << "actual stream:\n" << render(got);
}

TEST(DetPar, SingleProcessorWithinConstantOfDedicatedLru) {
  MultiTrace mt;
  mt.add(gen::cyclic(30, 2000));
  auto scheduler = make_det_par();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  // p = 1: every box has the full-cache height 32 >= working set, but each
  // compartment reset re-faults the cycle. The paper's accounting bounds
  // this at a constant factor over dedicated LRU (an OPT-box of work s*z
  // always completes inside one fresh height-z box).
  const Time dedicated_lru = 30 * 4 + (2000 - 30);  // cold misses + hits
  EXPECT_LT(r.makespan, 8 * dedicated_lru);
  EXPECT_GE(r.makespan, dedicated_lru);
}

}  // namespace
}  // namespace ppg
