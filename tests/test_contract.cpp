// ValidatingScheduler: every violation kind is classified correctly when
// driven directly, and real schedulers pass clean under validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/contract.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

/// Inner scheduler that returns exactly the boxes a test scripts.
class ScriptedScheduler final : public BoxScheduler {
 public:
  void start(const SchedulerContext&, const EngineView&) override {}
  BoxAssignment next_box(ProcId, Time, const EngineView&) override {
    PPG_CHECK(next_ < boxes_.size());
    return boxes_[next_++];
  }
  const char* name() const override { return "SCRIPTED"; }

  void push(BoxAssignment box) { boxes_.push_back(box); }

 private:
  std::vector<BoxAssignment> boxes_;
  std::size_t next_ = 0;
};

ValidatorConfig record_only() {
  ValidatorConfig config;
  config.throw_on_violation = false;
  return config;
}

SchedulerContext ctx_of(ProcId p, Height k, Time s) {
  return SchedulerContext{p, k, s};
}

struct Rig {
  std::unique_ptr<ValidatingScheduler> validator;
  ScriptedScheduler* scripted;  // owned by validator
  test::FakeView view{2};

  explicit Rig(const ValidatorConfig& config, ProcId p = 2, Height k = 16,
               Time s = 4)
      : view(p) {
    auto inner = std::make_unique<ScriptedScheduler>();
    scripted = inner.get();
    validator = make_validating(std::move(inner), config);
    validator->start(ctx_of(p, k, s), view);
  }
};

TEST(Contract, CleanBoxPassesThroughUnchanged) {
  Rig rig(record_only());
  rig.scripted->push(BoxAssignment{8, 0, 32});
  const BoxAssignment box = rig.validator->next_box(0, 0, rig.view);
  EXPECT_EQ(box.height, 8u);
  EXPECT_EQ(box.end, 32u);
  EXPECT_TRUE(rig.validator->violations().empty());
}

TEST(Contract, DetectsZeroHeight) {
  Rig rig(record_only());
  rig.scripted->push(BoxAssignment{0, 0, 32});
  rig.validator->next_box(0, 0, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  EXPECT_EQ(rig.validator->violations()[0].kind, ViolationKind::kZeroHeight);
}

TEST(Contract, DetectsEmptyBox) {
  Rig rig(record_only());
  rig.scripted->push(BoxAssignment{4, 10, 10});
  rig.validator->next_box(0, 0, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  EXPECT_EQ(rig.validator->violations()[0].kind, ViolationKind::kEmptyBox);
}

TEST(Contract, DetectsOversizedHeight) {
  Rig rig(record_only());
  rig.scripted->push(BoxAssignment{17, 0, 32});  // k = 16
  rig.validator->next_box(0, 0, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  EXPECT_EQ(rig.validator->violations()[0].kind,
            ViolationKind::kOversizedHeight);
}

TEST(Contract, DetectsNonPow2HeightWhenRequired) {
  ValidatorConfig config = record_only();
  config.require_pow2_heights = true;
  Rig rig(config);
  rig.scripted->push(BoxAssignment{6, 0, 32});
  rig.validator->next_box(0, 0, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  EXPECT_EQ(rig.validator->violations()[0].kind, ViolationKind::kNonPow2Height);

  // Without the flag, 6 is accepted (EQUI/STATIC slice arbitrarily).
  Rig loose(record_only());
  loose.scripted->push(BoxAssignment{6, 0, 32});
  loose.validator->next_box(0, 0, loose.view);
  EXPECT_TRUE(loose.validator->violations().empty());
}

TEST(Contract, DetectsUndersizedHeightWhenRequired) {
  ValidatorConfig config = record_only();
  config.min_height = 8;  // the paper grid's floor k/p
  Rig rig(config);
  rig.scripted->push(BoxAssignment{4, 0, 32});
  rig.validator->next_box(0, 0, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  EXPECT_EQ(rig.validator->violations()[0].kind,
            ViolationKind::kUndersizedHeight);
}

TEST(Contract, DetectsOverlapWithPreviousBox) {
  Rig rig(record_only());
  rig.scripted->push(BoxAssignment{4, 0, 32});
  rig.scripted->push(BoxAssignment{4, 31, 63});  // starts before 32
  rig.validator->next_box(0, 0, rig.view);
  rig.validator->next_box(0, 32, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  const ContractViolation& v = rig.validator->violations()[0];
  EXPECT_EQ(v.kind, ViolationKind::kOverlappingBox);
  EXPECT_EQ(v.detail, 32u);  // previous box's end
}

TEST(Contract, DetectsBackdatedStartInIdleGap) {
  // Previous box ended at 32 but the request arrives at 40 (direct drive;
  // through the engine `now` always equals the previous end, so a
  // backdated start there classifies as kOverlappingBox instead).
  Rig rig(record_only());
  rig.scripted->push(BoxAssignment{4, 0, 32});
  rig.scripted->push(BoxAssignment{4, 36, 60});  // 32 <= 36 < 40
  rig.validator->next_box(0, 0, rig.view);
  rig.validator->next_box(0, 40, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  EXPECT_EQ(rig.validator->violations()[0].kind,
            ViolationKind::kBackdatedStart);
}

TEST(Contract, DetectsExcessiveStall) {
  ValidatorConfig config = record_only();
  config.max_stall = 100;
  Rig rig(config);
  rig.scripted->push(BoxAssignment{4, 500, 532});
  rig.validator->next_box(0, 0, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  const ContractViolation& v = rig.validator->violations()[0];
  EXPECT_EQ(v.kind, ViolationKind::kExcessiveStall);
  EXPECT_EQ(v.detail, 500u);
}

TEST(Contract, DetectsBudgetOverflowAcrossProcessors) {
  ValidatorConfig config = record_only();
  config.max_augmentation = 1.0;  // budget = k = 16
  Rig rig(config);
  rig.scripted->push(BoxAssignment{16, 0, 32});
  rig.scripted->push(BoxAssignment{16, 0, 32});  // concurrent: 32 > 16
  rig.validator->next_box(0, 0, rig.view);
  rig.validator->next_box(1, 0, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  const ContractViolation& v = rig.validator->violations()[0];
  EXPECT_EQ(v.kind, ViolationKind::kBudgetOverflow);
  EXPECT_EQ(v.detail, 32u);
}

TEST(Contract, BudgetSweepIgnoresDisjointIntervals) {
  ValidatorConfig config = record_only();
  config.max_augmentation = 1.0;
  Rig rig(config);
  rig.scripted->push(BoxAssignment{16, 0, 32});
  rig.scripted->push(BoxAssignment{16, 32, 64});  // back-to-back, no overlap
  rig.validator->next_box(0, 0, rig.view);
  rig.validator->next_box(0, 32, rig.view);
  EXPECT_TRUE(rig.validator->violations().empty());
}

// The sorted-sweep peak against a brute-force recount at every tick of
// the new box's window, over random clean boxes: stalled future starts,
// overlapping windows across processors, and boxes ending exactly at a
// later request time (which no longer count).
TEST(Contract, PeakConcurrentMatchesBruteForce) {
  constexpr ProcId kProcs = 6;
  constexpr Height kCache = 16;
  ValidatorConfig config = record_only();
  config.max_augmentation = 1.5;  // budget 24: some boxes overflow
  const std::uint64_t budget = 24;
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    Rig rig(config, kProcs, kCache);
    std::vector<BoxAssignment> issued;
    std::vector<Time> frontier(kProcs, 0);
    std::uint64_t want_peak = 0;
    std::vector<std::uint64_t> want_overflows;
    int ends_at_now = 0;
    Time now = 0;
    for (int call = 0; call < 150; ++call) {
      now += rng.next_below(4);
      const auto proc = static_cast<ProcId>(rng.next_below(kProcs));
      BoxAssignment box;
      box.height = static_cast<Height>(rng.next_in(1, kCache));
      box.start = std::max(now, frontier[proc]) + rng.next_below(6);
      box.end = box.start + rng.next_in(1, 16);
      frontier[proc] = box.end;
      rig.scripted->push(box);

      std::uint64_t peak = 0;
      for (Time t = box.start; t < box.end; ++t) {
        std::uint64_t sum = box.height;
        for (const BoxAssignment& b : issued)
          if (b.start <= t && t < b.end) sum += b.height;
        peak = std::max(peak, sum);
      }
      for (const BoxAssignment& b : issued) ends_at_now += b.end == now;
      want_peak = std::max(want_peak, peak);
      if (peak > budget) want_overflows.push_back(peak);
      issued.push_back(box);

      rig.validator->next_box(proc, now, rig.view);
    }
    EXPECT_EQ(rig.validator->peak_concurrent_observed(), want_peak);
    std::vector<std::uint64_t> got_overflows;
    for (const ContractViolation& v : rig.validator->violations()) {
      ASSERT_EQ(v.kind, ViolationKind::kBudgetOverflow) << v.describe();
      got_overflows.push_back(v.detail);
    }
    EXPECT_EQ(got_overflows, want_overflows) << "round " << round;
    EXPECT_GT(ends_at_now, 0);
  }
}

TEST(Contract, DetectsAssignmentToFinishedProcessor) {
  Rig rig(record_only());
  rig.view.finish(1);
  rig.validator->next_box(1, 10, rig.view);
  ASSERT_EQ(rig.validator->violations().size(), 1u);
  EXPECT_EQ(rig.validator->violations()[0].kind,
            ViolationKind::kAssignedToFinished);
}

TEST(Contract, ThrowModeRaisesStructuredException) {
  ValidatorConfig config;  // throw_on_violation = true
  Rig rig(config);
  rig.scripted->push(BoxAssignment{0, 0, 32});
  try {
    rig.validator->next_box(0, 0, rig.view);
    FAIL() << "expected PpgException";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kContractViolation);
    EXPECT_EQ(e.error().proc, 0u);
    EXPECT_NE(e.error().message.find("zero-height"), std::string::npos);
  }
}

TEST(Contract, ViolationDescribeNamesKindAndBox) {
  ContractViolation v;
  v.kind = ViolationKind::kBudgetOverflow;
  v.proc = 2;
  v.now = 7;
  v.box = BoxAssignment{8, 7, 15};
  v.detail = 40;
  const std::string text = v.describe();
  EXPECT_NE(text.find("budget-overflow"), std::string::npos);
  EXPECT_NE(text.find("h=8"), std::string::npos);
  EXPECT_NE(text.find("concurrent height 40"), std::string::npos);
}

// The paper's schedulers must pass the full contract — pow2 heights and
// all — on a real workload, end to end through the engine.
TEST(Contract, RealSchedulersValidateClean) {
  WorkloadParams wp;
  wp.num_procs = 8;
  wp.cache_size = 32;
  wp.requests_per_proc = 2000;
  wp.seed = 3;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);

  for (const SchedulerKind kind : all_scheduler_kinds()) {
    ValidatorConfig config;
    config.throw_on_violation = false;
    // Only the ladder-based schedulers promise power-of-two heights.
    config.require_pow2_heights =
        kind == SchedulerKind::kRandPar || kind == SchedulerKind::kDetPar;
    auto validator = make_validating(make_scheduler(kind, 11), config);
    ValidatingScheduler* observer = validator.get();
    EngineConfig ec;
    ec.cache_size = 32;
    ec.miss_cost = 4;
    const CheckedRun run = run_parallel_checked(mt, *validator, ec);
    EXPECT_TRUE(run.status.ok()) << observer->name() << ": "
                                 << run.status.error.to_string();
    EXPECT_TRUE(observer->violations().empty())
        << observer->name() << " first violation: "
        << (observer->violations().empty()
                ? ""
                : observer->violations()[0].describe());
  }
}

void fnv_mix(std::uint64_t& digest, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (word >> (8 * byte)) & 0xff;
    digest *= 0x100000001b3ull;
  }
}

/// FNV-1a over every ParallelRunResult field, so two runs compare by value.
std::uint64_t result_digest(const ParallelRunResult& r) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  fnv_mix(digest, r.makespan);
  for (const Time t : r.completion) fnv_mix(digest, t);
  fnv_mix(digest, std::bit_cast<std::uint64_t>(r.mean_completion));
  fnv_mix(digest, r.hits);
  fnv_mix(digest, r.misses);
  fnv_mix(digest, r.num_boxes);
  fnv_mix(digest, r.total_stall);
  fnv_mix(digest, r.total_impact);
  fnv_mix(digest, r.peak_concurrent_height);
  fnv_mix(digest, std::bit_cast<std::uint64_t>(r.effective_augmentation));
  return digest;
}

// The validator's running ledger against the engine's own peak tracker at
// p = 1024: clean at the default budget, never below the engine's peak
// (the engine frees a box's height when its processor finishes early, the
// validator holds it to the box's end), and invisible to the run — the
// validated result and box stream are the unvalidated ones, bit for bit.
TEST(Contract, LedgerAgreesWithEngineAtScale) {
  constexpr ProcId kProcs = 1024;
  WorkloadParams wp;
  wp.num_procs = kProcs;
  wp.cache_size = 8 * kProcs;
  wp.requests_per_proc = 200;
  wp.seed = 5;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);

  for (const SchedulerKind kind :
       {SchedulerKind::kStatic, SchedulerKind::kRandPar,
        SchedulerKind::kDetPar}) {
    std::uint64_t box_digest = 0xcbf29ce484222325ull;
    EngineConfig ec;
    ec.cache_size = wp.cache_size;
    ec.miss_cost = 16;
    ec.on_box = [&box_digest](ProcId proc, const BoxAssignment& box) {
      fnv_mix(box_digest, proc);
      fnv_mix(box_digest, box.height);
      fnv_mix(box_digest, box.start);
      fnv_mix(box_digest, box.end);
      fnv_mix(box_digest, box.fresh ? 1 : 0);
    };

    auto plain = make_scheduler(kind, 7);
    const CheckedRun bare = run_parallel_checked(mt, *plain, ec);
    ASSERT_TRUE(bare.status.ok()) << bare.status.error.to_string();
    const std::uint64_t bare_boxes = box_digest;

    box_digest = 0xcbf29ce484222325ull;
    ValidatorConfig config;
    config.require_pow2_heights = kind != SchedulerKind::kStatic;
    auto validator = make_validating(make_scheduler(kind, 7), config);
    const CheckedRun checked = run_parallel_checked(mt, *validator, ec);
    const char* name = validator->name();
    ASSERT_TRUE(checked.status.ok())
        << name << ": " << checked.status.error.to_string();
    EXPECT_TRUE(validator->violations().empty()) << name;
    EXPECT_GE(validator->peak_concurrent_observed(),
              checked.result.peak_concurrent_height)
        << name;
    EXPECT_EQ(result_digest(checked.result), result_digest(bare.result))
        << name;
    EXPECT_EQ(box_digest, bare_boxes) << name;
    EXPECT_GT(checked.result.num_boxes, std::uint64_t{kProcs}) << name;
  }
}

}  // namespace
}  // namespace ppg
