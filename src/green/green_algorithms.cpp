#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "green/green_algorithm.hpp"
#include "green/green_opt.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace_source.hpp"
#include "util/assert.hpp"
#include "util/discrete_distribution.hpp"

namespace ppg {

namespace {

class RandGreen final : public GreenPager {
 public:
  RandGreen(const HeightLadder& ladder, Rng rng, double exponent)
      : rng_(rng), exponent_(exponent) {
    reboot(ladder);
  }

  Height next_height() override {
    const std::size_t rung = dist_->sample(rng_);
    return ladder_.height(static_cast<std::uint32_t>(rung));
  }

  void reboot(const HeightLadder& ladder) override {
    PPG_CHECK(ladder.valid());
    ladder_ = ladder;
    std::vector<double> weights(ladder.num_heights());
    for (std::uint32_t r = 0; r < weights.size(); ++r) {
      // Weight of height h_min*2^r is (1/2^r)^exponent; exponent 2 makes
      // the expected impact contribution of every rung equal (Lemma 1).
      weights[r] = std::pow(0.5, exponent_ * static_cast<double>(r));
    }
    dist_ = std::make_unique<DiscreteDistribution>(std::move(weights));
  }

  const char* name() const override { return "RAND-GREEN"; }

 private:
  Rng rng_;
  double exponent_;
  HeightLadder ladder_;
  std::unique_ptr<DiscreteDistribution> dist_;
};

// Deterministic impact-balanced pager: the derandomization of RAND-GREEN's
// 1/j^2 distribution. Rung r must receive ~4^-r of the boxes so that every
// rung gets an equal share of the total impact (a rung-r box costs 4^r
// times a rung-0 box); then any needed height z arrives within O(log p) *
// s*z^2 impact, matching Theorem 1 deterministically. A naive
// doubling sweep (h_min, 2h_min, ..., h_max, repeat) does NOT work: every
// sweep charges the full s*h_max^2 even when the request sequence only
// ever needs small boxes, losing a factor of p on streams.
//
// The 4^-r frequencies are realized exactly by a base-4 ruler sequence:
// at step t = 1, 2, ..., emit the rung equal to the number of trailing 3s
// in t's base-4 representation (frequency of rung r is 3/4^(r+1)), capped
// at the top rung.
class DetGreen final : public GreenPager {
 public:
  explicit DetGreen(const HeightLadder& ladder) { reboot(ladder); }

  Height next_height() override {
    ++step_;
    std::uint32_t rung = 0;
    std::uint64_t t = step_;
    while ((t & 3) == 3) {
      ++rung;
      t >>= 2;
    }
    const std::uint32_t top = ladder_.num_heights() - 1;
    return ladder_.height(std::min(rung, top));
  }

  void reboot(const HeightLadder& ladder) override {
    PPG_CHECK(ladder.valid());
    ladder_ = ladder;
    step_ = 0;
  }

  const char* name() const override { return "DET-GREEN"; }

 private:
  HeightLadder ladder_;
  std::uint64_t step_ = 0;
};

class FixedGreen final : public GreenPager {
 public:
  FixedGreen(const HeightLadder& ladder, Height height) : height_(height) {
    reboot(ladder);
  }

  Height next_height() override { return effective_; }

  void reboot(const HeightLadder& ladder) override {
    PPG_CHECK(ladder.valid());
    // Snap the requested height onto the new ladder.
    effective_ = ladder.height(ladder.rung_for(height_));
  }

  const char* name() const override { return "FIXED"; }

 private:
  Height height_;
  Height effective_ = 1;
};

}  // namespace

std::unique_ptr<GreenPager> make_rand_green(const HeightLadder& ladder,
                                            Rng rng, double exponent) {
  return std::make_unique<RandGreen>(ladder, rng, exponent);
}

std::unique_ptr<GreenPager> make_det_green(const HeightLadder& ladder) {
  return std::make_unique<DetGreen>(ladder);
}

std::unique_ptr<GreenPager> make_fixed_green(const HeightLadder& ladder,
                                             Height height) {
  return std::make_unique<FixedGreen>(ladder, height);
}

const char* green_kind_name(GreenKind kind) {
  switch (kind) {
    case GreenKind::kRand: return "RAND-GREEN";
    case GreenKind::kDet: return "DET-GREEN";
    case GreenKind::kFixedMin: return "FIXED-MIN";
    case GreenKind::kFixedMax: return "FIXED-MAX";
  }
  return "unknown";
}

std::unique_ptr<GreenPager> make_green_pager(GreenKind kind,
                                             const HeightLadder& ladder,
                                             Rng rng, double exponent) {
  switch (kind) {
    case GreenKind::kRand: return make_rand_green(ladder, rng, exponent);
    case GreenKind::kDet: return make_det_green(ladder);
    case GreenKind::kFixedMin: return make_fixed_green(ladder, ladder.h_min);
    case GreenKind::kFixedMax: return make_fixed_green(ladder, ladder.h_max);
  }
  PPG_CHECK_MSG(false, "unknown green kind");
  return nullptr;
}

ProfileRunResult run_green_paging(const Trace& trace, GreenPager& pager,
                                  const EpochSchedule& schedule,
                                  Time miss_cost, BoxProfile* profile_out) {
  PPG_CHECK(miss_cost >= 1);
  screen_span(trace.requests().data(), trace.size(), 0);
  const std::vector<std::size_t> previous = previous_accesses(trace);
  ProfileRunResult result;
  std::size_t epoch = 0;
  for (std::size_t b = 0; b < previous.size();) {
    if (const std::size_t e = schedule.epoch_at(b); e != epoch) {
      epoch = e;
      pager.reboot(schedule.epoch(epoch).ladder);
    }
    const Box box = canonical_box(pager.next_height(), miss_cost);
    PPG_CHECK_MSG(schedule.epoch(epoch).ladder.contains(box.height),
                  "pager left the epoch's ladder");
    const BoxAdvance adv =
        canonical_box_advance(previous, b, box.height, miss_cost);
    // The box opened empty at b: request i missed iff its page was last
    // touched before b (or never; kNoPrevious reads as -1 signed).
    BoxStepResult step;
    step.misses = static_cast<std::uint64_t>(std::count_if(
        previous.begin() + static_cast<std::ptrdiff_t>(b),
        previous.begin() + static_cast<std::ptrdiff_t>(adv.end),
        [b](std::size_t prev) {
          return static_cast<std::ptrdiff_t>(prev) <
                 static_cast<std::ptrdiff_t>(b);
        }));
    step.hits = adv.end - b - step.misses;
    step.stall_time = adv.stall;
    step.finished = adv.end == previous.size();
    const Time used = result.charge(box, step);
    if (profile_out != nullptr) profile_out->push_back(Box{box.height, used});
    b = adv.end;
  }
  return result;
}

}  // namespace ppg
