#include "core/blackbox_green.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

class BlackboxGreen final : public BoxScheduler {
 public:
  explicit BlackboxGreen(const BlackboxGreenConfig& config)
      : config_(config), rng_(config.seed) {}

  void start(const SchedulerContext& ctx, const EngineView& view) override {
    ctx_ = ctx;
    v_level_ = pow2_ceil(std::max<ProcId>(1, view.active_count()));
    ladder_ = make_ladder();
    pagers_.clear();
    pagers_.reserve(ctx.num_procs);
    impact_.assign(ctx.num_procs, 0);
    pending_.assign(ctx.num_procs, 0);
    for (ProcId i = 0; i < ctx.num_procs; ++i)
      pagers_.push_back(
          make_green_pager(config_.green, ladder_, rng_.fork(),
                           config_.exponent));
    allocated_ = {};
    allocated_height_ = 0;
  }

  BoxAssignment next_box(ProcId proc, Time now,
                         const EngineView& view) override {
    expire_ledger(now);
    maybe_reboot(view);

    const Height h_min = ladder_.h_min;
    const Time filler_len = ctx_.miss_cost * static_cast<Time>(h_min);

    // Fairness gate: greedy pagers must not let one sequence hog impact.
    const Impact min_impact = min_active_impact(view);
    const auto fair_cap = static_cast<Impact>(
        config_.fairness_factor * static_cast<double>(min_impact) +
        static_cast<double>(ctx_.miss_cost) *
            static_cast<double>(ctx_.cache_size) *
            static_cast<double>(h_min));
    if (impact_[proc] > fair_cap)
      return admit(proc, h_min, now, filler_len);

    // Next green box (possibly deferred from an earlier packing failure).
    if (pending_[proc] == 0) pending_[proc] = pagers_[proc]->next_height();
    const Height h = pending_[proc];

    // Packing gate: defer boxes that would overflow the budget.
    const auto budget = static_cast<std::uint64_t>(
        config_.pack_factor * static_cast<double>(ctx_.cache_size));
    if (allocated_height_ + h > budget && h > h_min)
      return admit(proc, h_min, now, filler_len);

    pending_[proc] = 0;
    return admit(proc, h, now, ctx_.miss_cost * static_cast<Time>(h));
  }

  void notify_finished(ProcId, Time now, const EngineView& view) override {
    expire_ledger(now);
    maybe_reboot(view);
  }

  const char* name() const override { return "BLACKBOX-GREEN"; }

 private:
  BoxAssignment admit(ProcId proc, Height h, Time now, Time duration) {
    impact_[proc] += static_cast<Impact>(h) * duration;
    allocated_height_ += h;
    allocated_.push({now + duration, h});
    return BoxAssignment{h, now, now + duration};
  }

  void expire_ledger(Time now) {
    while (!allocated_.empty() && allocated_.top().first <= now) {
      allocated_height_ -= allocated_.top().second;
      allocated_.pop();
    }
  }

  HeightLadder make_ladder() const {
    const Height h_max =
        std::max<Height>(1, static_cast<Height>(pow2_floor(ctx_.cache_size)));
    const Height h_min = static_cast<Height>(std::min<std::uint64_t>(
        h_max,
        pow2_floor(std::max<std::uint64_t>(1, ctx_.cache_size / v_level_))));
    return HeightLadder{h_min, h_max};
  }

  void maybe_reboot(const EngineView& view) {
    const std::uint64_t v =
        pow2_ceil(std::max<ProcId>(1, view.active_count()));
    if (v < v_level_) {
      // The minimum threshold doubled: reboot every pager with the new
      // ladder, exactly as the paper prescribes for black-box use.
      v_level_ = v;
      ladder_ = make_ladder();
      for (auto& pager : pagers_) pager->reboot(ladder_);
      std::fill(pending_.begin(), pending_.end(), Height{0});
    }
  }

  Impact min_active_impact(const EngineView& view) const {
    Impact best = std::numeric_limits<Impact>::max();
    bool any = false;
    view.for_each_active([&](ProcId i) {
      best = std::min(best, impact_[i]);
      any = true;
    });
    return any ? best : 0;
  }

  BlackboxGreenConfig config_;
  Rng rng_;
  SchedulerContext ctx_;

  std::uint64_t v_level_ = 1;
  HeightLadder ladder_;
  std::vector<std::unique_ptr<GreenPager>> pagers_;
  std::vector<Impact> impact_;
  std::vector<Height> pending_;

  // Min-heap of (end time, height) for currently allocated boxes.
  using Entry = std::pair<Time, Height>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> allocated_;
  std::uint64_t allocated_height_ = 0;
};

}  // namespace

std::unique_ptr<BoxScheduler> make_blackbox_green(
    const BlackboxGreenConfig& config) {
  return std::make_unique<BlackboxGreen>(config);
}

}  // namespace ppg
