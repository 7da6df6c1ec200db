#include "core/det_par.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "green/box.hpp"
#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

// Lemma 6 construction. Within a phase that starts with r0 active
// processors, let b = smallest ladder height >= 2k/r0 (so b equals k/p_Q at
// the phase's end when half have finished) and let the rungs be
// z = b, 2b, 4b, ..., up to k. For each rung z the scheduler maintains a
// "z-strip": C_z = max(1, k / (z * L)) concurrent height-z slots (L = number
// of rungs), each slot lasting s*z ticks; slot q of slot-cycle c serves the
// processor at position (c*C_z + q + strip offset) mod r0 of the
// phase-start active list. That gives every processor a height-z box every
// ~ s*z^2*L/b ticks — the well-rounded property — while the strips use
// O(k) memory in total. Processors hold base boxes of height b whenever no
// strip box is assigned to them.
//
// The schedule is a pure function of (phase start, phase-start active
// list), so the demand-driven engine can query it lazily: DET-PAR is fully
// deterministic and oblivious.
class DetPar final : public BoxScheduler {
 public:
  explicit DetPar(const DetParConfig& config) : config_(config) {}

  void start(const SchedulerContext& ctx, const EngineView& view) override {
    ctx_ = ctx;
    start_phase(0, view);
  }

  void notify_arrived(ProcId proc, Time now, const EngineView& view) override {
    (void)proc;
    (void)now;
    (void)view;
    // An arrival invalidates the phase-start active list (the newcomer has
    // no strip position); re-phase lazily at the next box request so
    // same-batch arrivals fold into one new phase.
    rephase_ = true;
  }

  BoxAssignment next_box(ProcId proc, Time now,
                         const EngineView& view) override {
    if (rephase_ ||
        static_cast<double>(view.active_count()) <=
            config_.phase_halving * static_cast<double>(r0_.divisor())) {
      start_phase(now, view);
    }

    const std::size_t idx = position(proc);

    // Per strip: (a) a box window containing `now` assigned to this
    // processor — take the tallest — and (b) the earliest upcoming window,
    // both in closed form, so a call costs O(rungs). Rung m has height
    // b·2^m, so its cycle index is the base cycle index shifted right by m
    // (floor(floor(x/a)/2^m) = floor(x/(a·2^m))): one division per call,
    // not one per rung, and every division is by a divisor fixed at phase
    // start.
    Height current_height = 0;
    Time current_end = 0;
    Time next_start = kTimeInfinity;
    const Time c_base = (now - phase_start_) / base_len_;
    for (std::size_t m = 0; m < strips_.size(); ++m) {
      const Strip& strip = strips_[m];
      PPG_DCHECK(strip.height == base_height_ << m);
      const Time cycle_len = base_len_.divisor() << m;
      const Time c_now = c_base >> m;
      const StripWindow window = strip_window(r0_, strip.slots, strip.step,
                                              strip.offset, c_now, idx);
      if (window.serves_now && strip.height > current_height) {
        current_height = strip.height;
        current_end = phase_start_ + (c_now + 1) * cycle_len;
      }
      next_start =
          std::min(next_start, phase_start_ + window.next_cycle * cycle_len);
    }

    if (current_height > base_height_)
      return BoxAssignment{current_height, now, current_end};

    // Base box of height b until the next strip window (capped at s*b so
    // phase transitions are re-examined regularly).
    Time end = now + base_len_.divisor();
    if (next_start > now && next_start < end) end = next_start;
    return BoxAssignment{base_height_, now, end};
  }

  const char* name() const override { return "DET-PAR"; }

 private:
  struct Strip {
    Height height;       // z
    Divisor slots;       // C_z
    std::size_t step;    // C_z mod r0
    std::size_t offset;  // stagger between strips
  };

  /// proc's index in the phase-start list, in O(1). A processor always
  /// appears there: phases start before any box is issued, processors
  /// never re-activate, and an online arrival forces a re-phase (rephase_)
  /// before its first box.
  std::size_t position(ProcId proc) const {
    // proc below the first id wraps to a huge offset and misses the table.
    const std::size_t slot = proc - first_id_;
    const std::size_t idx = slot < positions_.size() ? positions_[slot] : 0;
    PPG_CHECK_MSG(idx < phase_ids_.size() && phase_ids_[idx] == proc,
                  "processor missing from phase list");
    return idx;
  }

  void start_phase(Time t0, const EngineView& view) {
    rephase_ = false;
    phase_start_ = t0;
    phase_ids_ = view.active_ids();
    const std::size_t r0 = std::max<std::size_t>(1, phase_ids_.size());
    r0_ = Divisor(r0);

    // The table spans the phase's ids, not every id ever admitted. It
    // grows to the widest span seen and is never cleared: a slot of an id
    // outside the list holds a stale index (or 0), which position()'s
    // check rejects, so a phase start writes only its r0 slots.
    first_id_ = phase_ids_.empty() ? 0 : phase_ids_.front();
    const std::size_t span =
        phase_ids_.empty() ? 0 : phase_ids_.back() - first_id_ + std::size_t{1};
    if (positions_.size() < span) positions_.resize(span);
    for (std::size_t i = 0; i < phase_ids_.size(); ++i)
      positions_[phase_ids_[i] - first_id_] = static_cast<std::uint32_t>(i);

    const Height h_max =
        std::max<Height>(1, static_cast<Height>(pow2_floor(ctx_.cache_size)));
    base_height_ = static_cast<Height>(std::min<std::uint64_t>(
        h_max, pow2_ceil(ceil_div(2 * ctx_.cache_size, r0))));
    base_len_ = Divisor(ctx_.miss_cost * static_cast<Time>(base_height_));
    const HeightLadder ladder{base_height_, h_max};
    PPG_CHECK(ladder.valid());
    const std::uint32_t rungs = ladder.num_heights();

    // Rung m has height b·2^m, so C_z = max(1, k / (b·2^m·L)) is the base
    // rung's quotient shifted right by m: one division for every strip.
    const std::size_t base_slots =
        ctx_.cache_size / (static_cast<std::size_t>(base_height_) * rungs);
    strips_.clear();
    strips_.reserve(rungs);
    for (std::uint32_t m = 0; m < rungs; ++m) {
      const auto slots = std::max<std::size_t>(1, base_slots >> m);
      strips_.push_back(
          Strip{ladder.height(m), Divisor(slots), slots % r0_, m});
    }
  }

  DetParConfig config_;
  SchedulerContext ctx_;

  Time phase_start_ = 0;
  bool rephase_ = false;
  Divisor r0_{1};  ///< Phase-start active count, at least 1.
  Height base_height_ = 1;
  Divisor base_len_{1};  ///< s*b, one base-height cycle.
  std::vector<Strip> strips_;
  std::vector<ProcId> phase_ids_;  ///< Phase-start active list, ascending.
  ProcId first_id_ = 0;            ///< phase_ids_.front(), 0 when empty.
  /// positions_[id - first_id_] = index of id in phase_ids_.
  std::vector<std::uint32_t> positions_;
};

}  // namespace

StripWindow strip_window(const Divisor& r0, const Divisor& slots,
                         std::size_t step, std::size_t offset, Time cycle,
                         std::size_t idx) {
  PPG_DCHECK(step == slots.divisor() % r0.divisor());
  const std::size_t n = r0.divisor();
  const auto base =
      static_cast<std::size_t>((slots.divisor() * cycle + offset) % r0);
  // rel = (idx - base(cycle)) mod r0; the cycle serves idx iff rel < slots.
  const std::size_t rel = idx >= base ? idx - base : idx + n - base;
  // base(cycle + 1) = base + slots (mod r0), so d = (rel - slots) mod r0.
  const std::size_t d = rel >= step ? rel - step : rel + n - step;
  return StripWindow{rel < slots.divisor(), cycle + 1 + d / slots};
}

std::unique_ptr<BoxScheduler> make_det_par(const DetParConfig& config) {
  return std::make_unique<DetPar>(config);
}

}  // namespace ppg
