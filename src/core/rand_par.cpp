#include "core/rand_par.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "green/box.hpp"
#include "util/assert.hpp"
#include "util/discrete_distribution.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

// Chunk anatomy (paper Section 3.2), with r = active processors at chunk
// start and h = smallest ladder height >= k/r:
//
//   primary part:   L = #rungs minimal boxes of height h for every active
//                   processor, length L * s * h  (~ s*k*log r / r).
//   secondary part: one height-j box per active processor, j sampled with
//                   Pr[j = h*2^i] ~ 2^(-2i); executed in ceil(r / (k/j))
//                   waves of floor(k/j) concurrent boxes, each wave lasting
//                   s*j, so the expected secondary length matches the
//                   primary length (Observation 1).
class RandPar final : public BoxScheduler {
 public:
  explicit RandPar(const RandParConfig& config)
      : config_(config), rng_(config.seed) {}

  void start(const SchedulerContext& ctx, const EngineView& view) override {
    ctx_ = ctx;
    chunk_end_ = 0;
    start_chunk(0, view);
  }

  void notify_arrived(ProcId proc, Time now, const EngineView& view) override {
    (void)proc;
    (void)now;
    (void)view;
    // The newcomer has no chunk rank; cut the current chunk short and
    // re-chunk at the next box request so it joins the wave schedule
    // (instead of idling in filler boxes until the chunk expires).
    rechunk_ = true;
  }

  BoxAssignment next_box(ProcId proc, Time now,
                         const EngineView& view) override {
    if (rechunk_) {
      rechunk_ = false;
      start_chunk(now, view);
    }
    while (now >= chunk_end_) start_chunk(chunk_end_, view);

    if (now < primary_end_) {
      // Boxes of height h_min on the grid chunk_start + m * s * h_min.
      const Time box_len = ctx_.miss_cost * static_cast<Time>(h_min_);
      const Time into = now - chunk_start_;
      const Time grid_end =
          chunk_start_ + (into / box_len + 1) * box_len;
      return BoxAssignment{h_min_, now, std::min(grid_end, primary_end_)};
    }

    // Secondary part.
    const auto rank_it =
        std::lower_bound(chunk_ids_.begin(), chunk_ids_.end(), proc);
    if (rank_it == chunk_ids_.end() || *rank_it != proc) {
      // Processor was not active at chunk start (can only happen after a
      // restart edge case); park it in a filler box until the chunk ends.
      return BoxAssignment{h_min_, now, chunk_end_};
    }
    const auto rank = static_cast<std::size_t>(rank_it - chunk_ids_.begin());
    const std::size_t wave = rank / procs_per_wave_;
    const Time wave_len = ctx_.miss_cost * static_cast<Time>(j_height_);
    const Time window_start = primary_end_ + static_cast<Time>(wave) * wave_len;
    const Time window_end = window_start + wave_len;
    if (now < window_start) {
      if (config_.stall_between_waves)
        return BoxAssignment{j_height_, window_start, window_end};
      return BoxAssignment{h_min_, now, window_start};
    }
    if (now < window_end) return BoxAssignment{j_height_, now, window_end};
    return BoxAssignment{h_min_, now, chunk_end_};
  }

  const char* name() const override { return "RAND-PAR"; }

 private:
  void start_chunk(Time t0, const EngineView& view) {
    const ProcId r = std::max<ProcId>(1, view.active_count());
    const Height h_max =
        std::max<Height>(1, static_cast<Height>(pow2_floor(ctx_.cache_size)));
    h_min_ = static_cast<Height>(std::min<std::uint64_t>(
        h_max, pow2_ceil(ceil_div(ctx_.cache_size, r))));
    ladder_ = HeightLadder{h_min_, h_max};
    PPG_CHECK(ladder_.valid());

    chunk_start_ = t0;
    const std::uint32_t rungs = ladder_.num_heights();
    const Time primary_len = static_cast<Time>(rungs) *
                             config_.primary_multiplier * ctx_.miss_cost *
                             static_cast<Time>(h_min_);
    primary_end_ = t0 + primary_len;

    // Sample the secondary height j from the impact-inverse distribution.
    std::vector<double> weights(rungs);
    for (std::uint32_t i = 0; i < rungs; ++i)
      weights[i] = std::pow(0.5, config_.exponent * static_cast<double>(i));
    DiscreteDistribution dist(std::move(weights));
    j_height_ = ladder_.height(static_cast<std::uint32_t>(dist.sample(rng_)));

    chunk_ids_ = view.active_ids();
    const std::size_t num_active = chunk_ids_.size();

    procs_per_wave_ = std::max<std::size_t>(1, h_max / j_height_);
    const std::size_t num_waves =
        std::max<std::size_t>(1, ceil_div(num_active, procs_per_wave_));
    const Time secondary_len = static_cast<Time>(num_waves) * ctx_.miss_cost *
                               static_cast<Time>(j_height_);
    chunk_end_ = primary_end_ + secondary_len;
  }

  RandParConfig config_;
  Rng rng_;
  SchedulerContext ctx_;

  bool rechunk_ = false;
  Time chunk_start_ = 0;
  Time primary_end_ = 0;
  Time chunk_end_ = 0;
  Height h_min_ = 1;
  Height j_height_ = 1;
  HeightLadder ladder_;
  std::size_t procs_per_wave_ = 1;
  /// Chunk-start active list, ascending; a processor's rank is its index.
  std::vector<ProcId> chunk_ids_;
};

}  // namespace

std::unique_ptr<BoxScheduler> make_rand_par(const RandParConfig& config) {
  return std::make_unique<RandPar>(config);
}

}  // namespace ppg
