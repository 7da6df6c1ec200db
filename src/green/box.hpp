// Boxes: the paper's unit of memory allocation.
//
// A box of height h gives a processor h cache slots for a duration; the
// canonical box of the paper lasts s*h ticks and costs memory impact
// h * (s*h) = s*h^2. Boxes are compartmentalized: the processor's per-box
// LRU starts empty.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/math_util.hpp"
#include "util/types.hpp"

namespace ppg {

struct Box {
  Height height = 0;
  Time duration = 0;

  Impact impact() const {
    return static_cast<Impact>(height) * static_cast<Impact>(duration);
  }

  bool operator==(const Box&) const = default;
};

/// Canonical box of the paper: duration = s * height.
inline Box canonical_box(Height height, Time s) {
  PPG_DCHECK(height >= 1);
  return Box{height, s * static_cast<Time>(height)};
}

/// Geometry of a green-paging instance: heights are the powers of two
/// h_min, 2*h_min, ..., h_max (the paper's k/p * 2^j for j in [log p]).
struct HeightLadder {
  Height h_min = 1;
  Height h_max = 1;

  /// Number of rungs = log2(h_max/h_min) + 1.
  std::uint32_t num_heights() const {
    PPG_DCHECK(valid());
    return ilog2_floor(h_max / h_min) + 1;
  }

  Height height(std::uint32_t rung) const {
    PPG_DCHECK(rung < num_heights());
    return h_min << rung;
  }

  /// Smallest rung whose height is >= h (clamped to the top rung).
  std::uint32_t rung_for(Height h) const {
    if (h <= h_min) return 0;
    const std::uint32_t r = ilog2_ceil(ceil_div(h, h_min));
    return r >= num_heights() ? num_heights() - 1 : r;
  }

  bool contains(Height h) const {
    return h >= h_min && h <= h_max && (h % h_min) == 0 && is_pow2(h / h_min);
  }

  bool valid() const {
    return h_min >= 1 && h_max >= h_min && is_pow2(h_max / h_min);
  }

  /// The ladder for cache size k shared by p processors: [k/p, k].
  static HeightLadder for_cache(Height k, std::uint32_t p) {
    PPG_CHECK(k >= 1 && p >= 1 && p <= k);
    const auto h_min = static_cast<Height>(k / pow2_floor(p));
    return HeightLadder{std::max<Height>(1, static_cast<Height>(
                            pow2_floor(h_min))),
                        static_cast<Height>(pow2_floor(k))};
  }
};

/// Piecewise-constant ladder over request positions (paper Section 4): with
/// v sequences still alive each may claim k/v, so the ladder's bottom rises
/// as processors finish. A box's allowed heights are those of the ladder in
/// force at its STARTING position; it may finish in a later epoch (boxes
/// are short, so this matches the paper's constant-factor slack).
class EpochSchedule {
 public:
  struct Epoch {
    std::size_t start_position;
    HeightLadder ladder;
  };

  /// Epochs must start at position 0 and be strictly increasing; every
  /// ladder must be valid.
  explicit EpochSchedule(std::vector<Epoch> epochs)
      : epochs_(std::move(epochs)) {
    PPG_CHECK_MSG(!epochs_.empty(), "schedule needs at least one epoch");
    PPG_CHECK_MSG(epochs_.front().start_position == 0,
                  "first epoch must start at position 0");
    for (std::size_t i = 0; i < epochs_.size(); ++i) {
      PPG_CHECK(epochs_[i].ladder.valid());
      if (i > 0)
        PPG_CHECK_MSG(
            epochs_[i].start_position > epochs_[i - 1].start_position,
            "epoch starts must be strictly increasing");
    }
  }

  /// Single-epoch schedule: classic green paging on one ladder, so a
  /// HeightLadder passes wherever a schedule is taken.
  EpochSchedule(const HeightLadder& ladder)
      : EpochSchedule({Epoch{0, ladder}}) {}

  const HeightLadder& ladder_at(std::size_t position) const {
    return epochs_[epoch_at(position)].ladder;
  }

  /// Index of the epoch in force at `position`.
  std::size_t epoch_at(std::size_t position) const {
    std::size_t lo = 0;
    std::size_t hi = epochs_.size();
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (epochs_[mid].start_position <= position)
        lo = mid;
      else
        hi = mid;
    }
    return lo;
  }

  std::size_t num_epochs() const { return epochs_.size(); }
  const Epoch& epoch(std::size_t i) const {
    PPG_CHECK(i < epochs_.size());
    return epochs_[i];
  }

  /// The parallel-paging shape: the minimum threshold doubles at each
  /// given position while the top stays at h_max (the "reboot whenever
  /// the minimum threshold doubles" regime of Section 4).
  static EpochSchedule doubling_min(Height h_min, Height h_max,
                                    const std::vector<std::size_t>& steps) {
    std::vector<Epoch> epochs;
    Height current = h_min;
    epochs.push_back(Epoch{0, HeightLadder{current, h_max}});
    for (const std::size_t step : steps) {
      current = std::min<Height>(h_max, current * 2);
      epochs.push_back(Epoch{step, HeightLadder{current, h_max}});
    }
    return EpochSchedule(std::move(epochs));
  }

 private:
  std::vector<Epoch> epochs_;
};

/// A box profile: the sequence of boxes a green-paging algorithm allocates.
class BoxProfile {
 public:
  BoxProfile() = default;
  explicit BoxProfile(std::vector<Box> boxes) : boxes_(std::move(boxes)) {}

  void push_back(Box box) { boxes_.push_back(box); }
  std::size_t size() const { return boxes_.size(); }
  bool empty() const { return boxes_.empty(); }
  const Box& operator[](std::size_t i) const {
    PPG_DCHECK(i < boxes_.size());
    return boxes_[i];
  }
  const std::vector<Box>& boxes() const { return boxes_; }

  Impact total_impact() const {
    Impact sum = 0;
    for (const Box& b : boxes_) sum += b.impact();
    return sum;
  }

  Time total_duration() const {
    Time sum = 0;
    for (const Box& b : boxes_) sum += b.duration;
    return sum;
  }

  /// True when every box height lies on the ladder.
  bool conforms_to(const HeightLadder& ladder) const {
    for (const Box& b : boxes_)
      if (!ladder.contains(b.height)) return false;
    return true;
  }

  auto begin() const { return boxes_.begin(); }
  auto end() const { return boxes_.end(); }

 private:
  std::vector<Box> boxes_;
};

}  // namespace ppg
