// Online green paging algorithms.
//
// A green pager emits the next box height; it is *oblivious* in the paper's
// sense — it never sees the request sequence, only the instance geometry
// (the height ladder) — which is exactly what lets the parallel schedulers
// reuse it as a black box. run_green_paging() couples a pager with a
// BoxRunner to service a concrete trace and measure memory impact;
// run_green_paging_dynamic() does the same under an epoch schedule,
// rebooting the pager whenever the ladder changes.
#pragma once

#include <cstddef>
#include <memory>

#include "green/box.hpp"
#include "green/box_runner.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace ppg {

class GreenPager {
 public:
  virtual ~GreenPager() = default;

  /// Height of the next box to allocate (must lie on the ladder).
  virtual Height next_height() = 0;

  /// Resets internal state (e.g. when the parallel packer "reboots" the
  /// pager after the minimum threshold doubles) with a new ladder.
  virtual void reboot(const HeightLadder& ladder) = 0;

  virtual const char* name() const = 0;
};

/// RAND-GREEN (paper Section 3.1): samples each box height independently,
/// with Pr[height = h_min * 2^r] proportional to 1/(2^r)^exponent. The
/// paper's distribution is exponent = 2 (probability inversely proportional
/// to the box's memory impact); other exponents are exposed for the E7
/// ablation.
std::unique_ptr<GreenPager> make_rand_green(const HeightLadder& ladder,
                                            Rng rng, double exponent = 2.0);

/// DET-GREEN: deterministic impact-balanced pager — rung r is emitted with
/// frequency exactly proportional to 4^-r (a base-4 ruler sequence), so
/// every rung receives an equal share of impact and any needed height z
/// arrives within O(log p) * s*z^2 impact. The exact derandomization of
/// RAND-GREEN's distribution, O(log p)-competitive like it.
std::unique_ptr<GreenPager> make_det_green(const HeightLadder& ladder);

/// Fixed-height pager (degenerate baseline for tests/ablation).
std::unique_ptr<GreenPager> make_fixed_green(const HeightLadder& ladder,
                                             Height height);

enum class GreenKind { kRand, kDet, kFixedMin, kFixedMax };
const char* green_kind_name(GreenKind kind);
std::unique_ptr<GreenPager> make_green_pager(GreenKind kind,
                                             const HeightLadder& ladder,
                                             Rng rng,
                                             double exponent = 2.0);

/// Services `trace` with canonical boxes drawn from `pager`.
/// Returns time/impact/fault totals.
ProfileRunResult run_green_paging(const Trace& trace, GreenPager& pager,
                                  Time miss_cost,
                                  BoxProfile* profile_out = nullptr);

/// Section 4's evolving thresholds: services `trace` with canonical boxes
/// from `pager`, rebooting it with the new ladder whenever a box starts in
/// a new epoch of `schedule`. Returns totals plus the reboots performed.
struct DynamicGreenResult {
  ProfileRunResult run;
  std::size_t reboots = 0;
};

DynamicGreenResult run_green_paging_dynamic(const Trace& trace,
                                            GreenPager& pager,
                                            const EpochSchedule& schedule,
                                            Time miss_cost);

}  // namespace ppg
