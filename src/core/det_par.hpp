// DET-PAR (paper Section 3.3): the deterministic well-rounded
// O(log p)-competitive parallel-paging scheduler. A phase start costs
// O(r0 + id span): it copies the r0 active ids and fills a position table
// over the span from the lowest to the highest of them. A box request
// then costs O(1) to find the processor's position and O(rungs)
// multiplies for the strip windows, with no division and no search.
#pragma once

#include <cstddef>
#include <memory>

#include "core/scheduler.hpp"
#include "util/math_util.hpp"

namespace ppg {

struct DetParConfig {
  /// Phase transition threshold: a new phase starts when the active count
  /// drops to (phase-start count) * 1/2 (paper value). Exposed for tests.
  double phase_halving = 0.5;
};

std::unique_ptr<BoxScheduler> make_det_par(const DetParConfig& config = {});

/// Lemma 6 strip arithmetic (exposed for tests). A strip with `slots`
/// concurrent slots serves, in slot-cycle c, the phase-start positions
/// (base(c) + q) mod r0 for q < slots, where base(c) = (c*slots + offset)
/// mod r0.
struct StripWindow {
  bool serves_now;  ///< Cycle `cycle` serves the position.
  Time next_cycle;  ///< The earliest later cycle that serves it.
};

/// Both windows of position idx < r0 around `cycle`, in O(1). With
/// c1 = cycle + 1 and d = (idx - base(c1)) mod r0, the next cycle is
/// c1 + d / slots. Exact because base advances by `slots` per cycle and
/// j*slots <= d < r0 never wraps; this also covers slots >= r0 (every
/// position every cycle). `r0` and `slots` are the divisors DET-PAR fixes
/// at phase start, and `step` is slots mod r0, so a call divides by
/// multiplies only (Divisor, util/math_util.hpp).
StripWindow strip_window(const Divisor& r0, const Divisor& slots,
                         std::size_t step, std::size_t offset, Time cycle,
                         std::size_t idx);

/// strip_window with the divisors built for this one call.
inline StripWindow strip_window(std::size_t r0, std::size_t slots,
                                std::size_t offset, Time cycle,
                                std::size_t idx) {
  return strip_window(Divisor(r0), Divisor(slots), slots % r0, offset, cycle,
                      idx);
}

}  // namespace ppg
