// DET-PAR (paper Section 3.3): the deterministic well-rounded
// O(log p)-competitive parallel-paging scheduler.
#pragma once

#include <cstddef>
#include <memory>

#include "core/scheduler.hpp"

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
/// position every cycle).
StripWindow strip_window(std::size_t r0, std::size_t slots,
                         std::size_t offset, Time cycle, std::size_t idx);

}  // namespace ppg
