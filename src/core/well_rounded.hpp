// Empirical verification of the well-rounded property (paper Section 3.3).
//
// A scheduler is well-rounded if (1) every active processor always holds a
// box of at least the phase base height, and (2) for every ladder height
// z >= b, every processor receives a box of height >= z at least every
// O(z^2 * s * log p / b) ticks. Lemma 5 turns exactly these two properties
// into the O(log p) makespan bound, so being able to CHECK them against an
// actual run — rather than trusting the construction — is part of the
// reproduction. The checker records box assignments through the engine's
// observer hook and reports, per processor and rung, the worst observed
// gap normalized by z^2 * s * log2(p) / b (the paper's bound shape): a
// well-rounded scheduler keeps every normalized gap below a modest
// constant.
#pragma once

#include <vector>

#include "core/parallel_engine.hpp"
#include "trace/trace_source.hpp"
#include "util/types.hpp"

namespace ppg {

struct WellRoundedReport {
  Height base_height = 0;          ///< b used for normalization.
  std::vector<Height> rungs;       ///< Heights checked (b, 2b, ..., k).
  /// worst_gap[proc][rung]: longest observed wait for a box of height >=
  /// rungs[rung], in ticks (from run start or previous such box's end to
  /// the next one's start; the tail after the last box is not counted —
  /// the processor may simply have finished).
  std::vector<std::vector<Time>> worst_gap;
  /// normalized[proc][rung] = worst_gap / (z^2 * s * log2(p) / b).
  std::vector<std::vector<double>> normalized;
  /// deliveries[proc][rung]: how many boxes of height >= rungs[rung] the
  /// processor received (0 exposes schedulers that never provide a rung —
  /// a zero worst_gap alone is ambiguous: it also describes a rung held
  /// continuously from t = 0).
  std::vector<std::vector<std::uint64_t>> deliveries;
  /// True when no active processor ever sat without a box (property 1).
  bool gap_free = true;

  /// Largest normalized gap over all processors and rungs.
  double worst_normalized() const;
};

/// Runs `scheduler` on `sources` and measures the well-rounded property
/// against base height b = 2k/p (the phase-start value; phases that shrink
/// the active set only make the real bound looser, so normalizing by the
/// initial b is conservative in the strict direction).
WellRoundedReport check_well_rounded(const MultiTraceSource& sources,
                                     BoxScheduler& scheduler,
                                     const EngineConfig& config);

}  // namespace ppg
