// Empirical validation of Definition 1 (greedy green-competitiveness).
//
// A green pager is g-greedily competitive if on EVERY prefix pi of the
// request sequence its incurred impact is at most g * OPT(pi) + g'. This
// is the property Theorem 4's lower bound applies to: an online
// competitive pager is automatically greedily competitive (the sequence
// could end at any moment), but a clairvoyant pager could "greenwash" —
// overspend early to look greener later. The checker replays a pager
// against a trace, snapshots the impact at every prefix boundary it
// crosses, and compares with the exact green-OPT DP value of that prefix.
//
// Cost: one previous-access pass, which serves the replay (one
// canonical_box_advance per box) and one DP per checkpoint on that table's
// prefix (O(n * s * h_max) each) — choose num_checkpoints accordingly.
#pragma once

#include <cstddef>
#include <vector>

#include "green/green_algorithm.hpp"
#include "trace/trace.hpp"

namespace ppg {

struct GreedyCheckpoint {
  std::size_t prefix_requests = 0;  ///< |pi|.
  Impact pager_impact = 0;          ///< Impact the pager had spent by then.
  Impact opt_impact = 0;            ///< Exact OPT impact for the prefix.
  double ratio = 0.0;               ///< pager / max(1, opt).
};

struct GreedyCheckResult {
  std::vector<GreedyCheckpoint> checkpoints;
  double max_ratio = 0.0;  ///< The empirical g (additive slack ignored).

  /// True if every checkpoint ratio is <= g (+ slack expressed as an
  /// absolute impact allowance).
  bool is_greedily_competitive(double g, Impact slack = 0) const;
};

/// Replays `pager` on `trace` with canonical boxes and evaluates Definition
/// 1 at `num_checkpoints` (approximately) evenly spaced prefixes. Throws
/// kCorruptTrace at the first kInvalidPage in `trace`.
GreedyCheckResult check_greedily_green(const Trace& trace, GreenPager& pager,
                                       const HeightLadder& ladder,
                                       Time miss_cost,
                                       std::size_t num_checkpoints = 8);

}  // namespace ppg
