#include "green/greedy_check.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "green/green_opt.hpp"
#include "trace/stack_distance.hpp"
#include "util/assert.hpp"

namespace ppg {

bool GreedyCheckResult::is_greedily_competitive(double g,
                                                Impact slack) const {
  for (const GreedyCheckpoint& cp : checkpoints) {
    const double allowed =
        g * static_cast<double>(cp.opt_impact) + static_cast<double>(slack);
    if (static_cast<double>(cp.pager_impact) > allowed) return false;
  }
  return true;
}

GreedyCheckResult check_greedily_green(const Trace& trace, GreenPager& pager,
                                       const HeightLadder& ladder,
                                       Time miss_cost,
                                       std::size_t num_checkpoints) {
  PPG_CHECK(num_checkpoints >= 1);
  GreedyCheckResult result;
  if (trace.empty()) return result;

  // Target prefix boundaries (the pager's box granularity means we record
  // the first box end at or past each target).
  std::vector<std::size_t> targets;
  for (std::size_t c = 1; c <= num_checkpoints; ++c)
    targets.push_back(trace.size() * c / num_checkpoints);

  // One previous-access table serves the replay and every checkpoint: a
  // prefix's table is the same-length prefix of the whole trace's.
  const std::vector<std::size_t> previous = previous_accesses(trace);
  const EpochSchedule schedule(ladder);
  ProfileRunResult run;
  std::size_t next_target = 0;
  for (std::size_t b = 0; b < previous.size();) {
    const Box box = canonical_box(pager.next_height(), miss_cost);
    PPG_CHECK_MSG(ladder.contains(box.height), "pager left the ladder");
    const BoxAdvance adv =
        canonical_box_advance(previous, b, box.height, miss_cost);
    BoxStepResult step;
    step.stall_time = adv.stall;
    step.finished = adv.end == previous.size();
    run.charge(box, step);
    b = adv.end;
    while (next_target < targets.size() && b >= targets[next_target]) {
      GreedyCheckpoint cp;
      cp.prefix_requests = b;
      cp.pager_impact = run.impact;
      cp.opt_impact =
          green_opt(std::span(previous).first(b), schedule, miss_cost).impact;
      cp.ratio = static_cast<double>(cp.pager_impact) /
                 static_cast<double>(std::max<Impact>(1, cp.opt_impact));
      result.max_ratio = std::max(result.max_ratio, cp.ratio);
      result.checkpoints.push_back(std::move(cp));
      ++next_target;
    }
  }
  return result;
}

}  // namespace ppg
