#include "core/well_rounded.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

double WellRoundedReport::worst_normalized() const {
  double worst = 0.0;
  for (const auto& per_proc : normalized)
    for (double v : per_proc) worst = std::max(worst, v);
  return worst;
}

WellRoundedReport check_well_rounded(const MultiTraceSource& sources,
                                     BoxScheduler& scheduler,
                                     const EngineConfig& config) {
  const ProcId p = sources.num_procs();
  PPG_CHECK(p >= 1);
  WellRoundedReport report;
  const Height h_max = std::max<Height>(
      1, static_cast<Height>(pow2_floor(config.cache_size)));
  report.base_height = static_cast<Height>(std::min<std::uint64_t>(
      h_max, pow2_ceil(ceil_div(2 * config.cache_size, p))));
  for (Height z = report.base_height; z <= h_max; z *= 2)
    report.rungs.push_back(z);

  const std::size_t rungs = report.rungs.size();
  report.worst_gap.assign(p, std::vector<Time>(rungs, 0));
  report.deliveries.assign(p, std::vector<std::uint64_t>(rungs, 0));
  std::vector<std::vector<Time>> last_end(p, std::vector<Time>(rungs, 0));
  std::vector<Time> prev_box_end(p, 0);

  EngineConfig instrumented = config;
  instrumented.on_box = [&](ProcId proc, const BoxAssignment& box) {
    if (box.start > prev_box_end[proc]) report.gap_free = false;
    prev_box_end[proc] = std::max(prev_box_end[proc], box.end);
    for (std::size_t r = 0; r < rungs; ++r) {
      if (box.height < report.rungs[r]) continue;
      const Time gap = box.start - last_end[proc][r];
      report.worst_gap[proc][r] = std::max(report.worst_gap[proc][r], gap);
      ++report.deliveries[proc][r];
      last_end[proc][r] = std::max(last_end[proc][r], box.end);
    }
  };
  run_parallel(sources, scheduler, instrumented);

  const double logp =
      std::max(1.0, std::log2(static_cast<double>(p)));
  report.normalized.assign(p, std::vector<double>(rungs, 0.0));
  for (ProcId i = 0; i < p; ++i) {
    for (std::size_t r = 0; r < rungs; ++r) {
      const double z = static_cast<double>(report.rungs[r]);
      const double bound = z * z * static_cast<double>(config.miss_cost) *
                           logp / static_cast<double>(report.base_height);
      report.normalized[i][r] =
          static_cast<double>(report.worst_gap[i][r]) / bound;
    }
  }
  return report;
}

}  // namespace ppg
