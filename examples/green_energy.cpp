// Green paging as an energy problem.
//
// Memory impact — cache size integrated over time — models the energy a
// processor's cache consumes (the original motivation for green paging).
// This example services one program under every green pager in the
// library, prints the impact ("energy") each one spends against the exact
// offline optimum, and shows the box-height histogram of the optimal
// profile so the time-varying cache appetite of the workload is visible.
//
//   $ ./green_energy [p] [k]
#include <cstdlib>
#include <iostream>
#include <map>

#include "green/green_algorithm.hpp"
#include "green/green_opt.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ppg;
  const std::uint32_t p =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 64;
  const Height k = argc > 2 ? static_cast<Height>(std::atoi(argv[2])) : 4 * p;
  const Time s = 16;
  const HeightLadder ladder = HeightLadder::for_cache(k, p);

  // A program whose cache appetite oscillates: tight hot loops, then scans.
  Rng rng(5);
  const Trace trace =
      gen::sawtooth(std::max<std::uint64_t>(2, k / p), k / 2, 1500, 12, rng);
  std::cout << "Workload: sawtooth, " << trace.size() << " requests, "
            << trace.distinct_pages() << " distinct pages; ladder ["
            << ladder.h_min << ", " << ladder.h_max << "], s = " << s
            << "\n\n";

  const GreenOptResult opt = green_opt(trace, ladder, s);
  std::cout << "Offline optimal energy (memory impact): " << opt.impact
            << " page-ticks over " << opt.profile.size() << " boxes\n\n";

  Table table({"pager", "impact", "ratio_vs_opt", "boxes", "misses"});
  for (const GreenKind kind : {GreenKind::kRand, GreenKind::kDet,
                               GreenKind::kFixedMin, GreenKind::kFixedMax}) {
    auto pager = make_green_pager(kind, ladder, Rng(13));
    const ProfileRunResult r = run_green_paging(trace, *pager, ladder, s);
    table.row()
        .cell(green_kind_name(kind))
        .cell(r.impact)
        .cell(static_cast<double>(r.impact) / static_cast<double>(opt.impact),
              2)
        .cell(static_cast<std::uint64_t>(r.boxes_used))
        .cell(r.misses);
  }
  table.print(std::cout);

  std::cout << "\nOptimal profile's box-height mix (how much cache the "
               "program 'wants' over time):\n";
  std::map<Height, std::pair<std::uint64_t, Impact>> mix;
  for (const Box& b : opt.profile) {
    mix[b.height].first += 1;
    mix[b.height].second += b.impact();
  }
  Table mix_table({"height", "boxes", "impact_share"});
  for (const auto& [height, entry] : mix) {
    mix_table.row()
        .cell(static_cast<std::uint64_t>(height))
        .cell(entry.first)
        .cell(static_cast<double>(entry.second) /
                  static_cast<double>(opt.impact),
              3);
  }
  mix_table.print(std::cout);
  std::cout << "\nRAND-GREEN's 1/j^2 sampling and DET-GREEN's doubling "
               "sweep both track this mix within the paper's O(log p) "
               "guarantee without ever seeing the trace.\n";
  return 0;
}
