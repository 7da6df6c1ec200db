// E7 — Ablation: the 1/j^2 box-height distribution.
//
// RAND-GREEN samples height h_min*2^r with probability ~ 2^(-exponent*r).
// The paper's exponent is 2, which equalizes the expected impact
// contribution of every rung (Lemma 1). This ablation sweeps the exponent
// for both green paging (impact ratio) and RAND-PAR (makespan ratio):
// exponent 0 over-spends on tall boxes, large exponents starve workloads
// that need them.
//
//   --jobs N|max   run sweep cells on N threads (default 1)
#include <iostream>

#include "bench_common.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "core/parallel_engine.hpp"
#include "core/rand_par.hpp"
#include "green/green_algorithm.hpp"
#include "green/green_opt.hpp"
#include "opt/opt_bounds.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

int run_bench(int argc, char** argv) {
  using namespace ppg;
  const ArgParser args(argc, argv);
  const std::size_t jobs = jobs_from_args(args);
  bench::reject_unknown_options(args);

  bench::banner(
      "E7", "Ablation: box-height distribution exponent",
      "The impact-inverse (exponent 2) distribution of Lemma 1 equalizes "
      "expected impact per rung; flatter or steeper distributions lose.");

  const Time s = 16;
  const std::vector<double> exponents{0.0, 1.0, 2.0, 3.0};

  // Part 1: green paging impact ratios. The last case uses a large s so
  // that hit-serving dominates and the steep exponent's reluctance to emit
  // mid-height boxes becomes visible (with small s, falling back to
  // miss-serving caps every exponent's loss at ~s * h_min per request).
  //
  // The cases share one Rng, so they are generated serially up front; each
  // (case, set of exponents) is then an independent sweep cell.
  Table green_table({"workload", "p", "s", "exp0", "exp1", "exp2", "exp3"});
  struct GreenCase {
    const char* name;
    Trace trace;
    std::uint32_t p;
    Time miss_cost;
  };
  std::vector<GreenCase> cases;
  for (std::uint32_t p : {8u, 64u}) {
    const Height k = 4 * p;
    Rng rng(21);
    cases.push_back({"sawtooth",
                     gen::sawtooth(std::max<std::uint64_t>(2, k / p), k / 2,
                                   800, 10, rng),
                     p, s});
    cases.push_back({"single-use", gen::single_use(8000), p, s});
    cases.push_back(
        {"hot-cycle", gen::cyclic(std::max<std::uint64_t>(2, k / 2), 8000),
         p, s});
  }
  cases.push_back({"mid-cycle-bigS", gen::cyclic(8, 5000), 32u, 128});

  struct GreenResult {
    std::vector<double> ratios;  ///< One per exponent.
  };
  const std::vector<GreenResult> green_results =
      sweep_cells(jobs, cases.size(), [&](std::size_t i) {
        const GreenCase& gc = cases[i];
        const Height k = 4 * gc.p;
        const HeightLadder ladder = HeightLadder::for_cache(k, gc.p);
        const Impact opt = green_opt(gc.trace, ladder, gc.miss_cost).impact;
        GreenResult res;
        for (const double exponent : exponents) {
          double sum = 0;
          const int trials = 5;
          for (int trial = 0; trial < trials; ++trial) {
            auto pager = make_rand_green(
                ladder, Rng(31 + static_cast<std::uint64_t>(trial)), exponent);
            sum += static_cast<double>(
                run_green_paging(gc.trace, *pager, ladder, gc.miss_cost)
                    .impact);
          }
          res.ratios.push_back(
              sum / trials / static_cast<double>(std::max<Impact>(1, opt)));
        }
        return res;
      });

  bench::section("green paging: impact ratio vs exact OPT, by exponent");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GreenCase& gc = cases[i];
    green_table.row().cell(gc.name).cell(gc.p).cell(gc.miss_cost);
    for (const double ratio : green_results[i].ratios) green_table.cell(ratio);
  }
  bench::print_table(green_table);

  // Part 2: RAND-PAR makespan by exponent; one cell per p (the instance and
  // its OPT bounds are shared by every exponent column).
  const std::vector<ProcId> ps{8u, 32u, 64u};
  struct ParResult {
    std::vector<double> ratios;  ///< One per exponent.
  };
  const std::vector<ParResult> par_results =
      sweep_cells(jobs, ps.size(), [&](std::size_t i) {
        const ProcId p = ps[i];
        WorkloadParams wp;
        wp.num_procs = p;
        wp.cache_size = 8 * p;
        wp.requests_per_proc = 4000;
        wp.seed = 41 + p;
        const MultiTrace mt =
            make_workload(WorkloadKind::kPollutedCycles, wp);
        OptBoundsConfig oc;
        oc.cache_size = wp.cache_size;
        oc.miss_cost = s;
        const OptBounds bounds = compute_opt_bounds(mt, oc);
        ParResult res;
        for (const double exponent : exponents) {
          double sum = 0;
          const int trials = 3;
          for (int trial = 0; trial < trials; ++trial) {
            RandParConfig config;
            config.seed = 51 + static_cast<std::uint64_t>(trial);
            config.exponent = exponent;
            auto scheduler = make_rand_par(config);
            EngineConfig ec;
            ec.cache_size = wp.cache_size;
            ec.miss_cost = s;
            sum += static_cast<double>(
                run_parallel(mt, *scheduler, ec).makespan);
          }
          res.ratios.push_back(sum / trials /
                               static_cast<double>(bounds.lower_bound()));
        }
        return res;
      });

  bench::section("RAND-PAR: makespan ratio vs OPT LB, by exponent");
  Table par_table({"p", "exp0", "exp1", "exp2", "exp3"});
  for (std::size_t i = 0; i < ps.size(); ++i) {
    par_table.row().cell(static_cast<std::uint64_t>(ps[i]));
    for (const double ratio : par_results[i].ratios) par_table.cell(ratio);
  }
  bench::print_table(par_table);
  std::cout << "\nExpected shape: exponent 2 is the only uniformly robust "
               "column. Exponents < 2 blow up on single-use streams as p "
               "grows (too much mass on tall boxes); exponent 3 loses on "
               "mid-cycle-bigS, where hit-serving at a middle rung is the "
               "only cheap strategy and steep distributions rarely emit it "
               "(small s caps that loss via miss-serving, hence the "
               "dedicated large-s row).\n";
  return 0;
}

int main(int argc, char** argv) {
  return ppg::bench::guarded_main(run_bench, argc, argv);
}
