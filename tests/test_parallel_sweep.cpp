// Determinism suite for the parallel sweep executor: identical cell inputs
// must produce byte-identical rendered output at every --jobs value and
// across repeated runs. scripts/tier1.sh re-runs this suite under
// ThreadSanitizer (PPG_SANITIZE=thread) to race the same code paths.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/parallel_sweep.hpp"
#include "trace/workload.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ppg {
namespace {

TEST(ParallelSweep, JobsFromArgsParsesFlagForms) {
  const auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    const ArgParser args(static_cast<int>(argv.size()), argv.data());
    return jobs_from_args(args);
  };
  EXPECT_EQ(parse({}), 1u);  // default: serial
  EXPECT_EQ(parse({"--jobs", "3"}), 3u);
  EXPECT_EQ(parse({"--jobs=5"}), 5u);
  EXPECT_EQ(parse({"--jobs", "max"}), hardware_jobs());
  EXPECT_EQ(parse({"--jobs", "0"}), hardware_jobs());
  EXPECT_THROW(parse({"--jobs", "-1"}), PpgException);
  EXPECT_THROW(parse({"--jobs", "many"}), PpgException);
  // An explicit count is capped; parsing it starts no thread.
  const std::string ceiling = std::to_string(kMaxJobs);
  EXPECT_EQ(parse({"--jobs", ceiling.c_str()}), kMaxJobs);
  EXPECT_THROW(parse({"--jobs", "1000000"}), PpgException);
}

TEST(ParallelSweep, CellSeedIsPureAndSpreads) {
  // Pure function of (base, index)...
  EXPECT_EQ(cell_seed(42, 7), cell_seed(42, 7));
  // ...and collision-free over a realistic sweep size.
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 10000; ++i) seen.insert(cell_seed(42, i));
  EXPECT_EQ(seen.size(), 10000u);
  // Different bases decorrelate.
  EXPECT_NE(cell_seed(1, 0), cell_seed(2, 0));
}

TEST(ParallelSweep, SweepCellsPreservesEnumerationOrder) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 hardware_jobs()}) {
    const std::vector<std::size_t> out =
        sweep_cells(jobs, 257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], i * i) << "jobs=" << jobs;
  }
}

// Renders every field a bench table would consume with full precision, so
// equality of the strings is equality of the published numbers.
std::string render_outcomes(const std::vector<InstanceOutcome>& outcomes) {
  std::ostringstream os;
  os.precision(17);
  for (const InstanceOutcome& io : outcomes) {
    os << "LB=" << io.bounds.lower_bound() << "\n";
    for (const SchedulerOutcome& so : io.outcomes) {
      os << so.name << " ok=" << so.status.ok()
         << " makespan=" << so.result.makespan
         << " mean_ct=" << so.result.mean_completion
         << " misses=" << so.result.misses
         << " ratio=" << so.makespan_ratio << " ctr=" << so.mean_ct_ratio
         << "\n";
    }
  }
  return os.str();
}

std::vector<InstanceCell> make_cells() {
  std::vector<InstanceCell> cells;
  std::size_t index = 0;
  for (const WorkloadKind wkind :
       {WorkloadKind::kCacheHungry, WorkloadKind::kHeterogeneousMix}) {
    for (const ProcId p : {2u, 4u}) {
      WorkloadParams wp;
      wp.num_procs = p;
      wp.cache_size = 8 * p;
      wp.requests_per_proc = 400;
      wp.seed = cell_seed(5, index++);
      InstanceCell cell;
      cell.sources = make_workload_source(wkind, wp);
      cell.kinds = all_scheduler_kinds();
      cell.config.cache_size = wp.cache_size;
      cell.config.miss_cost = 8;
      cell.config.seed = 3;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(ParallelSweep, RunInstancesByteIdenticalAcrossJobs) {
  const std::vector<InstanceCell> cells = make_cells();
  const std::string serial = render_outcomes(run_instances(cells, 1));
  EXPECT_FALSE(serial.empty());
  for (const std::size_t jobs : {std::size_t{2},
                                 hardware_jobs()}) {
    EXPECT_EQ(render_outcomes(run_instances(cells, jobs)), serial)
        << "jobs=" << jobs;
  }
}

TEST(ParallelSweep, RunInstancesByteIdenticalAcrossRepeats) {
  const std::vector<InstanceCell> cells = make_cells();
  const std::string first = render_outcomes(run_instances(cells, 2));
  EXPECT_EQ(render_outcomes(run_instances(cells, 2)), first);
}

TEST(ParallelSweep, CellExceptionPropagatesToCaller) {
  EXPECT_THROW(sweep_cells(2, 8,
                           [](std::size_t i) -> int {
                             if (i == 3) throw std::runtime_error("cell");
                             return 0;
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace ppg
