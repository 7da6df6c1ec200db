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
#include "test_helpers.hpp"
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
  EXPECT_EQ(parse({"--jobs", "max"}), ThreadPool::hardware_jobs());
  EXPECT_EQ(parse({"--jobs", "0"}), ThreadPool::hardware_jobs());
  EXPECT_THROW(parse({"--jobs", "-1"}), PpgException);
  EXPECT_THROW(parse({"--jobs", "many"}), PpgException);
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
                                 ThreadPool::hardware_jobs()}) {
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
                                 ThreadPool::hardware_jobs()}) {
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

// --- sharding -------------------------------------------------------------

ArgParser make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ParallelSweep, ShardFromArgsParsesFlagForms) {
  EXPECT_FALSE(shard_from_args(make_args({})).sharded());
  const ShardSpec spec = shard_from_args(make_args({"--shard", "1/4"}));
  EXPECT_EQ(spec.index, 1u);
  EXPECT_EQ(spec.count, 4u);
  EXPECT_TRUE(spec.sharded());
  EXPECT_EQ(spec.to_string(), "1/4");
  EXPECT_FALSE(shard_from_args(make_args({"--shard", "0/1"})).sharded());
  for (const char* bad : {"4/4", "5/4", "1-4", "1/", "/4", "x/y", "1/0",
                          "-1/4", "1/4/2", ""}) {
    EXPECT_THROW(shard_from_args(make_args({"--shard", bad})), PpgException)
        << "accepted --shard " << bad;
  }
}

TEST(ParallelSweep, ShardOwnershipIsRoundRobinAndPartitions) {
  for (std::uint32_t count : {2u, 3u, 4u}) {
    for (std::uint64_t cell = 0; cell < 40; ++cell) {
      std::size_t owners = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (ShardSpec{i, count}.owns(cell)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "cell " << cell << " of /" << count;
      const ShardSpec owner{static_cast<std::uint32_t>(cell % count), count};
      EXPECT_TRUE(owner.owns(cell));
    }
  }
  // The identity shard owns everything.
  EXPECT_TRUE(ShardSpec{}.owns(0));
  EXPECT_TRUE(ShardSpec{}.owns(12345));
}

TEST(ParallelSweep, ShardBindingFoldRoundTrips) {
  const ShardSpec spec{2, 4};
  const std::string folded = apply_shard_binding("bench v1 quick=1", spec);
  EXPECT_EQ(folded, "bench v1 quick=1 shard=2/4");
  const auto [base, parsed] = strip_shard_binding(folded);
  EXPECT_EQ(base, "bench v1 quick=1");
  EXPECT_EQ(parsed.index, 2u);
  EXPECT_EQ(parsed.count, 4u);
  // Identity shards fold to the bare base, and strip back to identity.
  EXPECT_EQ(apply_shard_binding("bench v1", ShardSpec{}), "bench v1");
  const auto [plain_base, plain_spec] = strip_shard_binding("bench v1");
  EXPECT_EQ(plain_base, "bench v1");
  EXPECT_FALSE(plain_spec.sharded());
}

TEST(ParallelSweep, ShardRequiresJournal) {
  try {
    sweep_cli_from_args(make_args({"--shard", "0/2"}), "bench v1");
    FAIL() << "sharded run accepted without --journal";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
    EXPECT_NE(e.error().message.find("--journal"), std::string::npos);
  }
  EXPECT_THROW(sweep_cli_from_args(make_args({"--steal-lease"}), "bench v1"),
               PpgException);
}

TEST(ParallelSweep, ShardedSweepComputesOnlyItsSlice) {
  const std::string path =
      test::unique_temp_path("shard_slice_test.ppgjrnl");
  std::remove(path.c_str());
  const char* shard_argv[] = {"prog", "--shard", "1/3", "--journal",
                              path.c_str()};
  const SweepCli cli = sweep_cli_from_args(ArgParser(5, shard_argv),
                                           "bench v1");
  ASSERT_TRUE(cli.sharded());
  ASSERT_NE(cli.journal, nullptr);
  EXPECT_EQ(cli.journal->binding(), "bench v1 shard=1/3");

  std::set<std::size_t> touched;
  const auto out = sweep_cells(
      cli.options, 10,
      [&](std::size_t i) {
        touched.insert(i);
        return cell_seed(3, i);
      },
      [](CellWriter& w, const std::uint64_t& v) { w.u64(v); },
      [](CellReader& r) { return r.u64(); });
  EXPECT_EQ(touched, (std::set<std::size_t>{1, 4, 7}));
  EXPECT_EQ(cli.journal->num_records(), 3u);
  ASSERT_EQ(out.size(), 10u);
  for (const std::size_t i : {1u, 4u, 7u}) EXPECT_EQ(out[i], cell_seed(3, i));
  for (const std::size_t i : {0u, 2u, 3u}) EXPECT_EQ(out[i], 0u)
      << "non-owned slot was computed";
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(ParallelSweep, ShardEpilogueSkipsRenderingForWorkers) {
  const std::string path =
      test::unique_temp_path("shard_epilogue_test.ppgjrnl");
  std::remove(path.c_str());
  const char* shard_argv[] = {"prog", "--shard", "0/2", "--journal",
                              path.c_str()};
  {
    const SweepCli cli = sweep_cli_from_args(ArgParser(5, shard_argv),
                                             "bench v1");
    cli.journal->append(0, 0, "x");
    std::ostringstream os;
    EXPECT_TRUE(shard_epilogue(cli, os));
    EXPECT_NE(os.str().find("shard 0/2"), std::string::npos);
    EXPECT_NE(os.str().find("journal_merge"), std::string::npos);
  }
  const char* plain_argv[] = {"prog"};
  const SweepCli plain = sweep_cli_from_args(ArgParser(1, plain_argv),
                                             "bench v1");
  std::ostringstream os;
  EXPECT_FALSE(shard_epilogue(plain, os));
  EXPECT_TRUE(os.str().empty());
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

}  // namespace
}  // namespace ppg
