// Engine configuration edge cases: the safety net and the always-on
// peak-height instrumentation.
#include <gtest/gtest.h>

#include "core/parallel_engine.hpp"
#include "core/simple_schedulers.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"

namespace ppg {
namespace {

TEST(EngineConfig, MaxTimeAbortsRunawayRuns) {
  MultiTrace mt;
  mt.add(gen::single_use(1000));
  auto scheduler = make_static_partition();
  EngineConfig c;
  c.cache_size = 4;
  c.miss_cost = 8;
  c.max_time = 100;  // far less than the 8000 ticks the run needs
  EXPECT_DEATH(run_parallel(mt, *scheduler, c), "max_time");
}

TEST(EngineConfig, PeakHeightIsAlwaysTracked) {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 300;
  const MultiTrace mt = make_workload(WorkloadKind::kZipf, wp);
  auto scheduler = make_equi_partition();
  EngineConfig c;
  c.cache_size = 16;
  c.miss_cost = 3;
  const ParallelRunResult r = run_parallel(mt, *scheduler, c);
  // EQUI splits k among the active processors, so xi stays within 1.
  EXPECT_GT(r.peak_concurrent_height, 0u);
  EXPECT_LE(r.peak_concurrent_height, 16u);
  EXPECT_DOUBLE_EQ(r.effective_augmentation,
                   static_cast<double>(r.peak_concurrent_height) / 16.0);
}

TEST(EngineConfig, RejectsZeroCacheOrMissCost) {
  MultiTrace mt;
  mt.add(gen::single_use(4));
  auto scheduler = make_static_partition();
  EngineConfig bad_cache;
  bad_cache.cache_size = 0;
  bad_cache.miss_cost = 2;
  EXPECT_DEATH(run_parallel(mt, *scheduler, bad_cache), "");
  EngineConfig bad_cost;
  bad_cost.cache_size = 4;
  bad_cost.miss_cost = 0;
  EXPECT_DEATH(run_parallel(mt, *scheduler, bad_cost), "");
  EngineConfig good;
  good.cache_size = 4;
  good.miss_cost = 2;
  const MultiTrace no_procs;
  EXPECT_DEATH(run_parallel(no_procs, *scheduler, good),
               "num_procs\\(\\) >= 1");
}

TEST(WorkloadCacheHungry, HasHungryAndModestProcessors) {
  WorkloadParams wp;
  wp.num_procs = 16;
  wp.cache_size = 128;
  wp.requests_per_proc = 400;
  const MultiTrace mt = make_workload(WorkloadKind::kCacheHungry, wp);
  // Processor 0 cycles k/4 pages, the tail cycles k/(2p).
  EXPECT_EQ(mt.trace(0).distinct_pages(), 32u);
  EXPECT_EQ(mt.trace(15).distinct_pages(), 4u);
  // Hungry sets sum to < k/2 so OPT can hit-serve everyone at once.
  std::size_t hungry_sum = 0;
  for (ProcId i = 0; i < mt.num_procs(); ++i) {
    const std::size_t w = mt.trace(i).distinct_pages();
    if (w > 4) hungry_sum += w;
  }
  EXPECT_LT(hungry_sum, 64u);
}

}  // namespace
}  // namespace ppg
