// Engine configuration edge cases: the safety net and the optional
// instrumentation paths.
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

TEST(EngineConfig, TimelineTrackingCanBeDisabled) {
  WorkloadParams wp;
  wp.num_procs = 4;
  wp.cache_size = 16;
  wp.requests_per_proc = 300;
  const MultiTrace mt = make_workload(WorkloadKind::kZipf, wp);
  auto s1 = make_equi_partition();
  auto s2 = make_equi_partition();
  EngineConfig with;
  with.cache_size = 16;
  with.miss_cost = 3;
  EngineConfig without = with;
  without.track_memory_timeline = false;
  const ParallelRunResult a = run_parallel(mt, *s1, with);
  const ParallelRunResult b = run_parallel(mt, *s2, without);
  // Behaviour identical; only instrumentation differs.
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_GT(a.peak_concurrent_height, 0u);
  EXPECT_EQ(b.peak_concurrent_height, 0u);
}

TEST(EngineConfig, RejectsZeroCacheOrMissCost) {
  MultiTrace mt;
  mt.add(gen::single_use(4));
  auto scheduler = make_static_partition();
  EngineConfig bad_cache;
  bad_cache.cache_size = 0;
  bad_cache.miss_cost = 2;
  const MultiTraceSource sources = MultiTraceSource::view_of(mt);
  EXPECT_DEATH(ParallelEngine(sources, *scheduler, bad_cache), "");
  EngineConfig bad_cost;
  bad_cost.cache_size = 4;
  bad_cost.miss_cost = 0;
  EXPECT_DEATH(ParallelEngine(sources, *scheduler, bad_cost), "");
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
