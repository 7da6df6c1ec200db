#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "core/global_lru.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/lru_set.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

GlobalLruConfig config_for(Height k, Time s) {
  GlobalLruConfig c;
  c.cache_size = k;
  c.miss_cost = s;
  return c;
}

TEST(GlobalLru, SingleProcessorMatchesCacheSim) {
  MultiTrace mt;
  mt.add(gen::cyclic(6, 100));
  const ParallelRunResult r = run_global_lru(mt, config_for(8, 5));
  EXPECT_EQ(r.misses, 6u);
  EXPECT_EQ(r.makespan, 6u * 5 + 94u);
}

TEST(GlobalLru, HandComputedTwoProcs) {
  // k = 2, s = 3. Proc 0: a a. Proc 1: b b. Both pages fit: each proc
  // misses once then hits: completion = 3 + 1 = 4 for both.
  MultiTrace mt;
  mt.add(test::make_trace({1, 1}));
  MultiTrace tmp;
  Trace t2(std::vector<PageId>{make_page(1, 0), make_page(1, 0)});
  mt.add(t2);
  const ParallelRunResult r = run_global_lru(mt, config_for(2, 3));
  EXPECT_EQ(r.completion[0], 4u);
  EXPECT_EQ(r.completion[1], 4u);
  EXPECT_EQ(r.hits, 2u);
  EXPECT_EQ(r.misses, 2u);
}

TEST(GlobalLru, InterferenceEvictsOtherProcessorsPages) {
  // k = 2: proc 1 streams fresh pages, evicting proc 0's working set.
  // Proc 0 cycles two pages and would hit forever alone; with the
  // polluting neighbor it keeps missing.
  MultiTrace mt;
  mt.add(gen::rebase_to_proc(gen::cyclic(2, 50), 0));
  mt.add(gen::rebase_to_proc(gen::single_use(50), 1));
  const ParallelRunResult shared = run_global_lru(mt, config_for(2, 4));

  MultiTrace alone;
  alone.add(mt.trace(0));
  const ParallelRunResult solo = run_global_lru(alone, config_for(2, 4));
  EXPECT_GT(shared.misses, solo.misses + 25);
}

TEST(GlobalLru, CompletesEverything) {
  MultiTrace mt;
  for (ProcId i = 0; i < 6; ++i)
    mt.add(gen::rebase_to_proc(gen::cyclic(8, 500), i));
  const ParallelRunResult r = run_global_lru(mt, config_for(16, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  EXPECT_LE(r.mean_completion, static_cast<double>(r.makespan));
}

TEST(GlobalLru, Deterministic) {
  MultiTrace mt;
  for (ProcId i = 0; i < 4; ++i)
    mt.add(gen::rebase_to_proc(gen::cyclic(10, 300), i));
  const ParallelRunResult a = run_global_lru(mt, config_for(8, 3));
  const ParallelRunResult b = run_global_lru(mt, config_for(8, 3));
  EXPECT_EQ(a.completion, b.completion);
}

TEST(GlobalLru, EmptyTraceCompletesImmediately) {
  MultiTrace mt;
  mt.add(Trace{});
  mt.add(test::make_trace({1}));
  const ParallelRunResult r = run_global_lru(mt, config_for(4, 2));
  EXPECT_EQ(r.completion[0], 0u);
  EXPECT_EQ(r.completion[1], 2u);
}

TEST(GlobalLru, ZeroProcessorsIsRejected) {
  const MultiTrace no_procs;
  EXPECT_DEATH(run_global_lru(no_procs, config_for(4, 2)), "p >= 1");
}

// The order oracle: a (ready time, proc) min-heap, one cursor per
// processor, and a contains-then-access probe per request.
ParallelRunResult heap_global_lru(const MultiTraceSource& sources,
                                  const GlobalLruConfig& config) {
  const ProcId p = sources.num_procs();
  ParallelRunResult result;
  result.completion.assign(p, 0);
  LruSet cache(config.cache_size);
  std::vector<std::unique_ptr<TraceCursor>> cursors;
  using Entry = std::pair<Time, ProcId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  for (ProcId i = 0; i < p; ++i) {
    cursors.push_back(sources.source(i).cursor());
    if (!cursors.back()->done()) queue.push({0, i});
  }
  while (!queue.empty()) {
    const auto [now, proc] = queue.top();
    queue.pop();
    TraceCursor& cursor = *cursors[proc];
    PageId page = kInvalidPage;
    cursor.next_span(&page, 1);
    const bool hit = cache.contains(page);
    cache.access(page);
    const Time done = now + (hit ? 1 : config.miss_cost);
    ++(hit ? result.hits : result.misses);
    if (cursor.done())
      result.completion[proc] = done;
    else
      queue.push({done, proc});
  }
  result.makespan =
      *std::max_element(result.completion.begin(), result.completion.end());
  return result;
}

void expect_same_run(const ParallelRunResult& fast,
                     const ParallelRunResult& oracle) {
  EXPECT_EQ(fast.completion, oracle.completion);
  EXPECT_EQ(fast.hits, oracle.hits);
  EXPECT_EQ(fast.misses, oracle.misses);
  EXPECT_EQ(fast.makespan, oracle.makespan);
}

// Pages drawn from one shared pool, so processors hit and evict each
// other's pages; lengths in [0, 300], with about one trace in five empty.
MultiTrace random_instance(ProcId p, Rng& rng) {
  MultiTrace mt;
  const std::uint64_t pool = 4 * static_cast<std::uint64_t>(p) + 8;
  for (ProcId i = 0; i < p; ++i) {
    const std::size_t n =
        rng.next_below(5) == 0 ? 0 : rng.next_in(1, 300);
    std::vector<PageId> pages(n);
    for (PageId& page : pages) page = rng.next_below(pool);
    mt.add(Trace(std::move(pages)));
  }
  return mt;
}

TEST(GlobalLruOrder, MatchesHeapOnRandomInstances) {
  Rng rng(2024);
  // s = 1 lands the hits and the misses of one tick on the same next tick.
  for (const Time s : {Time{1}, Time{2}, Time{64}})
    for (const ProcId p : {ProcId{1}, ProcId{3}, ProcId{128}})
      for (int round = 0; round < 4; ++round) {
        const MultiTrace mt = random_instance(p, rng);
        const auto k = static_cast<Height>(rng.next_in(1, 2 * p + 4));
        SCOPED_TRACE(testing::Message()
                     << "s=" << s << " p=" << p << " k=" << k);
        expect_same_run(run_global_lru(mt, config_for(k, s)),
                        heap_global_lru(MultiTraceSource::view_of(mt),
                                        config_for(k, s)));
      }
}

TEST(GlobalLruOrder, MatchesHeapOnGeneratorSources) {
  for (const Time s : {Time{1}, Time{2}, Time{64}})
    for (const ProcId p : {ProcId{1}, ProcId{3}, ProcId{128}})
      for (const WorkloadKind kind :
           {WorkloadKind::kSkewedLengths, WorkloadKind::kHeterogeneousMix}) {
        WorkloadParams wp;
        wp.num_procs = p;
        wp.cache_size = 4 * p;
        wp.requests_per_proc = 300;
        wp.miss_cost = s;
        wp.seed = 7 + p;
        SCOPED_TRACE(testing::Message() << "s=" << s << " p=" << p << " "
                                        << workload_kind_name(kind));
        const MultiTraceSource lazy = make_workload_source(kind, wp);
        const GlobalLruConfig config = config_for(wp.cache_size, s);
        const ParallelRunResult oracle = heap_global_lru(lazy, config);
        expect_same_run(run_global_lru(lazy, config), oracle);
        const MultiTrace mt = make_workload(kind, wp);
        expect_same_run(run_global_lru(mt, config), oracle);
      }
}

}  // namespace
}  // namespace ppg
