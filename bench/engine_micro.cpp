// E10 — Microbenchmarks of the simulation substrates (google-benchmark).
//
// Throughput of the structures every experiment leans on: the LRU set, the
// box runner, the sequential cache simulator, the stack-distance and
// previous-access passes, the green-OPT DP, the offline packer, GLOBAL-LRU,
// the OPT bounds and a whole run_instance on a sweep cell, the schedulers'
// next_box alone (a p-sweep, and DET-PAR in the online service's shape),
// the trace generators' next_span alone (and the Zipf tenants' cursors),
// and the full parallel engine. These keep the harness honest about simulator
// cost and catch performance regressions — scripts/bench_perf.sh snapshots
// them into BENCH_PERF.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "bench_support/experiment.hpp"
#include "core/contract.hpp"
#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "green/box_runner.hpp"
#include "green/green_opt.hpp"
#include "opt/offline_packer.hpp"
#include "opt/opt_bounds.hpp"
#include "paging/cache_sim.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"
#include "trace/workload.hpp"
#include "util/lru_set.hpp"
#include "util/rng.hpp"

namespace {

using namespace ppg;

void BM_LruSetAccess(benchmark::State& state) {
  const auto capacity = static_cast<Height>(state.range(0));
  Rng rng(1);
  const Trace trace = gen::zipf(capacity * 4, 1 << 14, 0.9, rng);
  LruSet set(capacity);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.access(trace[i]));
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruSetAccess)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(256)
    ->Arg(4096);

/// The LRU set on the structured ids a shared cache sees: 128 processors'
/// make_page(proc, local) requests interleaved round-robin, each cycling
/// over capacity/96 locals with every 4th request a fresh polluter id
/// (local 2^32 + n). Sequential Zipf ranks (above) hide index clustering
/// that these ids expose.
void BM_LruSetAccessStructured(benchmark::State& state) {
  constexpr ProcId kProcs = 128;
  const auto capacity = static_cast<Height>(state.range(0));
  const std::uint64_t cycle = std::max<std::uint64_t>(1, capacity / 96);
  std::vector<PageId> trace(std::size_t{1} << 16);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto proc = static_cast<ProcId>(i % kProcs);
    const std::uint64_t n = i / kProcs;
    trace[i] = make_page(proc, n % 4 == 3 ? (std::uint64_t{1} << 32) + n
                                          : n % cycle);
  }
  LruSet set(capacity);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.access(trace[i]));
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruSetAccessStructured)->Arg(1024)->Arg(4096);

// Sequential simulator throughput via the policy fast path
// (touch_if_resident — one lookup per hit).
void BM_CacheSimLru(benchmark::State& state) {
  const auto capacity = static_cast<Height>(state.range(0));
  Rng rng(7);
  const Trace trace = gen::zipf(capacity * 4, 1 << 14, 0.9, rng);
  for (auto _ : state) {
    CacheSim sim(capacity, make_policy(PolicyKind::kLru, capacity), 8);
    benchmark::DoNotOptimize(sim.run(trace).misses);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CacheSimLru)->Arg(256);

/// Canonical boxes of height range(0), s = 8, over a 2^15-request Zipf
/// trace until it ends; on its stack distances (attached once, outside the
/// timed loop) when `distances`, else through the membership loop (a
/// canonical box opens empty and lasts s*h, so it cannot fill). One runner
/// serves every box, so its state stays hot. items = requests.
void box_runner_canonical(benchmark::State& state, bool distances) {
  const auto height = static_cast<Height>(state.range(0));
  const Time s = 8;
  Rng rng(2);
  const Trace trace = gen::zipf(512, 1 << 15, 0.9, rng);
  std::shared_ptr<const TraceSource> source = VectorTraceSource::view(trace);
  if (distances) source = with_stack_distances(std::move(source));
  for (auto _ : state) {
    BoxRunner runner(*source, s);
    while (!runner.finished())
      runner.run_box(height, s * static_cast<Time>(height));
    benchmark::DoNotOptimize(runner.total_misses());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
void BM_BoxRunnerCanonicalBoxes(benchmark::State& state) {
  box_runner_canonical(state, false);
}
BENCHMARK(BM_BoxRunnerCanonicalBoxes)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(512);

void BM_BoxRunnerDistances(benchmark::State& state) {
  box_runner_canonical(state, true);
}
BENCHMARK(BM_BoxRunnerDistances)->Arg(8)->Arg(64)->Arg(512);

/// The membership loop on cold runner state: 800 streamed runners, about
/// service_churn's peak tenant count (service.peak_active is 798), one per
/// tenant of its mix (cycles over 8-32 pages, Zipf over 32-96, sawtooth
/// 4/32, single use), sharing one membership index as an engine's
/// runners do. They take fresh height-16 boxes lasting s*h (s = 8) round-robin, so
/// each box finds its runner's span buffer and members evicted by the
/// other runners'. A finished runner restarts on its source. items =
/// requests; time_per_request is their inverse.
void BM_BoxRunnerInterleaved(benchmark::State& state) {
  constexpr std::size_t kRunners = 800;
  constexpr std::size_t kRequests = 1 << 14;
  constexpr Height kHeight = 16;
  constexpr Time s = 8;
  Rng rng(3);
  std::vector<std::shared_ptr<const TraceSource>> sources;
  for (std::size_t i = 0; i < kRunners; ++i) {
    switch (i % 4) {
      case 0:
        sources.push_back(
            gen::cyclic_source(8 + rng.next_below(25), kRequests));
        break;
      case 1:
        sources.push_back(gen::zipf_source(32 + rng.next_below(65), kRequests,
                                           0.9, rng.fork()));
        break;
      case 2:
        sources.push_back(gen::sawtooth_source(4, 32, kRequests / 4, 4,
                                               rng.fork()));
        break;
      default:
        sources.push_back(gen::single_use_source(kRequests));
        break;
    }
  }
  LruFlatIndex index(1);
  std::vector<std::unique_ptr<BoxRunner>> runners;
  for (const auto& source : sources)
    runners.push_back(std::make_unique<BoxRunner>(*source, s, index));
  std::uint64_t requests = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kRunners; ++i) {
      if (runners[i]->finished())
        runners[i] = std::make_unique<BoxRunner>(*sources[i], s, index);
      requests += runners[i]->run_box(kHeight, s * kHeight).requests_completed;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
  state.counters["time_per_request"] = benchmark::Counter(
      static_cast<double>(requests),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BoxRunnerInterleaved);

void BM_StackDistances(benchmark::State& state) {
  Rng rng(3);
  const Trace trace =
      gen::zipf(1024, static_cast<std::size_t>(state.range(0)), 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack_distances(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_StackDistances)->Arg(1 << 12)->Arg(1 << 15);

/// The long-window regime: every warm request of a cycle over range(0)
/// pages reuses a page range(0) requests back, far beyond the recent
/// groups the distance pass counts word by word (200000 requests).
void BM_StackDistancesLongWindow(benchmark::State& state) {
  const Trace trace =
      gen::cyclic(static_cast<std::uint64_t>(state.range(0)), 200000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack_distances(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_StackDistancesLongWindow)->Arg(30000);

void BM_GreenOptDp(benchmark::State& state) {
  Rng rng(4);
  const Trace trace =
      gen::zipf(128, static_cast<std::size_t>(state.range(0)), 0.9, rng);
  const HeightLadder ladder{4, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(green_opt(trace, ladder, 8).impact);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_GreenOptDp)->Arg(1 << 10)->Arg(1 << 12);

/// The offline packer as the sweeps call it (fixed-height fallback, no
/// exact DP) on `kind` traffic: cost scans for every rung of every
/// processor, selection, the chosen rung's box list, and skyline packing.
/// k = 8p, s = 64, 4000 requests per processor (generated at the default
/// WorkloadParams::miss_cost); items = requests.
void pack_offline_cell(benchmark::State& state, WorkloadKind kind) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 4000;
  const MultiTrace mt = make_workload(kind, wp);
  OfflinePackConfig pc;
  pc.cache_size = wp.cache_size;
  pc.miss_cost = 64;
  pc.exact_profile_max_requests = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack_offline(mt, pc).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
void BM_PackOffline(benchmark::State& state) {
  pack_offline_cell(state, WorkloadKind::kHeterogeneousMix);
}
BENCHMARK(BM_PackOffline)->Arg(16)->Arg(64)->Arg(128);

/// Polluted cycles: every processor falls back to height-1 boxes (4000 per
/// processor), the many-box case that loads the skyline. Its reading moves
/// by about 25% with code placement alone (an unchanged packer linked into
/// a binary whose other objects changed size), so a claim on it needs a
/// same-binary comparison, or both sides built with offline_packer.cpp at
/// -falign-loops=64.
void BM_PackOfflinePolluted(benchmark::State& state) {
  pack_offline_cell(state, WorkloadKind::kPollutedCycles);
}
BENCHMARK(BM_PackOfflinePolluted)->Arg(16)->Arg(32);

constexpr Time kSweepMissCost = 64;

/// One E3/E4 sweep cell: hetero-mix, k = 8p, s = 64, 4000 requests per
/// processor.
WorkloadParams sweep_cell(ProcId p) {
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 4000;
  wp.miss_cost = kSweepMissCost;
  return wp;
}

/// The shared-pool GLOBAL-LRU baseline on a sweep cell of `kind`;
/// items = requests.
void global_lru_cell(benchmark::State& state, WorkloadKind kind) {
  const WorkloadParams wp = sweep_cell(static_cast<ProcId>(state.range(0)));
  const MultiTrace mt = make_workload(kind, wp);
  GlobalLruConfig gc;
  gc.cache_size = wp.cache_size;
  gc.miss_cost = kSweepMissCost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_global_lru(mt, gc).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
void BM_GlobalLru(benchmark::State& state) {
  global_lru_cell(state, WorkloadKind::kHeterogeneousMix);
}
BENCHMARK(BM_GlobalLru)->Arg(32)->Arg(128);

/// Polluted cycles: the sweep's longest GLOBAL-LRU cell, whose shared
/// cache holds structured ids from every processor plus polluter streams.
void BM_GlobalLruPolluted(benchmark::State& state) {
  global_lru_cell(state, WorkloadKind::kPollutedCycles);
}
BENCHMARK(BM_GlobalLruPolluted)->Arg(128);

/// The OPT lower bounds (Belady and stack-distance impact terms) on a
/// sweep cell; items = requests.
void BM_OptBounds(benchmark::State& state) {
  const WorkloadParams wp = sweep_cell(static_cast<ProcId>(state.range(0)));
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  OptBoundsConfig oc;
  oc.cache_size = wp.cache_size;
  oc.miss_cost = kSweepMissCost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_opt_bounds(mt, oc).lower_bound());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
BENCHMARK(BM_OptBounds)->Arg(32)->Arg(128);

/// The distance pass run_instance runs on a cache-hungry sweep cell
/// (packed_stack_distances over each processor's 4000-request trace):
/// cycles over small working sets, so nearly every window is short.
/// items = requests.
void BM_StackDistancesSweepCell(benchmark::State& state) {
  const MultiTrace mt = make_workload(
      WorkloadKind::kCacheHungry,
      sweep_cell(static_cast<ProcId>(state.range(0))));
  for (auto _ : state) {
    for (const Trace& trace : mt.traces())
      benchmark::DoNotOptimize(packed_stack_distances(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
BENCHMARK(BM_StackDistancesSweepCell)->Arg(16);

/// previous_accesses over each trace of a hetero-mix sweep cell, the pass
/// the offline packer and the Belady bound run. items = requests.
void BM_PreviousAccesses(benchmark::State& state) {
  const MultiTrace mt =
      make_workload(WorkloadKind::kHeterogeneousMix,
                    sweep_cell(static_cast<ProcId>(state.range(0))));
  for (auto _ : state) {
    for (const Trace& trace : mt.traces())
      benchmark::DoNotOptimize(previous_accesses(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
BENCHMARK(BM_PreviousAccesses)->Arg(16)->Arg(128);

/// One E3/E4 sweep cell through run_instance, as the sweep benches run
/// it: attach stack distances, OPT bounds, every box scheduler validated,
/// and GLOBAL-LRU. items = requests x schedulers (GLOBAL-LRU included).
void BM_RunInstance(benchmark::State& state) {
  const WorkloadParams wp = sweep_cell(static_cast<ProcId>(state.range(0)));
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  ExperimentConfig config;
  config.cache_size = wp.cache_size;
  config.miss_cost = kSweepMissCost;
  const std::vector<SchedulerKind> kinds = all_scheduler_kinds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_instance(mt, kinds, config).outcomes.front().result.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mt.total_requests()) *
                          static_cast<std::int64_t>(kinds.size() + 1));
}
BENCHMARK(BM_RunInstance)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ParallelEngine(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 2000;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;
  for (auto _ : state) {
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    benchmark::DoNotOptimize(run_parallel(mt, *scheduler, ec).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
BENCHMARK(BM_ParallelEngine)->Arg(8)->Arg(32)->Arg(128);

/// Same instance pulled lazily from generator sources: measures on-demand
/// generation's per-request overhead against the resident vectors above
/// (both run the same box runner).
void BM_ParallelEngineStreamed(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 2000;
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;
  for (auto _ : state) {
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    benchmark::DoNotOptimize(run_parallel(sources, *scheduler, ec).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sources.total_requests()));
}
BENCHMARK(BM_ParallelEngineStreamed)->Arg(8)->Arg(32)->Arg(128);

/// DET-PAR on a hetero-mix cell (k = 8p, s = 64, 1000 requests per
/// processor), run through ValidatingScheduler or bare; items = boxes, so
/// the pair's ratio is the contract check's cost per box as p grows.
void engine_boxes(benchmark::State& state, bool validated) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp = sweep_cell(p);
  wp.requests_per_proc = 1000;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = kSweepMissCost;
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    std::unique_ptr<BoxScheduler> scheduler =
        make_scheduler(SchedulerKind::kDetPar);
    if (validated) scheduler = make_validating(std::move(scheduler));
    const ParallelRunResult result = run_parallel(mt, *scheduler, ec);
    boxes += result.num_boxes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
void BM_ValidatedEngine(benchmark::State& state) { engine_boxes(state, true); }
void BM_PlainEngine(benchmark::State& state) { engine_boxes(state, false); }
BENCHMARK(BM_ValidatedEngine)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlainEngine)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Trace layer alone: one cursor drained through next_span() in the box
/// runner's 256-page spans, with no cache and no scheduler. Items =
/// requests, so the reported time per item is ns/request of generation.
void BM_TraceSpan(benchmark::State& state,
                  std::shared_ptr<const TraceSource> source) {
  std::vector<PageId> span(256);
  for (auto _ : state) {
    auto cursor = source->cursor();
    while (cursor->next_span(span.data(), span.size()) != 0) {
      benchmark::DoNotOptimize(span.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(source->num_requests()));
}
constexpr std::size_t kTraceSpanRequests = std::size_t{1} << 16;
BENCHMARK_CAPTURE(BM_TraceSpan, cyclic,
                  gen::cyclic_source(64, kTraceSpanRequests));
BENCHMARK_CAPTURE(BM_TraceSpan, zipf,
                  gen::zipf_source(256, kTraceSpanRequests, 0.9, Rng(5)));
BENCHMARK_CAPTURE(BM_TraceSpan, sawtooth,
                  gen::sawtooth_source(8, 256, kTraceSpanRequests / 64, 64,
                                       Rng(6)));
BENCHMARK_CAPTURE(BM_TraceSpan, single_use,
                  gen::single_use_source(kTraceSpanRequests));

/// The Zipf tenants' generation cost as the online service pays it: one
/// cursor per tenant, built (with its sampler's guide table) and drained in
/// 256-page spans, over CDFs of 32-96 pages at theta = 0.9 and 128-384
/// requests each, as in perfbench's service_churn. Items = requests, so
/// the time per item includes each cursor's set-up.
void BM_ZipfDraw(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::shared_ptr<const TraceSource>> tenants;
  std::uint64_t requests = 0;
  for (int i = 0; i < 256; ++i) {
    const std::size_t n = 128 + rng.next_below(257);
    tenants.push_back(
        gen::zipf_source(32 + rng.next_below(65), n, 0.9, rng.fork()));
    requests += n;
  }
  std::vector<PageId> span(256);
  for (auto _ : state) {
    for (const auto& tenant : tenants) {
      auto cursor = tenant->cursor();
      while (cursor->next_span(span.data(), span.size()) != 0) {
        benchmark::DoNotOptimize(span.data());
        benchmark::ClobberMemory();
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_ZipfDraw);

/// The first p processors, all active for the whole run.
class AllActiveView final : public EngineView {
 public:
  explicit AllActiveView(ProcId p) : ids_(p) {
    std::iota(ids_.begin(), ids_.end(), ProcId{0});
  }
  ProcId num_procs() const override { return static_cast<ProcId>(ids_.size()); }
  ProcId active_count() const override { return num_procs(); }
  bool is_active(ProcId proc) const override { return proc < num_procs(); }
  const std::vector<ProcId>& active_ids() const override { return ids_; }

 private:
  std::vector<ProcId> ids_;
};

/// Scheduler layer alone: replays a (proc, now) next_box call sequence
/// recorded once in set-up by the engine's pull order (earliest box end
/// first, ties by proc) on a fresh scheduler, with no traces and no
/// simulation. Every processor stays active (k = 8p, s = 8), so the cost
/// per box shows how next_box scales with p. Items = boxes.
void BM_SchedulerNextBox(benchmark::State& state, SchedulerKind kind) {
  const auto p = static_cast<ProcId>(state.range(0));
  const SchedulerContext ctx{p, 8 * static_cast<Height>(p), 8};
  const AllActiveView view(p);
  const std::size_t num_calls = std::max<std::size_t>(1 << 16, 8 * p);

  std::vector<std::pair<ProcId, Time>> calls;
  calls.reserve(num_calls);
  {
    auto scheduler = make_scheduler(kind);
    scheduler->start(ctx, view);
    std::priority_queue<std::pair<Time, ProcId>,
                        std::vector<std::pair<Time, ProcId>>, std::greater<>>
        pending;
    for (ProcId i = 0; i < p; ++i) pending.emplace(0, i);
    while (calls.size() < num_calls) {
      const auto [now, proc] = pending.top();
      pending.pop();
      calls.emplace_back(proc, now);
      pending.emplace(scheduler->next_box(proc, now, view).end, proc);
    }
  }

  for (auto _ : state) {
    auto scheduler = make_scheduler(kind);
    scheduler->start(ctx, view);
    for (const auto& [proc, now] : calls)
      benchmark::DoNotOptimize(scheduler->next_box(proc, now, view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(calls.size()));
}
BENCHMARK_CAPTURE(BM_SchedulerNextBox, DetPar, SchedulerKind::kDetPar)
    ->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_SchedulerNextBox, RandPar, SchedulerKind::kRandPar)
    ->Arg(64)->Arg(512)->Arg(4096);

/// An active list the benchmark edits in place, as the engine's view does.
class ListView final : public EngineView {
 public:
  ListView(ProcId num_procs, std::vector<ProcId> ids)
      : num_procs_(num_procs), ids_(std::move(ids)) {}
  /// One departure (the id at `index`) and one arrival (`id`, above all).
  void replace(std::size_t index, ProcId id) {
    ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(index));
    ids_.push_back(id);
  }
  ProcId num_procs() const override { return num_procs_; }
  ProcId active_count() const override {
    return static_cast<ProcId>(ids_.size());
  }
  bool is_active(ProcId proc) const override {
    return std::binary_search(ids_.begin(), ids_.end(), proc);
  }
  const std::vector<ProcId>& active_ids() const override { return ids_; }

 private:
  ProcId num_procs_;
  std::vector<ProcId> ids_;
};

/// DET-PAR's next_box in the online service's shape (k = 4096, s = 8, as
/// in perfbench's service_churn): r0 active processors on sparse ids, and
/// every 10th call an arrival that replaces an older processor, so a
/// phase lasts about 9 boxes and every one starts with an O(r0) re-phase.
/// Ids grow by 2 per arrival (every other tenant is turned away), and the
/// departing processor is one of the oldest eighth, which keeps the id span
/// near twice r0, as on service_churn. The calls come in the engine's pull
/// order, recorded once in set-up; the timed loop replays them and the
/// list edits. Items = boxes; the counter span_per_r0 is the mean id span
/// over r0 at the arrivals.
void BM_SchedulerNextBoxService(benchmark::State& state) {
  constexpr std::size_t kCallsPerArrival = 10;
  const auto r0 = static_cast<std::size_t>(state.range(0));
  const std::size_t num_calls = std::size_t{1} << 16;
  struct Call {
    ProcId proc;
    Time now;
    std::size_t departs;  ///< List index of the departing id, or kNoArrival.
  };
  constexpr std::size_t kNoArrival = ~std::size_t{0};

  std::vector<ProcId> initial(r0);
  for (std::size_t i = 0; i < r0; ++i) initial[i] = static_cast<ProcId>(2 * i);
  const auto num_procs =
      static_cast<ProcId>(2 * (r0 + num_calls / kCallsPerArrival + 1));
  const SchedulerContext ctx{num_procs, 4096, 8};
  std::vector<Call> calls;
  calls.reserve(num_calls);
  double span_sum = 0;
  std::size_t arrivals = 0;
  {
    ListView view(num_procs, initial);
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    scheduler->start(ctx, view);
    Rng rng(21);
    std::priority_queue<std::pair<Time, ProcId>,
                        std::vector<std::pair<Time, ProcId>>, std::greater<>>
        pending;
    for (const ProcId proc : initial) pending.emplace(0, proc);
    auto next_id = static_cast<ProcId>(2 * r0);
    Time now = 0;
    while (calls.size() < num_calls) {
      if (calls.size() % kCallsPerArrival == kCallsPerArrival - 1) {
        const std::size_t departs = rng.next_below(r0 / 8 + 1);
        view.replace(departs, next_id);
        const std::vector<ProcId>& ids = view.active_ids();
        span_sum += static_cast<double>(ids.back() - ids.front() + 1);
        ++arrivals;
        calls.push_back(Call{next_id, now, departs});
        scheduler->notify_arrived(next_id, now, view);
        pending.emplace(now, next_id);
        next_id += 2;
        continue;
      }
      const auto [start, proc] = pending.top();
      pending.pop();
      if (!view.is_active(proc)) continue;
      now = start;
      calls.push_back(Call{proc, now, kNoArrival});
      pending.emplace(scheduler->next_box(proc, now, view).end, proc);
    }
  }

  std::int64_t boxes = 0;
  for (auto _ : state) {
    ListView view(num_procs, initial);
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    scheduler->start(ctx, view);
    for (const Call& call : calls) {
      if (call.departs != kNoArrival) {
        view.replace(call.departs, call.proc);
        scheduler->notify_arrived(call.proc, call.now, view);
      } else {
        benchmark::DoNotOptimize(
            scheduler->next_box(call.proc, call.now, view));
        ++boxes;
      }
    }
  }
  state.SetItemsProcessed(boxes);
  state.counters["span_per_r0"] =
      span_sum / static_cast<double>(arrivals) / static_cast<double>(r0);
}
BENCHMARK(BM_SchedulerNextBoxService)->Arg(100)->Arg(400)->Arg(800);

}  // namespace

BENCHMARK_MAIN();
