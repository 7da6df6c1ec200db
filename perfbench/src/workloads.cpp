#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "bench_support/experiment.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "core/contract.hpp"
#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "opt/offline_packer.hpp"
#include "opt/opt_bounds.hpp"
#include "service/paging_service.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ppg::CheckedRun;
using ppg::EngineConfig;
using ppg::Height;
using ppg::MultiTraceSource;
using ppg::SchedulerKind;
using ppg::TenantId;

void Layers::merge_pass_fields(const Layers& cell) {
  busy_ns += cell.busy_ns;
  covered_ns += cell.covered_ns;
  sched.merge(cell.sched);
  validate_ns += cell.validate_ns;
  validated_boxes += cell.validated_boxes;
  trace.merge(cell.trace);
  engine_ns += cell.engine_ns;
  events += cell.events;
  boxes += cell.boxes;
  bounds_ns += cell.bounds_ns;
  pack_ns += cell.pack_ns;
  global_lru_ns += cell.global_lru_ns;
  global_lru_requests += cell.global_lru_requests;
}

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
  return ppg::splitmix64(state);
}

double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Run-mean accumulator for SimOutputs.
struct SimFold {
  double makespan = 0;
  double mean_completion = 0;
  std::uint64_t runs = 0;
  std::uint64_t misses = 0;
  std::uint64_t requests = 0;

  void add(const ppg::ParallelRunResult& r) {
    makespan += static_cast<double>(r.makespan);
    mean_completion += r.mean_completion;
    ++runs;
    misses += r.misses;
    requests += r.hits + r.misses;
  }
  void merge(const SimFold& other) {
    makespan += other.makespan;
    mean_completion += other.mean_completion;
    runs += other.runs;
    misses += other.misses;
    requests += other.requests;
  }
  SimOutputs outputs() const {
    const double n = static_cast<double>(std::max<std::uint64_t>(1, runs));
    return {makespan / n, mean_completion / n,
            static_cast<double>(misses) /
                static_cast<double>(std::max<std::uint64_t>(1, requests))};
  }
};

// ---------------------------------------------------------------------------
// service_churn
// ---------------------------------------------------------------------------

constexpr Time kServiceMissCost = 8;
constexpr double kMeanArrivalGap = 2.0;
/// One tenant in kDepartEvery departs mid-run, kDepartAfter simulated
/// ticks after its arrival (a no-op if it has finished by then).
constexpr std::uint64_t kDepartEvery = 8;
constexpr Time kDepartAfter = 256;

struct TenantPlan {
  std::shared_ptr<const ppg::TraceSource> source;
  Time arrival = 0;
};

/// What the driver did at each service step, so a bare EngineStepper can
/// repeat the same admissions and departures (the service mirror).
struct ServiceSchedule {
  std::vector<ProcId> procs_after_step;  ///< Engine processors after step i.
  /// (step index, proc): depart() issued just before that step.
  std::vector<std::pair<std::size_t, ProcId>> departs;
  std::vector<ppg::TenantOutcome> outcomes;  ///< By tenant id.
};

class ServiceChurn final : public Workload {
 public:
  explicit ServiceChurn(const Sizes& sizes) : sizes_(sizes) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    tenants_.assign(sizes_.tenants, {});
    ppg::Rng arrivals(mix(seed, 1));
    Time clock = 1;  // No t = 0 cohort: every tenant arrives online.
    for (std::uint64_t i = 0; i < sizes_.tenants; ++i) {
      ppg::Rng rng(mix(seed, 1000 + i));
      const std::size_t n = sizes_.tenant_requests / 2 +
                            rng.next_below(sizes_.tenant_requests + 1);
      TenantPlan& plan = tenants_[i];
      switch (i % 4) {
        case 0:
          plan.source = ppg::gen::cyclic_source(8 + rng.next_below(25), n);
          break;
        case 1:
          plan.source = ppg::gen::zipf_source(32 + rng.next_below(65), n,
                                              0.9, rng.fork());
          break;
        case 2:
          plan.source = ppg::gen::sawtooth_source(
              4, 32, std::max<std::size_t>(1, n / 4), 4, rng.fork());
          break;
        default:
          plan.source = ppg::gen::single_use_source(n);
          break;
      }
      plan.arrival = clock;
      clock += static_cast<Time>(std::llround(
          -std::log(1.0 - arrivals.next_double()) * kMeanArrivalGap));
    }
  }

  PassResult pass(Layers* layers) override {
    ServiceSchedule schedule;
    return run_service(layers, schedule);
  }

  std::uint64_t replay(Layers& layers) override;
  std::uint64_t replay_checks() const override { return tenants_.size(); }

 private:
  PassResult run_service(Layers* layers, ServiceSchedule& schedule);

  Sizes sizes_;
  std::uint64_t seed_ = 0;
  std::vector<TenantPlan> tenants_;
};

PassResult ServiceChurn::run_service(Layers* layers,
                                     ServiceSchedule& schedule) {
  const std::size_t n = tenants_.size();
  std::unique_ptr<ppg::BoxScheduler> scheduler =
      ppg::make_scheduler(SchedulerKind::kDetPar, seed_);
  if (layers != nullptr)
    scheduler = std::make_unique<TimingScheduler>(std::move(scheduler),
                                                  layers->sched);
  ppg::ServiceConfig sc;
  sc.cache_size = sizes_.service_k;
  sc.miss_cost = kServiceMissCost;
  ppg::PagingService service(*scheduler, sc);

  PassResult out;
  std::vector<std::uint64_t> arrived_ns(n, 0);  // 0 = clock not there yet.
  std::vector<std::uint64_t> done_ns(n, 0);
  schedule.outcomes.assign(n, {});
  std::uint64_t step_start = 0;
  service.on_completion([&](const ppg::TenantOutcome& o) {
    done_ns[o.tenant] = now_ns();
    if (arrived_ns[o.tenant] == 0) arrived_ns[o.tenant] = step_start;
    schedule.outcomes[o.tenant] = o;
  });

  std::size_t next = 0;     // Next tenant to submit.
  std::size_t stamped = 0;  // Tenants whose arrival the clock has reached.
  std::size_t leaver = kDepartEvery / 2;  // Next tenant due to depart.
  std::uint64_t accepted = 0;
  std::uint64_t covered = 0;
  const std::uint64_t t_begin = now_ns();
  for (;;) {
    // Open loop: submit ahead until the bounded queue pushes back.
    while (next < n) {
      auto source = layers != nullptr
                        ? timing_source(tenants_[next].source, layers->trace)
                        : tenants_[next].source;
      const std::uint64_t t0 = layers != nullptr ? now_ns() : 0;
      const auto id = service.submit(std::move(source), tenants_[next].arrival);
      if (layers != nullptr) {
        const std::uint64_t ns = now_ns() - t0;
        layers->submit_ns += ns;
        covered += ns;
        ++layers->submits;
      }
      if (!id) break;
      ++accepted;
      ++next;
    }
    if (next == n && service.idle()) break;

    step_start = now_ns();
    service.step();
    const std::uint64_t step_end = now_ns();
    out.step_us.push_back(static_cast<double>(step_end - step_start) / 1e3);
    const ProcId procs = service.stepper().num_procs();
    schedule.procs_after_step.push_back(procs);
    if (layers != nullptr) {
      layers->step_ns += step_end - step_start;
      covered += step_end - step_start;
      ++layers->steps;
      layers->peak_active = std::max<std::uint64_t>(
          layers->peak_active, service.stepper().active_count());
      layers->peak_queued =
          std::max<std::uint64_t>(layers->peak_queued, accepted - procs);
    }
    if (!service.status().ok()) break;

    const Time now = service.now();
    for (; stamped < next && tenants_[stamped].arrival <= now; ++stamped)
      if (arrived_ns[stamped] == 0) arrived_ns[stamped] = step_start;
    // Departures target admitted tenants only, so no queued tenant is ever
    // cancelled and tenant i is always engine processor i.
    for (; leaver < n; leaver += kDepartEvery) {
      if (tenants_[leaver].arrival + kDepartAfter > now || leaver >= procs)
        break;
      if (done_ns[leaver] == 0) {
        service.depart(static_cast<TenantId>(leaver));
        schedule.departs.emplace_back(schedule.procs_after_step.size(),
                                      static_cast<ProcId>(leaver));
      }
    }
  }
  out.wall_ns = now_ns() - t_begin;
  if (layers != nullptr) {
    layers->accepted += accepted;
    layers->busy_ns += out.wall_ns;
    layers->covered_ns += covered;
  }

  Digest digest;
  const ppg::ServiceMetrics m = service.metrics();
  // Tenants left unfinished (a failed engine) count as failed, as does a
  // finished tenant that was quarantined or served the wrong request count.
  out.attempted = n;
  out.failed = n - std::min<std::uint64_t>(n, m.completed + m.departed);
  std::uint64_t misses = 0;
  double makespan = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const ppg::TenantOutcome& o = schedule.outcomes[t];
    const std::uint64_t served = o.hits + o.misses;
    const std::uint64_t declared = tenants_[t].source->num_requests();
    const bool sound = done_ns[t] != 0 &&
                       o.terminal != ppg::TenantTerminal::kQuarantined &&
                       (o.departed ? served <= declared : served == declared);
    if (done_ns[t] != 0 && !sound) ++out.failed;
    out.requests += served;
    misses += o.misses;
    makespan = std::max(makespan, static_cast<double>(o.completed));
    if (done_ns[t] != 0)
      out.latency_ms.push_back(ms_between(arrived_ns[t], done_ns[t]));
    for (const std::uint64_t w :
         {std::uint64_t{o.arrival}, std::uint64_t{o.admitted},
          std::uint64_t{o.completed}, o.hits, o.misses,
          static_cast<std::uint64_t>(o.terminal)})
      digest.add(w);
  }
  for (const std::uint64_t w : {m.submitted, m.rejected, m.completed,
                                m.departed, m.now, m.events_consumed,
                                m.max_faults})
    digest.add(w);
  out.digest = digest.value();
  out.sim.makespan = makespan;
  out.sim.mean_completion = m.mean_completion_latency;
  out.sim.fault_rate = static_cast<double>(misses) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, out.requests));
  return out;
}

std::uint64_t ServiceChurn::replay(Layers& layers) {
  ServiceSchedule schedule;
  const PassResult service_pass = run_service(nullptr, schedule);
  std::uint64_t mismatches = service_pass.failed;

  // The mirror: a bare EngineStepper fed the same admissions and departures
  // the service made, step for step, under a fresh DET-PAR. Its step() time
  // is the engine's share of PagingService::step; the rest is the service.
  auto scheduler = std::make_unique<TimingScheduler>(
      ppg::make_scheduler(SchedulerKind::kDetPar, seed_), layers.mirror_sched);
  // The engine settings PagingService derives from a default ServiceConfig.
  // The service's xi comes from the recorded boxes, not the engine's memory
  // timeline, which the service leaves off and would slow the timed steps.
  EngineConfig ec;
  ec.cache_size = sizes_.service_k;
  ec.miss_cost = kServiceMissCost;
  ec.track_memory_timeline = false;
  ec.contain_proc_failures = true;
  BoxLog log;
  ec.on_box = box_recorder(log);
  ppg::EngineStepper stepper(*scheduler, ec);
  stepper.start();
  std::vector<std::shared_ptr<const ppg::TraceSource>> sources;
  for (const TenantPlan& plan : tenants_)
    sources.push_back(timing_source(plan.source, layers.mirror_trace));
  std::vector<Time> completed(tenants_.size(), 0);
  std::vector<bool> departed(tenants_.size(), false);
  std::size_t next_depart = 0;
  ProcId added = 0;
  for (std::size_t i = 0; i < schedule.procs_after_step.size(); ++i) {
    for (; next_depart < schedule.departs.size() &&
           schedule.departs[next_depart].first == i;
         ++next_depart)
      stepper.depart(schedule.departs[next_depart].second);
    // Timed like PagingService::step: the admissions, then the engine step.
    const std::uint64_t t0 = now_ns();
    for (; added < schedule.procs_after_step[i]; ++added)
      stepper.add_processor(sources[added], schedule.outcomes[added].admitted);
    if (stepper.has_pending()) stepper.step();
    layers.mirror_step_ns += now_ns() - t0;
    for (const ppg::StepCompletion& c : stepper.last_completions()) {
      completed[c.proc] = c.time;
      departed[c.proc] = c.departed;
    }
  }
  const CheckedRun run = stepper.finish();
  layers.mirror_events += run.events_consumed;
  if (!run.status.ok()) ++mismatches;

  // The box replay, checked against both the mirror and the service.
  log.resize(added);
  layers.sim_xi = static_cast<double>(peak_concurrent_height(log, completed)) /
                  static_cast<double>(sizes_.service_k);
  for (ProcId proc = 0; proc < added; ++proc) {
    const ppg::TenantOutcome& o = schedule.outcomes[proc];
    const auto source = timing_source(tenants_[proc].source,
                                      layers.replay_trace);
    const ProcReplay r =
        replay_boxes(*source, log[proc], kServiceMissCost, layers.replay);
    const bool same = r.hits == o.hits && r.misses == o.misses &&
                      r.hits == stepper.proc_hits(proc) &&
                      r.misses == stepper.proc_misses(proc) &&
                      completed[proc] == o.completed &&
                      departed[proc] == o.departed &&
                      (o.departed || r.finished);
    if (!same) ++mismatches;
  }
  if (added != tenants_.size()) ++mismatches;
  layers.sim_max_faults = layers.replay.max_faults;
  return mismatches;
}

// ---------------------------------------------------------------------------
// engine_long
// ---------------------------------------------------------------------------

constexpr Height kEngineCache = 4096;
constexpr Time kEngineMissCost = 64;

class EngineLong final : public Workload {
 public:
  explicit EngineLong(const Sizes& sizes) : sizes_(sizes) {}

  void setup(std::uint64_t seed) override {
    instances_.clear();
    for (std::size_t i = 0; i < sizes_.engine_instances; ++i) {
      ppg::WorkloadParams wp;
      wp.num_procs = sizes_.engine_procs;
      wp.cache_size = kEngineCache;
      wp.requests_per_proc = sizes_.engine_requests;
      wp.seed = mix(seed, 2000 + i);
      wp.miss_cost = kEngineMissCost;
      Instance inst;
      inst.sources =
          ppg::make_workload_source(ppg::WorkloadKind::kHeterogeneousMix, wp);
      inst.requests = inst.sources.total_requests();
      inst.scheduler_seed = mix(seed, 3000 + i);
      instances_.push_back(std::move(inst));
    }
  }

  PassResult pass(Layers* layers) override {
    PassResult out;
    Digest digest;
    SimFold sim;
    const std::uint64_t t_begin = now_ns();
    for (const Instance& inst : instances_) {
      std::unique_ptr<ppg::BoxScheduler> scheduler =
          ppg::make_scheduler(SchedulerKind::kRandPar, inst.scheduler_seed);
      MultiTraceSource sources = inst.sources;
      if (layers != nullptr) {
        scheduler = std::make_unique<TimingScheduler>(std::move(scheduler),
                                                      layers->sched);
        sources = timing_sources(inst.sources, layers->trace);
      }
      const std::uint64_t t0 = now_ns();
      const CheckedRun run =
          ppg::run_parallel_checked(sources, *scheduler, engine_config());
      const std::uint64_t t1 = now_ns();
      out.latency_ms.push_back(ms_between(t0, t1));
      ++out.attempted;
      if (!run.status.ok() ||
          run.result.hits + run.result.misses != inst.requests)
        ++out.failed;
      out.requests += run.result.hits + run.result.misses;
      digest_run(digest, run.status, run.result);
      sim.add(run.result);
      if (layers != nullptr) {
        layers->engine_ns += t1 - t0;
        layers->covered_ns += t1 - t0;
        layers->events += run.events_consumed;
        layers->boxes += run.result.num_boxes;
      }
    }
    out.wall_ns = now_ns() - t_begin;
    if (layers != nullptr) layers->busy_ns += out.wall_ns;
    out.digest = digest.value();
    out.sim = sim.outputs();
    return out;
  }

  std::uint64_t replay(Layers& layers) override {
    std::uint64_t mismatches = 0;
    for (const Instance& inst : instances_) {
      const auto scheduler =
          ppg::make_scheduler(SchedulerKind::kRandPar, inst.scheduler_seed);
      const RunReplay r =
          record_and_replay(inst.sources, *scheduler, engine_config(),
                            layers.replay_trace, layers.replay);
      if (!r.matches) ++mismatches;
      layers.sim_xi = std::max(layers.sim_xi, r.xi);
    }
    layers.sim_max_faults = layers.replay.max_faults;
    return mismatches;
  }

  std::uint64_t replay_checks() const override { return instances_.size(); }

 private:
  struct Instance {
    MultiTraceSource sources;
    std::uint64_t requests = 0;
    std::uint64_t scheduler_seed = 0;
  };

  static EngineConfig engine_config() {
    EngineConfig ec;
    ec.cache_size = kEngineCache;
    ec.miss_cost = kEngineMissCost;
    return ec;
  }

  Sizes sizes_;
  std::vector<Instance> instances_;
};

// ---------------------------------------------------------------------------
// sweep_grid
// ---------------------------------------------------------------------------

constexpr Time kSweepMissCost = 64;

class SweepGrid final : public Workload {
 public:
  explicit SweepGrid(const Sizes& sizes)
      : sizes_(sizes), jobs_(sweep_jobs(sizes)) {}

  void setup(std::uint64_t seed) override {
    cells_.clear();
    // Largest cells first, so the pool starts them together and the pass
    // ends with small cells (longest-first balances the pool).
    using ppg::WorkloadKind;
    for (ProcId p = sizes_.sweep_max_p; p >= 4; p /= 2)
      for (const WorkloadKind kind :
           {WorkloadKind::kCacheHungry, WorkloadKind::kHeterogeneousMix,
            WorkloadKind::kPollutedCycles}) {
        ppg::WorkloadParams wp;
        wp.num_procs = p;
        wp.cache_size = 8 * p;
        wp.requests_per_proc = sizes_.sweep_requests;
        wp.seed = mix(seed, 4000 + cells_.size());
        wp.miss_cost = kSweepMissCost;
        Cell cell;
        cell.traces = std::make_shared<const ppg::MultiTrace>(
            ppg::make_workload(kind, wp));
        cell.cache_size = wp.cache_size;
        cell.seed = mix(seed, 5000 + cells_.size());
        cells_.push_back(std::move(cell));
      }
  }

  PassResult pass(Layers* layers) override {
    struct CellOut {
      std::uint64_t digest = 0;
      std::uint64_t ns = 0;
      std::uint64_t requests = 0;
      std::uint64_t attempted = 0;
      std::uint64_t failed = 0;
      SimFold sim;
      Layers layers;
    };
    const std::uint64_t t_begin = now_ns();
    const std::vector<CellOut> cells =
        ppg::sweep_cells(jobs_, cells_.size(), [&](std::size_t i) {
          const Cell& cell = cells_[i];
          const MultiTraceSource sources =
              MultiTraceSource::view_of(*cell.traces);
          CellOut out;
          const std::uint64_t t0 = now_ns();
          const CellRun run = layers != nullptr
                                  ? traced_cell(cell, sources, out.layers)
                                  : plain_cell(cell, sources);
          out.ns = now_ns() - t0;
          out.layers.busy_ns = out.ns;
          const std::uint64_t total = sources.total_requests();
          Digest digest;
          for (const Time w : {run.bounds.lb_max_length,
                               run.bounds.lb_max_single, run.bounds.lb_impact,
                               run.upper_bound})
            digest.add(w);
          for (const ppg::SchedulerOutcome& so : run.outcomes) {
            digest_run(digest, so.status, so.result);
            ++out.attempted;
            // Every request takes a tick; the other bounds assume no
            // augmentation, which the box schedulers may use.
            if (!so.status.ok() ||
                so.result.makespan < run.bounds.lb_max_length ||
                so.result.hits + so.result.misses != total)
              ++out.failed;
            out.requests += so.result.hits + so.result.misses;
            out.sim.add(so.result);
          }
          if (run.upper_bound < run.bounds.lower_bound()) ++out.failed;
          out.digest = digest.value();
          return out;
        });
    PassResult out;
    out.wall_ns = now_ns() - t_begin;
    Digest digest;
    SimFold sim;
    for (const CellOut& c : cells) {
      digest.add(c.digest);
      out.requests += c.requests;
      out.attempted += c.attempted;
      out.failed += c.failed;
      out.cell_ms.push_back(static_cast<double>(c.ns) / 1e6);
      sim.merge(c.sim);
      if (layers != nullptr) layers->merge_pass_fields(c.layers);
    }
    out.latency_ms.push_back(static_cast<double>(out.wall_ns) / 1e6);
    out.digest = digest.value();
    out.sim = sim.outputs();
    return out;
  }

  std::uint64_t replay(Layers& layers) override {
    struct CellReplay {
      ReplayTotals totals;
      TraceSpans trace;
      double xi = 0;
      std::uint64_t mismatches = 0;
    };
    const std::vector<CellReplay> cells =
        ppg::sweep_cells(jobs_, cells_.size(), [&](std::size_t i) {
          const Cell& cell = cells_[i];
          const MultiTraceSource sources =
              MultiTraceSource::view_of(*cell.traces);
          CellReplay out;
          for (const SchedulerKind kind : ppg::all_scheduler_kinds()) {
            const auto scheduler =
                ppg::make_validating(ppg::make_scheduler(kind, cell.seed));
            const RunReplay r = record_and_replay(
                sources, *scheduler, engine_config(cell), out.trace,
                out.totals);
            if (!r.matches) ++out.mismatches;
            out.xi = std::max(out.xi, r.xi);
          }
          return out;
        });
    std::uint64_t mismatches = 0;
    for (const CellReplay& c : cells) {
      layers.replay.merge(c.totals);
      layers.replay_trace.merge(c.trace);
      layers.sim_xi = std::max(layers.sim_xi, c.xi);
      mismatches += c.mismatches;
    }
    layers.sim_max_faults = layers.replay.max_faults;
    return mismatches;
  }

  std::uint64_t replay_checks() const override {
    return cells_.size() * ppg::all_scheduler_kinds().size();
  }

 private:
  struct Cell {
    std::shared_ptr<const ppg::MultiTrace> traces;
    Height cache_size = 0;
    std::uint64_t seed = 0;
  };

  /// What a cell produces, however it was run.
  struct CellRun {
    ppg::OptBounds bounds;
    std::vector<ppg::SchedulerOutcome> outcomes;
    Time upper_bound = 0;
  };

  static EngineConfig engine_config(const Cell& cell) {
    EngineConfig ec;
    ec.cache_size = cell.cache_size;
    ec.miss_cost = kSweepMissCost;
    return ec;
  }

  static ppg::OfflinePackConfig pack_config(const Cell& cell) {
    // Fixed-height fallback: the exact DP is too slow at this grid's sizes.
    ppg::OfflinePackConfig pc;
    pc.cache_size = cell.cache_size;
    pc.miss_cost = kSweepMissCost;
    pc.exact_profile_max_requests = 1;
    return pc;
  }

  /// The researcher's path, exactly as the E3/E4 bench runs a cell.
  static CellRun plain_cell(const Cell& cell, const MultiTraceSource& sources) {
    ppg::ExperimentConfig config;
    config.cache_size = cell.cache_size;
    config.miss_cost = kSweepMissCost;
    config.seed = cell.seed;
    ppg::InstanceOutcome outcome =
        ppg::run_instance(sources, ppg::all_scheduler_kinds(), config);
    CellRun run;
    run.bounds = outcome.bounds;
    run.outcomes = std::move(outcome.outcomes);
    run.upper_bound = ppg::pack_offline(sources, pack_config(cell)).makespan;
    return run;
  }

  /// run_instance taken apart into the public calls it makes, each timed:
  /// OPT bounds, every scheduler validated (a timing decorator outside the
  /// validator and one inside it, so their difference is the validator),
  /// GLOBAL-LRU, then pack_offline.
  static CellRun traced_cell(const Cell& cell, const MultiTraceSource& sources,
                             Layers& layers) {
    CellRun run;
    ppg::OptBoundsConfig ob;
    ob.cache_size = cell.cache_size;
    ob.miss_cost = kSweepMissCost;
    std::uint64_t t0 = now_ns();
    run.bounds = ppg::compute_opt_bounds(sources, ob);
    layers.bounds_ns += now_ns() - t0;

    const MultiTraceSource timed = timing_sources(sources, layers.trace);
    for (const SchedulerKind kind : ppg::all_scheduler_kinds()) {
      SchedSpans outer_spans;
      const std::uint64_t inner_before = layers.sched.total_ns();
      TimingScheduler outer(
          ppg::make_validating(std::make_unique<TimingScheduler>(
              ppg::make_scheduler(kind, cell.seed), layers.sched)),
          outer_spans);
      t0 = now_ns();
      CheckedRun checked =
          ppg::run_parallel_checked(timed, outer, engine_config(cell));
      layers.engine_ns += now_ns() - t0;
      layers.validate_ns +=
          outer_spans.total_ns() - (layers.sched.total_ns() - inner_before);
      layers.validated_boxes += checked.result.num_boxes;
      layers.events += checked.events_consumed;
      layers.boxes += checked.result.num_boxes;
      ppg::SchedulerOutcome so;
      so.name = ppg::scheduler_kind_name(kind);
      so.status = std::move(checked.status);
      so.result = std::move(checked.result);
      run.outcomes.push_back(std::move(so));
    }

    ppg::GlobalLruConfig gc;
    gc.cache_size = cell.cache_size;
    gc.miss_cost = kSweepMissCost;
    ppg::SchedulerOutcome global;
    global.name = "GLOBAL-LRU";
    t0 = now_ns();
    global.result = ppg::run_global_lru(sources, gc);
    layers.global_lru_ns += now_ns() - t0;
    layers.global_lru_requests += sources.total_requests();
    run.outcomes.push_back(std::move(global));

    t0 = now_ns();
    run.upper_bound = ppg::pack_offline(sources, pack_config(cell)).makespan;
    layers.pack_ns += now_ns() - t0;
    layers.covered_ns = layers.bounds_ns + layers.engine_ns +
                        layers.global_lru_ns + layers.pack_ns;
    return run;
  }

  Sizes sizes_;
  std::size_t jobs_ = 1;
  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Sizes& sizes) {
  if (name == "service_churn") return std::make_unique<ServiceChurn>(sizes);
  if (name == "engine_long") return std::make_unique<EngineLong>(sizes);
  if (name == "sweep_grid") return std::make_unique<SweepGrid>(sizes);
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"service_churn", "engine_long", "sweep_grid"};
}

std::size_t sweep_jobs(const Sizes& sizes) {
  if (sizes.sweep_jobs != 0) return sizes.sweep_jobs;
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

}  // namespace perfbench
