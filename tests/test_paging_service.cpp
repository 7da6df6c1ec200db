// PagingService contracts: the all-at-t0 cohort is byte-identical to a
// batch run_parallel() over the same sources; any fixed submission
// schedule is deterministic (same seed + schedule => identical metrics);
// admission is FIFO with bounded-queue
// backpressure; depart() works in every tenant state; completion
// callbacks fire once, in engine order, with correct outcomes; histograms
// and the max-fault SLO aggregate exactly the per-tenant outcomes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "service/paging_service.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"

namespace ppg {
namespace {

ServiceConfig service_config() {
  ServiceConfig sc;
  sc.cache_size = 32;
  sc.miss_cost = 8;
  return sc;
}

TEST(PagingServiceTest, AllAtT0MatchesBatchRun) {
  WorkloadParams wp;
  wp.num_procs = 5;
  wp.cache_size = 32;
  wp.requests_per_proc = 300;
  wp.seed = 17;
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, wp);

  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;
  const auto batch_sched = make_scheduler(SchedulerKind::kDetPar, 7);
  const ParallelRunResult batch = run_parallel(sources, *batch_sched, ec);

  const auto sched = make_scheduler(SchedulerKind::kDetPar, 7);
  ServiceConfig sc = service_config();
  PagingService service(*sched, sc);
  for (ProcId i = 0; i < wp.num_procs; ++i)
    ASSERT_TRUE(service.submit(sources.source_ptr(i), 0).has_value());
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());

  // Per-tenant completion times and fault counts match the batch
  // completion vector and per-proc counters exactly.
  std::uint64_t hits = 0, misses = 0;
  for (TenantId t = 0; t < wp.num_procs; ++t) {
    const TenantOutcome out = service.outcome(t);
    EXPECT_EQ(out.completed, batch.completion[t]) << "tenant " << t;
    EXPECT_FALSE(out.departed);
    hits += out.hits;
    misses += out.misses;
  }
  EXPECT_EQ(hits, batch.hits);
  EXPECT_EQ(misses, batch.misses);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.now, batch.makespan);
  EXPECT_EQ(m.completed, wp.num_procs);
  EXPECT_EQ(m.events_consumed, batch.num_boxes + wp.num_procs);
}

TEST(PagingServiceTest, SpecSubmissionRequiresSingleProcessor) {
  const auto sched = make_scheduler(SchedulerKind::kDetPar, 1);
  PagingService service(*sched, service_config());
  EXPECT_TRUE(service
                  .submit("workload(kind=hetero-mix,p=1,k=32,n=100,seed=1,s=8)",
                          0)
                  .has_value());
  EXPECT_THROW(
      service.submit("workload(kind=hetero-mix,p=4,k=32,n=100,seed=1,s=8)", 0),
      PpgException);
}

TEST(PagingServiceTest, BoundedQueueRejectsAndRecovers) {
  const auto sched = make_scheduler(SchedulerKind::kDetPar, 1);
  ServiceConfig sc = service_config();
  sc.admission_queue_limit = 2;
  PagingService service(*sched, sc);

  ASSERT_TRUE(service.submit(gen::cyclic_source(8, 50), 0).has_value());
  ASSERT_TRUE(service.submit(gen::cyclic_source(8, 50), 0).has_value());
  // Queue full: rejected, counted, no record created.
  EXPECT_FALSE(service.submit(gen::cyclic_source(8, 50), 0).has_value());
  EXPECT_EQ(service.metrics().rejected, 1u);
  EXPECT_EQ(service.metrics().submitted, 2u);

  // step() drains the queue; submission then succeeds again.
  ASSERT_TRUE(service.step());
  const auto id = service.submit(gen::cyclic_source(8, 50), 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 2u);
  service.run_until_idle();
  EXPECT_EQ(service.metrics().completed, 3u);
}

TEST(PagingServiceTest, DepartInEveryState) {
  const auto sched = make_scheduler(SchedulerKind::kDetPar, 1);
  PagingService service(*sched, service_config());
  const auto keep = service.submit(gen::cyclic_source(8, 400), 0);
  const auto cancel_queued = service.submit(gen::cyclic_source(8, 400), 25);
  const auto cancel_active = service.submit(gen::cyclic_source(8, 400), 0);
  ASSERT_TRUE(keep && cancel_queued && cancel_active);

  // Queued cancel: never admitted, finalized as departed with no faults.
  service.depart(*cancel_queued);
  // Active cancel after a few steps: leaves at its next box boundary.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.step());
  service.depart(*cancel_active);
  service.depart(*cancel_active);  // Idempotent.
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());

  EXPECT_FALSE(service.outcome(*keep).departed);
  const TenantOutcome queued_out = service.outcome(*cancel_queued);
  EXPECT_TRUE(queued_out.departed);
  EXPECT_EQ(queued_out.hits + queued_out.misses, 0u);
  const TenantOutcome active_out = service.outcome(*cancel_active);
  EXPECT_TRUE(active_out.departed);
  EXPECT_GT(active_out.hits + active_out.misses, 0u);

  // Departing a finished tenant is a no-op.
  service.depart(*keep);
  EXPECT_FALSE(service.outcome(*keep).departed);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.departed, 2u);
}

TEST(PagingServiceTest, CompletionCallbacksFireOncePerTenantInOrder) {
  const auto sched = make_scheduler(SchedulerKind::kDetPar, 1);
  PagingService service(*sched, service_config());
  std::vector<TenantOutcome> seen;
  service.on_completion(
      [&](const TenantOutcome& out) { seen.push_back(out); });

  std::vector<TenantId> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto id =
        service.submit(gen::cyclic_source(9, 100 + 30 * i), Time(i * 7));
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());

  ASSERT_EQ(seen.size(), 4u);
  std::vector<bool> fired(4, false);
  Time last = 0;
  for (const TenantOutcome& out : seen) {
    EXPECT_FALSE(fired[out.tenant]) << "duplicate callback";
    fired[out.tenant] = true;
    EXPECT_GE(out.completed, last) << "callbacks out of engine order";
    last = out.completed;
    EXPECT_EQ(out.completed, service.outcome(out.tenant).completed);
  }
}

TEST(PagingServiceTest, MetricsAggregateOutcomes) {
  const auto sched = make_scheduler(SchedulerKind::kDetPar, 1);
  PagingService service(*sched, service_config());
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(
        service.submit(gen::cyclic_source(17, 150), Time(i * 11)).has_value());
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.completion_latency.total(), 6u);
  EXPECT_EQ(m.fault_counts.total(), 6u);
  std::uint64_t max_faults = 0;
  double latency_sum = 0;
  for (TenantId t = 0; t < 6; ++t) {
    const TenantOutcome out = service.outcome(t);
    max_faults = std::max(max_faults, out.misses);
    latency_sum += static_cast<double>(out.completed - out.arrival);
  }
  EXPECT_EQ(m.max_faults, max_faults);
  EXPECT_DOUBLE_EQ(m.mean_completion_latency, latency_sum / 6.0);
}

/// Fixed submission schedule; returns (makespan, hits^misses fingerprint).
ServiceMetrics run_schedule(SchedulerKind kind) {
  const auto sched = make_scheduler(kind, 31);
  PagingService service(*sched, service_config());
  std::uint64_t submitted = 0;
  const auto submit_next = [&] {
    const TenantId id = static_cast<TenantId>(submitted);
    switch (submitted % 3) {
      case 0:
        service.submit(gen::cyclic_source(17, 200), Time(submitted * 5));
        break;
      case 1:
        service.submit(gen::zipf_source(64, 250, 0.9, Rng(id)),
                       Time(submitted * 5));
        break;
      default:
        service.submit(gen::single_use_source(100), Time(submitted * 5));
        break;
    }
    ++submitted;
  };
  for (int i = 0; i < 4; ++i) submit_next();
  int steps = 0;
  while (service.step()) {
    if (++steps % 3 == 0 && submitted < 12) submit_next();
    if (steps == 10) service.depart(2);
  }
  while (submitted < 12) submit_next();
  service.run_until_idle();
  EXPECT_TRUE(service.status().ok());
  return service.metrics();
}

TEST(PagingServiceTest, SchedulesAreDeterministic) {
  for (const SchedulerKind kind :
       {SchedulerKind::kDetPar, SchedulerKind::kRandPar}) {
    const ServiceMetrics want = run_schedule(kind);
    EXPECT_EQ(want.completed + want.departed, 12u);
    const ServiceMetrics got = run_schedule(kind);
    EXPECT_EQ(got.now, want.now);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.departed, want.departed);
    EXPECT_EQ(got.events_consumed, want.events_consumed);
    EXPECT_EQ(got.max_faults, want.max_faults);
    EXPECT_DOUBLE_EQ(got.mean_completion_latency,
                     want.mean_completion_latency);
  }
}

}  // namespace
}  // namespace ppg
