// Fault isolation, end to end: the trace-layer fault decorator produces
// exactly its specified hostile stream; the engine quarantines exactly the
// offending processor (runner fault, per-processor budget, or deadline)
// while every other processor's schedule stays byte-identical; and the
// service surfaces quarantines as structured TenantOutcomes, sheds load
// under its admission policies, drains completed work past a run-wide
// budget breach, and reports health — all deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "service/paging_service.hpp"
#include "trace/fault_source.hpp"
#include "trace/generators.hpp"
#include "trace/trace_spec.hpp"

namespace ppg {
namespace {

std::shared_ptr<const TraceSource> faulty(
    std::shared_ptr<const TraceSource> inner, TraceFaultClass fault,
    std::uint64_t at) {
  TraceFaultSpec spec;
  spec.fault = fault;
  spec.at = at;
  return make_fault_injecting_source(std::move(inner), spec);
}

// --- Trace-layer decorator ------------------------------------------------

TEST(FaultInjectionTraceTest, ParseAndFormatRoundTrip) {
  const auto fail = parse_trace_fault("fail@120");
  ASSERT_TRUE(fail.has_value());
  EXPECT_EQ(fail->fault, TraceFaultClass::kFail);
  EXPECT_EQ(fail->at, 120u);
  EXPECT_EQ(trace_fault_to_string(*fail), "fail@120");

  for (const char* text :
       {"hostile-page@7", "torn-span@0", "stall@999999"}) {
    const auto spec = parse_trace_fault(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_EQ(trace_fault_to_string(*spec), text);
  }
  for (const char* bad : {"", "fail", "fail@", "fail@x", "@3", "melt@3",
                          "fail@3x", "FAIL@3"}) {
    EXPECT_FALSE(parse_trace_fault(bad).has_value()) << bad;
  }
}

TEST(FaultInjectionTraceTest, FailThrowsExactlyAtPosition) {
  const auto source = faulty(gen::cyclic_source(4, 100),
                             TraceFaultClass::kFail, 10);
  EXPECT_EQ(source->num_requests(), 100u);
  // One request per pull up to the fault site.
  const auto cursor = source->cursor();
  PageId page = kInvalidPage;
  for (int i = 0; i < 10; ++i) {
    ASSERT_FALSE(cursor->done());
    ASSERT_EQ(cursor->next_span(&page, 1), 1u);
  }
  EXPECT_EQ(cursor->position(), 10u);
  EXPECT_FALSE(cursor->done());
  try {
    cursor->next_span(&page, 1);
    FAIL() << "a pull at the fault position must throw";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    EXPECT_EQ(e.error().byte_offset, 10u);
  }

  // Bulk pulls cap at the fault site, then throw.
  const auto bulk = source->cursor();
  PageId buffer[64];
  EXPECT_EQ(bulk->next_span(buffer, 64), 10u);
  EXPECT_THROW(bulk->next_span(buffer, 64), PpgException);
}

TEST(FaultInjectionTraceTest, HostilePageReplacesOneRequest) {
  const auto source = faulty(gen::cyclic_source(4, 20),
                             TraceFaultClass::kHostilePage, 7);
  // The sentinel lands at offset 7 however the stream is split: spans of
  // one request, spans that start or end at the fault, and one bulk pull.
  for (const std::size_t span : {std::size_t{1}, std::size_t{3},
                                 std::size_t{7}, std::size_t{8},
                                 std::size_t{20}}) {
    const auto cursor = source->cursor();
    PageId buffer[20];
    std::size_t got = 0;
    while (got < 20) {
      const std::size_t n =
          cursor->next_span(buffer + got, std::min(span, 20 - got));
      ASSERT_GT(n, 0u) << "span=" << span;
      got += n;
    }
    EXPECT_TRUE(cursor->done());
    for (std::size_t i = 0; i < 20; ++i)
      EXPECT_EQ(buffer[i] == kInvalidPage, i == 7)
          << "span=" << span << " position " << i;
  }
}

TEST(FaultInjectionTraceTest, TornSpanEndsEarlyButDeclaredLengthLies) {
  const auto source = faulty(gen::cyclic_source(4, 50),
                             TraceFaultClass::kTornSpan, 30);
  EXPECT_EQ(source->num_requests(), 50u);  // The lie.
  for (const std::size_t span : {std::size_t{1}, std::size_t{7},
                                 std::size_t{64}}) {
    const auto cursor = source->cursor();
    PageId buffer[64];
    std::size_t total = 0, n = 0;
    while ((n = cursor->next_span(buffer, span)) != 0) total += n;
    EXPECT_EQ(total, 30u) << "span=" << span;
    EXPECT_TRUE(cursor->done());
    EXPECT_EQ(cursor->position(), 30u);
  }
  // Draining stops early without error: the lie shows only as a length.
  EXPECT_EQ(materialize(*source).size(), 30u);
}

TEST(FaultInjectionTraceTest, StallProducesNothingAndNeverFinishes) {
  const auto source = faulty(gen::cyclic_source(4, 50),
                             TraceFaultClass::kStall, 5);
  const auto cursor = source->cursor();
  PageId buffer[64];
  EXPECT_EQ(cursor->next_span(buffer, 64), 5u);
  EXPECT_EQ(cursor->next_span(buffer, 64), 0u);
  EXPECT_EQ(cursor->next_span(buffer, 64), 0u);
  EXPECT_FALSE(cursor->done());  // The livelock: stalled, not finished.
  EXPECT_EQ(cursor->position(), 5u);

  // One request at a time stalls at the same position.
  const auto stepped = source->cursor();
  for (int i = 0; i < 5; ++i) ASSERT_EQ(stepped->next_span(buffer, 1), 1u);
  EXPECT_EQ(stepped->next_span(buffer, 1), 0u);
  EXPECT_FALSE(stepped->done());
}

TEST(FaultInjectionTraceTest, FaultAtOrPastEndIsHealthy) {
  const auto clean = gen::cyclic_source(4, 20);
  for (const TraceFaultClass fault :
       {TraceFaultClass::kFail, TraceFaultClass::kHostilePage,
        TraceFaultClass::kTornSpan, TraceFaultClass::kStall}) {
    const auto source = faulty(clean, fault, 20);
    EXPECT_EQ(materialize(*source), materialize(*clean));
    const auto cursor = source->cursor();
    PageId page = kInvalidPage;
    for (std::size_t i = 0; i < 20; ++i) {
      ASSERT_FALSE(cursor->done());
      ASSERT_EQ(cursor->next_span(&page, 1), 1u);
    }
    EXPECT_TRUE(cursor->done());
  }
}

TEST(FaultInjectionTraceTest, SpecRegistryWrapsEveryProcessor) {
  const MultiTraceSource sources = make_source_from_trace_spec(
      "INJECT-TRACE(fail@10,"
      "workload(kind=hetero-mix,p=2,k=16,n=200,seed=3,s=4))");
  ASSERT_EQ(sources.num_procs(), 2);
  for (ProcId i = 0; i < 2; ++i) {
    // The decorator hides materialized(): hostile input must flow through
    // the cursor's validation.
    EXPECT_EQ(sources.source(i).materialized(), nullptr);
    const auto cursor = sources.source(i).cursor();
    PageId buffer[64];
    EXPECT_EQ(cursor->next_span(buffer, 64), 10u);
    EXPECT_THROW(cursor->next_span(buffer, 64), PpgException);
  }

  for (const char* bad :
       {"INJECT-TRACE(fail@10)",  // No inner spec.
        "INJECT-TRACE(melt@10,workload(kind=hetero-mix,p=1,k=8,n=9,seed=1,s=2))",
        "INJECT-TRACE(fail@,workload(kind=hetero-mix,p=1,k=8,n=9,seed=1,s=2))"}) {
    EXPECT_THROW(make_source_from_trace_spec(bad), PpgException) << bad;
  }
}

// --- Engine containment ---------------------------------------------------

struct SteppedRun {
  std::vector<StepCompletion> completions;
  CheckedRun checked;
};

SteppedRun run_stepper(const MultiTraceSource& sources, BoxScheduler& sched,
                       const EngineConfig& config) {
  EngineStepper stepper(sched, config);
  for (ProcId i = 0; i < sources.num_procs(); ++i)
    stepper.add_processor(sources.source_ptr(i));
  stepper.start();
  SteppedRun out;
  while (!stepper.done()) {
    stepper.step();
    for (const StepCompletion& c : stepper.last_completions())
      out.completions.push_back(c);
  }
  out.checked = stepper.finish();
  return out;
}

MultiTraceSource three_tenants() {
  MultiTraceSource sources;
  sources.add(gen::cyclic_source(8, 180));
  sources.add(gen::cyclic_source(6, 240));
  sources.add(gen::cyclic_source(10, 140));
  return sources;
}

EngineConfig contained_config() {
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 2;
  ec.contain_proc_failures = true;
  return ec;
}

const StepCompletion& completion_of(const SteppedRun& run, ProcId proc) {
  for (const StepCompletion& c : run.completions)
    if (c.proc == proc) return c;
  ADD_FAILURE() << "no completion for proc " << proc;
  static const StepCompletion kNone{};
  return kNone;
}

TEST(EngineStepperQuarantineTest, ContainedFaultQuarantinesOnlyThatProc) {
  const auto clean_sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun clean =
      run_stepper(three_tenants(), *clean_sched, contained_config());
  ASSERT_TRUE(clean.checked.status.ok());

  MultiTraceSource mixed = three_tenants();
  MultiTraceSource wrapped;
  wrapped.add(mixed.source_ptr(0));
  wrapped.add(faulty(mixed.source_ptr(1), TraceFaultClass::kFail, 50));
  wrapped.add(mixed.source_ptr(2));
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun run = run_stepper(wrapped, *sched, contained_config());

  // The run as a whole is healthy: containment means no run-wide failure.
  ASSERT_TRUE(run.checked.status.ok());
  const StepCompletion& bad = completion_of(run, 1);
  EXPECT_TRUE(bad.quarantined);
  EXPECT_FALSE(bad.departed);
  EXPECT_EQ(bad.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(bad.error.proc, 1);

  // The healthy processors' completions are byte-identical to the clean
  // run: under STATIC the quarantine is invisible to them.
  for (const ProcId proc : {ProcId{0}, ProcId{2}}) {
    const StepCompletion& got = completion_of(run, proc);
    const StepCompletion& want = completion_of(clean, proc);
    EXPECT_EQ(got.time, want.time) << "proc " << proc;
    EXPECT_FALSE(got.quarantined);
    EXPECT_FALSE(got.departed);
  }
}

TEST(EngineStepperQuarantineTest, UncontainedFaultFailsTheWholeRun) {
  MultiTraceSource mixed = three_tenants();
  MultiTraceSource wrapped;
  wrapped.add(mixed.source_ptr(0));
  wrapped.add(faulty(mixed.source_ptr(1), TraceFaultClass::kFail, 50));
  wrapped.add(mixed.source_ptr(2));
  EngineConfig ec = contained_config();
  ec.contain_proc_failures = false;
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun run = run_stepper(wrapped, *sched, ec);
  ASSERT_FALSE(run.checked.status.ok());
  EXPECT_EQ(run.checked.status.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(run.checked.status.error.proc, 1);
}

TEST(EngineStepperQuarantineTest, HostilePageIsRejectedByTheSpanScan) {
  MultiTraceSource wrapped;
  wrapped.add(faulty(gen::cyclic_source(8, 100),
                     TraceFaultClass::kHostilePage, 30));
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun run = run_stepper(wrapped, *sched, contained_config());
  ASSERT_TRUE(run.checked.status.ok());
  const StepCompletion& bad = completion_of(run, 0);
  EXPECT_TRUE(bad.quarantined);
  EXPECT_EQ(bad.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(bad.error.byte_offset, 30u);
}

/// A resident trace whose request at `at` is the reserved sentinel.
Trace hostile_materialized(std::size_t at) {
  Trace trace = gen::cyclic(8, 100);
  trace.mutable_requests()[at] = kInvalidPage;
  return trace;
}

TEST(EngineStepperQuarantineTest, HostilePageInMaterializedTraceIsCorrupt) {
  // Caller-materialized traces pass the same span screen as streamed ones:
  // the sentinel is corrupt input, never a page.
  MultiTrace traces;
  traces.add(gen::cyclic(6, 80));
  traces.add(hostile_materialized(30));
  EngineConfig ec = contained_config();
  ec.contain_proc_failures = false;
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  const CheckedRun run = run_parallel_checked(traces, *sched, ec);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(run.status.error.proc, 1);
  EXPECT_EQ(run.status.error.byte_offset, 30u);
}

TEST(EngineStepperQuarantineTest, BoxBudgetEvictsAStalledProcessor) {
  // A stalled source never finishes and never throws: only the
  // per-processor box budget can evict it. Budget/deadline watchdogs are
  // active even without contain_proc_failures.
  MultiTraceSource sources;
  sources.add(faulty(gen::cyclic_source(8, 100), TraceFaultClass::kStall, 4));
  sources.add(gen::cyclic_source(8, 60));
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 2;
  ec.proc_event_budget = 5;
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun run = run_stepper(sources, *sched, ec);
  ASSERT_TRUE(run.checked.status.ok());
  const StepCompletion& stalled = completion_of(run, 0);
  EXPECT_TRUE(stalled.quarantined);
  EXPECT_EQ(stalled.error.code, ErrorCode::kTenantBudgetExceeded);
  EXPECT_FALSE(completion_of(run, 1).quarantined);
}

TEST(EngineStepperQuarantineTest, DeadlineEvictsASlowProcessor) {
  MultiTraceSource sources;
  sources.add(faulty(gen::cyclic_source(8, 100), TraceFaultClass::kStall, 4));
  EngineConfig ec;
  ec.cache_size = 16;
  ec.miss_cost = 2;
  ec.proc_deadline = 200;
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun run = run_stepper(sources, *sched, ec);
  ASSERT_TRUE(run.checked.status.ok());
  const StepCompletion& slow = completion_of(run, 0);
  EXPECT_TRUE(slow.quarantined);
  EXPECT_EQ(slow.error.code, ErrorCode::kTenantDeadlineExceeded);
  EXPECT_GE(slow.time, Time{200});
}

TEST(EngineStepperQuarantineTest, TwoContainedFaultsQuarantineBothProcs) {
  const auto clean_sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun clean =
      run_stepper(three_tenants(), *clean_sched, contained_config());
  ASSERT_TRUE(clean.checked.status.ok());

  MultiTraceSource mixed = three_tenants();
  MultiTraceSource wrapped;
  wrapped.add(faulty(mixed.source_ptr(0), TraceFaultClass::kHostilePage, 40));
  wrapped.add(faulty(mixed.source_ptr(1), TraceFaultClass::kFail, 50));
  wrapped.add(mixed.source_ptr(2));
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  const SteppedRun run = run_stepper(wrapped, *sched, contained_config());
  ASSERT_TRUE(run.checked.status.ok());
  ASSERT_EQ(run.completions.size(), 3u);
  for (const ProcId proc : {ProcId{0}, ProcId{1}}) {
    const StepCompletion& bad = completion_of(run, proc);
    EXPECT_TRUE(bad.quarantined) << "proc " << proc;
    EXPECT_EQ(bad.error.code, ErrorCode::kCorruptTrace) << "proc " << proc;
  }
  EXPECT_EQ(completion_of(run, 0).error.byte_offset, 40u);
  const StepCompletion& healthy = completion_of(run, 2);
  EXPECT_FALSE(healthy.quarantined);
  EXPECT_FALSE(healthy.departed);
  EXPECT_EQ(healthy.time, completion_of(clean, 2).time);
}

// --- Service-level isolation, shedding, health ----------------------------

ServiceConfig small_service_config() {
  ServiceConfig sc;
  sc.cache_size = 16;
  sc.miss_cost = 4;
  return sc;
}

TEST(PagingServiceQuarantineTest, QuarantineSurfacesStructuredOutcome) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  PagingService service(*sched, small_service_config());
  const auto healthy = service.submit(gen::cyclic_source(8, 120), 0);
  const auto bad =
      service.submit(faulty(gen::cyclic_source(8, 120),
                            TraceFaultClass::kFail, 30),
                     0);
  ASSERT_TRUE(healthy && bad);
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());

  const TenantOutcome out = service.outcome(*bad);
  EXPECT_EQ(out.terminal, TenantTerminal::kQuarantined);
  EXPECT_FALSE(out.departed);
  EXPECT_EQ(out.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(service.outcome(*healthy).terminal, TenantTerminal::kCompleted);
  EXPECT_TRUE(service.outcome(*healthy).error.ok());

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.quarantined, 1u);
  EXPECT_EQ(m.departed, 0u);
  ASSERT_EQ(m.quarantine_codes.size(), 1u);
  EXPECT_EQ(m.quarantine_codes[0].first, ErrorCode::kCorruptTrace);
  EXPECT_EQ(m.quarantine_codes[0].second, 1u);
}

TEST(PagingServiceQuarantineTest, HostileMaterializedTenantIsQuarantined) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  PagingService service(*sched, small_service_config());
  const auto healthy = service.submit(
      std::make_shared<const VectorTraceSource>(gen::cyclic(8, 120)), 0);
  const auto bad = service.submit(
      std::make_shared<const VectorTraceSource>(hostile_materialized(30)), 0);
  ASSERT_TRUE(healthy && bad);
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());

  const TenantOutcome out = service.outcome(*bad);
  EXPECT_EQ(out.terminal, TenantTerminal::kQuarantined);
  EXPECT_EQ(out.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(service.outcome(*healthy).terminal, TenantTerminal::kCompleted);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.quarantined, 1u);
}

TEST(PagingServiceQuarantineTest, TenantBudgetEvictsARunawayTenant) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  ServiceConfig sc = small_service_config();
  sc.tenant_event_budget = 6;
  PagingService service(*sched, sc);
  const auto runaway = service.submit(
      faulty(gen::cyclic_source(8, 500), TraceFaultClass::kStall, 3), 0);
  const auto healthy = service.submit(gen::cyclic_source(8, 80), 0);
  ASSERT_TRUE(runaway && healthy);
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());
  EXPECT_EQ(service.outcome(*runaway).terminal, TenantTerminal::kQuarantined);
  EXPECT_EQ(service.outcome(*runaway).error.code,
            ErrorCode::kTenantBudgetExceeded);
  EXPECT_EQ(service.outcome(*healthy).terminal, TenantTerminal::kCompleted);
}

TEST(PagingServiceQuarantineTest, TenantDeadlineEvictsASlowTenant) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  ServiceConfig sc = small_service_config();
  sc.tenant_deadline = 150;
  PagingService service(*sched, sc);
  const auto slow = service.submit(
      faulty(gen::cyclic_source(8, 500), TraceFaultClass::kStall, 3), 0);
  ASSERT_TRUE(slow);
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());
  EXPECT_EQ(service.outcome(*slow).terminal, TenantTerminal::kQuarantined);
  EXPECT_EQ(service.outcome(*slow).error.code,
            ErrorCode::kTenantDeadlineExceeded);
}

/// Depart vs quarantine in every tenant state.
std::vector<TenantOutcome> depart_race_outcomes() {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  PagingService service(*sched, small_service_config());

  // 0: departs while queued (faulty, but the engine never sees it).
  // 1: departs while active, racing its own quarantine at the same box
  //    boundary — the quarantine must win.
  // 2: quarantined, then depart()ed after the fact (no-op).
  // 3: completes, then depart()ed after the fact (no-op).
  const auto queued = service.submit(
      faulty(gen::cyclic_source(8, 200), TraceFaultClass::kFail, 0), 60);
  const auto racing = service.submit(
      faulty(gen::cyclic_source(8, 200), TraceFaultClass::kFail, 0), 0);
  const auto quarantined = service.submit(
      faulty(gen::cyclic_source(8, 200), TraceFaultClass::kFail, 30), 0);
  const auto completes = service.submit(gen::cyclic_source(8, 200), 0);
  EXPECT_TRUE(queued && racing && quarantined && completes);

  service.depart(*queued);
  // Two steps: the arrival batch activates the cohort, then the first box
  // batch runs and contains `racing`'s fault, leaving its forced departure
  // pending at the box boundary. (A depart() before any box runs would
  // legitimately win — the engine never reads the trace.)
  EXPECT_TRUE(service.step());
  EXPECT_TRUE(service.step());
  service.depart(*racing);  // Races the pending quarantine; quarantine wins.
  service.run_until_idle();
  EXPECT_TRUE(service.status().ok());
  service.depart(*quarantined);
  service.depart(*completes);

  std::vector<TenantOutcome> outcomes;
  for (TenantId t = 0; t < 4; ++t) outcomes.push_back(service.outcome(t));
  return outcomes;
}

TEST(PagingServiceQuarantineTest, DepartRacesQuarantineInEveryState) {
  const std::vector<TenantOutcome> outcomes = depart_race_outcomes();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].terminal, TenantTerminal::kDeparted);
  EXPECT_EQ(outcomes[0].hits + outcomes[0].misses, 0u);
  // The race: quarantine outranks the pending depart.
  EXPECT_EQ(outcomes[1].terminal, TenantTerminal::kQuarantined);
  EXPECT_EQ(outcomes[1].error.code, ErrorCode::kCorruptTrace);
  // Post-terminal departs are no-ops.
  EXPECT_EQ(outcomes[2].terminal, TenantTerminal::kQuarantined);
  EXPECT_EQ(outcomes[3].terminal, TenantTerminal::kCompleted);
}

TEST(PagingServiceQuarantineTest, MaxEventsBreachDrainsCompletedOutcomes) {
  // Four identical tenants under STATIC finish in one same-time batch. A
  // budget that trips inside that batch must still surface every finish
  // that already happened at that simulated time (partial metrics, not
  // discarded work).
  const auto clean_events = [] {
    const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
    PagingService service(*sched, small_service_config());
    for (int i = 0; i < 4; ++i)
      EXPECT_TRUE(service.submit(gen::cyclic_source(8, 96), 0).has_value());
    service.run_until_idle();
    EXPECT_TRUE(service.status().ok());
    EXPECT_EQ(service.metrics().completed, 4u);
    return service.metrics().events_consumed;
  }();
  ASSERT_GT(clean_events, 4u);

  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  ServiceConfig sc = small_service_config();
  sc.max_events = clean_events - 2;  // Trips between the 2nd and 3rd finish.
  PagingService service(*sched, sc);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(service.submit(gen::cyclic_source(8, 96), 0).has_value());
  service.run_until_idle();

  ASSERT_FALSE(service.status().ok());
  EXPECT_EQ(service.status().error.code, ErrorCode::kCellBudgetExceeded);
  const ServiceMetrics m = service.metrics();
  // All four finishes were at the breach time: charged or drained, every
  // one surfaces as a completed outcome with its true completion time.
  EXPECT_EQ(m.completed, 4u);
  EXPECT_EQ(m.events_consumed, sc.max_events + 1);
  for (TenantId t = 0; t < 4; ++t) {
    EXPECT_EQ(service.outcome(t).terminal, TenantTerminal::kCompleted);
    EXPECT_GT(service.outcome(t).completed, 0u);
  }
}

TEST(PagingServiceSheddingTest, ShedOldestEvictsTheFrontOfTheQueue) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  ServiceConfig sc = small_service_config();
  sc.admission_queue_limit = 2;
  sc.admission_policy = AdmissionPolicy::kShedOldest;
  PagingService service(*sched, sc);
  std::vector<TenantId> shed_callbacks;
  service.on_completion([&](const TenantOutcome& out) {
    if (out.terminal == TenantTerminal::kDeparted)
      shed_callbacks.push_back(out.tenant);
  });

  const auto a = service.submit(gen::cyclic_source(8, 60), 0);
  const auto b = service.submit(gen::cyclic_source(8, 60), 0);
  const auto c = service.submit(gen::cyclic_source(8, 60), 0);
  ASSERT_TRUE(a && b && c);  // C is admitted to the queue; A is shed.
  EXPECT_EQ(shed_callbacks, std::vector<TenantId>{*a});
  EXPECT_EQ(service.outcome(*a).terminal, TenantTerminal::kDeparted);
  EXPECT_EQ(service.metrics().shed, 1u);
  EXPECT_EQ(service.metrics().rejected, 0u);

  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());
  EXPECT_EQ(service.outcome(*b).terminal, TenantTerminal::kCompleted);
  EXPECT_EQ(service.outcome(*c).terminal, TenantTerminal::kCompleted);
}

TEST(PagingServiceSheddingTest, ShedLargestEvictsByDeclaredLength) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  ServiceConfig sc = small_service_config();
  sc.admission_queue_limit = 2;
  sc.admission_policy = AdmissionPolicy::kShedLargest;
  PagingService service(*sched, sc);

  const auto small = service.submit(gen::cyclic_source(8, 100), 0);
  const auto large = service.submit(gen::cyclic_source(8, 300), 0);
  // A mid-sized newcomer sheds the queued 300-request tenant.
  const auto mid = service.submit(gen::cyclic_source(8, 200), 0);
  ASSERT_TRUE(small && large && mid);
  EXPECT_EQ(service.outcome(*large).terminal, TenantTerminal::kDeparted);
  EXPECT_EQ(service.metrics().shed, 1u);

  // A newcomer that would itself be the largest is the one shed: rejected.
  EXPECT_FALSE(service.submit(gen::cyclic_source(8, 500), 0).has_value());
  EXPECT_EQ(service.metrics().rejected, 1u);
  // A newcomer tying the queued maximum is the most recent: rejected too.
  EXPECT_FALSE(service.submit(gen::cyclic_source(8, 200), 0).has_value());
  EXPECT_EQ(service.metrics().rejected, 2u);

  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());
  EXPECT_EQ(service.outcome(*small).terminal, TenantTerminal::kCompleted);
  EXPECT_EQ(service.outcome(*mid).terminal, TenantTerminal::kCompleted);
}

TEST(PagingServiceHealthTest, DegradesOnQueueDepthAndRecovers) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  ServiceConfig sc = small_service_config();
  sc.admission_queue_limit = 4;
  sc.degraded_queue_fraction = 0.5;
  PagingService service(*sched, sc);
  ASSERT_TRUE(service.submit(gen::cyclic_source(8, 40), 0).has_value());
  EXPECT_EQ(service.metrics().health, ServiceHealth::kHealthy);
  ASSERT_TRUE(service.submit(gen::cyclic_source(8, 40), 0).has_value());
  EXPECT_EQ(service.metrics().health, ServiceHealth::kDegraded);
  service.run_until_idle();
  ASSERT_TRUE(service.status().ok());
  EXPECT_EQ(service.metrics().health, ServiceHealth::kHealthy);
}

TEST(PagingServiceHealthTest, DegradesOnQuarantineRate) {
  const auto run_with_threshold = [](double threshold) {
    const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
    ServiceConfig sc = small_service_config();
    sc.degraded_quarantine_fraction = threshold;
    PagingService service(*sched, sc);
    EXPECT_TRUE(service
                    .submit(faulty(gen::cyclic_source(8, 120),
                                   TraceFaultClass::kFail, 20),
                            0)
                    .has_value());
    EXPECT_TRUE(service.submit(gen::cyclic_source(8, 120), 0).has_value());
    service.run_until_idle();
    EXPECT_TRUE(service.status().ok());
    return service.metrics().health;
  };
  // 1 of 2 finished tenants quarantined: 0.5 > 0.05 degrades ...
  EXPECT_EQ(run_with_threshold(0.05), ServiceHealth::kDegraded);
  // ... but a tolerant threshold stays healthy.
  EXPECT_EQ(run_with_threshold(1.0), ServiceHealth::kHealthy);
}

TEST(PagingServiceHealthTest, AdmissionPolicyNamesRoundTrip) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kFifoReject, AdmissionPolicy::kShedOldest,
        AdmissionPolicy::kShedLargest}) {
    const auto parsed = parse_admission_policy(admission_policy_name(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_admission_policy("drop-everything").has_value());
  EXPECT_STREQ(tenant_terminal_name(TenantTerminal::kQuarantined),
               "quarantined");
}

// --- The isolation proof --------------------------------------------------

/// One fixed submission sequence of `kTenants` tenants; `faulty_fraction`
/// toggles whether every 4th tenant carries an injected trace fault. STATIC
/// keeps tenants' box sequences independent of the active set, and the
/// queue limit exceeds the tenant count, so the submission and admission
/// sequences are identical with and without faults — any difference in a
/// healthy tenant's outcome would be containment leaking.
std::vector<TenantOutcome> mixed_run(bool with_faults) {
  const auto sched = make_scheduler(SchedulerKind::kStatic, 0);
  ServiceConfig sc;
  sc.cache_size = 32;
  sc.miss_cost = 4;
  sc.admission_queue_limit = 64;
  PagingService service(*sched, sc);

  constexpr std::uint64_t kTenants = 24;
  for (std::uint64_t i = 0; i < kTenants; ++i) {
    auto source = gen::cyclic_source(
        6 + i % 5, static_cast<std::size_t>(100 + 13 * i));
    if (with_faults && i % 4 == 1) {
      source = faulty(source,
                      i % 8 == 1 ? TraceFaultClass::kFail
                                 : TraceFaultClass::kHostilePage,
                      25 + i);
    }
    EXPECT_TRUE(service.submit(std::move(source), Time(i * 3)).has_value());
  }
  service.run_until_idle();
  EXPECT_TRUE(service.status().ok());
  std::vector<TenantOutcome> outcomes;
  for (TenantId t = 0; t < kTenants; ++t)
    outcomes.push_back(service.outcome(t));
  return outcomes;
}

TEST(PagingServiceIsolationTest, HealthyTenantsAreByteIdenticalUnderFaults) {
  const std::vector<TenantOutcome> baseline = mixed_run(false);
  const std::vector<TenantOutcome> got = mixed_run(true);
  ASSERT_EQ(got.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (i % 4 == 1) {
      EXPECT_EQ(got[i].terminal, TenantTerminal::kQuarantined)
          << "tenant=" << i;
      EXPECT_EQ(got[i].error.code, ErrorCode::kCorruptTrace);
      continue;
    }
    // Healthy tenant: every outcome field identical to the fault-free
    // run of the same submission sequence.
    EXPECT_EQ(got[i].terminal, TenantTerminal::kCompleted) << "tenant=" << i;
    EXPECT_EQ(got[i].admitted, baseline[i].admitted);
    EXPECT_EQ(got[i].completed, baseline[i].completed) << "tenant=" << i;
    EXPECT_EQ(got[i].hits, baseline[i].hits);
    EXPECT_EQ(got[i].misses, baseline[i].misses);
  }
}

}  // namespace
}  // namespace ppg
