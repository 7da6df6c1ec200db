// Paging as a service: a long-lived multi-tenant front end over the
// incremental engine.
//
// PagingService turns the batch simulator inside out. Tenants (one request
// sequence each) are submitted with an arrival time, wait in a bounded
// admission queue, run as engine processors under any BoxScheduler — which
// re-phases on every arrival/departure through the notify_arrived /
// notify_departed hooks — and surface per-tenant SLO metrics the moment
// they complete: completion-time and fault-count histograms plus the
// max-fault fairness figure that Online Min-Max Paging motivates.
//
// Determinism: the service adds no randomness of its own. Metrics are a
// pure function of (submission sequence, scheduler seed, config) — the
// same contract the batch engine has. And a
// service whose tenants all arrive at t = 0 admits them as the engine's
// initial cohort, so its engine run is byte-identical to
// run_parallel() over the same sources (pinned by
// tests/test_paging_service.cpp).
//
// Fault isolation: the service always contains per-tenant faults
// (EngineConfig::contain_proc_failures) — a multi-tenant front end must
// not let one hostile trace take down its neighbours, unlike the batch
// engine, which fails fast. A tenant whose trace faults — or that
// breaches its per-tenant budget/deadline — is quarantined at its next box
// boundary (TenantTerminal::kQuarantined, structured cause in
// TenantOutcome::error) while every other tenant's schedule and metrics
// stay byte-identical. Overload is handled by a pluggable AdmissionPolicy,
// and metrics().health summarizes both pressure signals. See DESIGN.md
// §12.
//
// Memory: tenants stream through TraceCursor-backed runners that are
// released on completion, so live memory is O(active tenants x box height)
// plus O(1) bookkeeping per tenant ever submitted — 10^5 lightweight
// tenants fit comfortably under a 256 MB cap (examples/service_sim soaks
// exactly that in scripts/tier1.sh).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/scheduler.hpp"
#include "trace/trace_source.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/types.hpp"

namespace ppg {

/// Dense tenant handle, assigned in submission order.
using TenantId = std::uint32_t;

/// What submit() does with a newcomer while the admission queue is full.
enum class AdmissionPolicy : std::uint8_t {
  /// Bounce the newcomer (submit() returns nullopt) — the default, and the
  /// only policy that never evicts an already-accepted tenant.
  kFifoReject,
  /// Shed the longest-waiting queued tenant to make room for the newcomer.
  kShedOldest,
  /// Shed whichever of (queued tenants ∪ newcomer) declares the most
  /// requests; ties shed the most recent submission, so a newcomer tying
  /// the queued maximum is rejected. Shedding the newcomer = rejecting it.
  kShedLargest,
};

/// Stable textual name ("fifo-reject", "shed-oldest", "shed-largest").
const char* admission_policy_name(AdmissionPolicy policy);

/// Inverse of admission_policy_name; nullopt for an unknown name.
std::optional<AdmissionPolicy> parse_admission_policy(const std::string& name);

/// Coarse load-shedding signal derived from queue depth and quarantine
/// rate; see ServiceConfig::degraded_* and ServiceMetrics::health.
enum class ServiceHealth : std::uint8_t { kHealthy, kDegraded };

/// How a tenant left the system.
enum class TenantTerminal : std::uint8_t {
  kCompleted,    ///< Drained its whole request sequence.
  kDeparted,     ///< Left via depart(), or was shed under overload.
  kQuarantined,  ///< Isolated after a contained fault or a budget breach.
};

/// Stable textual name ("completed", "departed", "quarantined").
const char* tenant_terminal_name(TenantTerminal terminal);

struct ServiceConfig {
  Height cache_size = 0;  ///< k.
  Time miss_cost = 2;     ///< s.
  /// Engine watchdog / event budget, forwarded to EngineConfig (see
  /// parallel_engine.hpp). CheckedRun-style budget consumption is visible
  /// through ServiceMetrics::events_consumed.
  Time max_time = Time{1} << 60;
  std::uint64_t max_events = 0;
  /// Admission backpressure: submit() rejects (returns nullopt) while this
  /// many tenants are already waiting for admission.
  std::size_t admission_queue_limit = 4096;
  /// Overload response once the queue is full; see AdmissionPolicy.
  AdmissionPolicy admission_policy = AdmissionPolicy::kFifoReject;
  /// Per-tenant box budget and sojourn deadline (simulated time), forwarded
  /// to EngineConfig::proc_event_budget / proc_deadline. 0 disables. A
  /// breach quarantines only the runaway tenant (kTenantBudgetExceeded /
  /// kTenantDeadlineExceeded); every other tenant is unaffected.
  std::uint64_t tenant_event_budget = 0;
  Time tenant_deadline = 0;
  /// metrics().health turns kDegraded when the admission queue is at least
  /// this full (as a fraction of admission_queue_limit)...
  double degraded_queue_fraction = 0.5;
  /// ...or when more than this fraction of finished tenants ended
  /// quarantined.
  double degraded_quarantine_fraction = 0.05;
};

/// Everything known about a tenant once it has left the system.
struct TenantOutcome {
  TenantId tenant = 0;
  Time arrival = 0;    ///< Requested arrival (service clock).
  Time admitted = 0;   ///< When the engine actually activated it.
  Time completed = 0;  ///< Completion (or forced-departure) time.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool departed = false;  ///< terminal == kDeparted, derived by outcome().
  TenantTerminal terminal = TenantTerminal::kCompleted;
  /// Structured quarantine cause; code == kOk unless terminal is
  /// kQuarantined (then kCorruptTrace / kTenantBudgetExceeded / ...).
  Error error;
};

/// Live SLO surface; see PagingService::metrics().
struct ServiceMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  ///< Bounced off the full admission queue.
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t departed = 0;
  std::uint64_t quarantined = 0;  ///< Isolated by fault containment.
  std::uint64_t shed = 0;    ///< Queued tenants evicted under overload.
  std::uint64_t active = 0;  ///< Running in the engine right now.
  std::uint64_t queued = 0;  ///< Waiting in the admission queue.
  Time now = 0;              ///< Last processed simulated time.
  std::uint64_t events_consumed = 0;  ///< Charged against max_events.
  /// Max per-tenant fault count over finished tenants — the min-max
  /// fairness objective of Online Min-Max Paging (arXiv 2212.03016).
  std::uint64_t max_faults = 0;
  double mean_completion_latency = 0.0;  ///< Mean of (completed - arrival).
  Log2Histogram completion_latency;      ///< Per-tenant sojourn times.
  Log2Histogram fault_counts;            ///< Per-tenant miss counts.
  /// Degrades on queue depth / quarantine rate (ServiceConfig::degraded_*).
  ServiceHealth health = ServiceHealth::kHealthy;
  /// Quarantine tally by structured cause, sorted by error code.
  std::vector<std::pair<ErrorCode, std::uint64_t>> quarantine_codes;
};

class PagingService {
 public:
  /// `scheduler` must outlive the service. Seed the scheduler itself for
  /// randomized policies; the service draws no randomness.
  PagingService(BoxScheduler& scheduler, const ServiceConfig& config);

  /// Submits one tenant whose requests stream from `trace`, arriving at
  /// simulated time `arrival`. Admission is FIFO in submission order; an
  /// arrival time the engine has already passed is clamped forward (the
  /// tenant queues). Returns the tenant handle, or nullopt when the
  /// admission queue is full (backpressure — retry after step()s).
  ///
  /// Tenants submitted with arrival 0 before the first step() become the
  /// engine's initial cohort: the run is then byte-identical to a batch
  /// run_parallel() over the same sources.
  std::optional<TenantId> submit(std::shared_ptr<const TraceSource> trace,
                                 Time arrival);

  /// As above, from a generator trace spec (trace/trace_spec.hpp). The
  /// spec must describe exactly one processor (a tenant is one sequence);
  /// throws PpgException(kBadInput) otherwise.
  std::optional<TenantId> submit(const std::string& trace_spec, Time arrival);

  /// Requests that `tenant` leave: immediately if still queued, at its
  /// next box boundary if running. Idempotent, and a no-op once the tenant
  /// is finished (including already quarantined). Completion via the
  /// normal callback with terminal == kDeparted — unless a quarantine
  /// lands at the same box boundary, which outranks the depart request
  /// (the outcome records why the tenant really left).
  void depart(TenantId tenant);

  /// Registers the completion callback (replacing any previous one). Fired
  /// during step(), once per tenant, in deterministic engine order.
  void on_completion(std::function<void(const TenantOutcome&)> callback);

  /// Admits every due tenant, then advances the engine by one event batch.
  /// Returns true while the service can still make progress (work pending
  /// or queued); false once idle, or failed — check status().
  bool step();

  /// Steps until the queue is empty and every admitted tenant finished.
  /// Tenants submitted from completion callbacks keep the loop going.
  void run_until_idle();

  /// Engine failure surface (scheduler contract violation, watchdog,
  /// event budget). ok() while healthy; once failed, step() returns false.
  const RunStatus& status() const { return stepper_.status(); }

  Time now() const { return stepper_.now(); }
  bool idle() const;

  /// Snapshot of the live SLO surface (counters + histograms by value).
  ServiceMetrics metrics() const;

  /// The outcome of a finished tenant (PPG_CHECK: must be finished).
  TenantOutcome outcome(TenantId tenant) const;

  /// Read-only view of the underlying stepper (tests use view() as the
  /// active-set ground truth).
  const EngineStepper& stepper() const { return stepper_; }

 private:
  enum class TenantState : std::uint8_t { kQueued, kActive, kDone };

  struct TenantRecord {
    Time arrival = 0;
    Time admitted = 0;
    Time completed = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    ProcId proc = kInvalidProc;  ///< Engine slot once admitted.
    TenantState state = TenantState::kQueued;
    bool depart_requested = false;
    TenantTerminal terminal = TenantTerminal::kCompleted;
    Error error;  ///< Quarantine cause; kOk otherwise.
  };

  struct QueuedTenant {
    TenantId tenant = 0;
    std::shared_ptr<const TraceSource> trace;
    Time arrival = 0;
  };

  void admit_front(bool initial);
  void harvest_completions();
  void finalize(TenantId tenant, Time completed, std::uint64_t hits,
                std::uint64_t misses, TenantTerminal terminal,
                Error error = Error());
  /// Applies the admission policy to a full queue. Returns true once there
  /// is room for `incoming` (possibly after shedding a queued tenant),
  /// false to reject the newcomer.
  bool make_room(const TraceSource& incoming);
  /// Evicts queue_[index] as shed: finalized kDeparted at max(arrival,
  /// now()). Fires the completion callback from inside submit().
  void shed_queued(std::size_t index);

  // submit(), depart() and step() must not be called concurrently.
  ServiceConfig config_;
  EngineStepper stepper_;
  bool started_ = false;

  /// Bounded FIFO admission queue (backpressure surface).
  std::deque<QueuedTenant> queue_;
  /// Tenant table: every tenant ever submitted, indexed by TenantId.
  std::vector<TenantRecord> records_;
  /// Engine proc -> tenant.
  std::vector<TenantId> proc_tenant_;
  std::function<void(const TenantOutcome&)> callback_;

  // Metrics counters, folded in deterministic engine order during step().
  std::uint64_t rejected_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t departed_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t shed_ = 0;
  /// Quarantines by structured cause (ordered map: metrics() exposes it
  /// sorted without re-sorting, and iteration order is deterministic).
  std::map<ErrorCode, std::uint64_t> quarantine_codes_;
  std::uint64_t max_faults_ = 0;
  double latency_sum_ = 0.0;
  Log2Histogram completion_latency_;
  Log2Histogram fault_counts_;
};

}  // namespace ppg
