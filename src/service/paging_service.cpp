#include "service/paging_service.hpp"

#include <algorithm>
#include <utility>

#include "trace/trace_spec.hpp"
#include "util/assert.hpp"

namespace ppg {

namespace {

EngineConfig engine_config(const ServiceConfig& config) {
  EngineConfig ec;
  ec.cache_size = config.cache_size;
  ec.miss_cost = config.miss_cost;
  ec.max_time = config.max_time;
  ec.max_events = config.max_events;
  ec.proc_event_budget = config.tenant_event_budget;
  ec.proc_deadline = config.tenant_deadline;
  ec.contain_proc_failures = true;
  return ec;
}

}  // namespace

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kFifoReject:
      return "fifo-reject";
    case AdmissionPolicy::kShedOldest:
      return "shed-oldest";
    case AdmissionPolicy::kShedLargest:
      return "shed-largest";
  }
  return "?";
}

std::optional<AdmissionPolicy> parse_admission_policy(
    const std::string& name) {
  if (name == "fifo-reject") return AdmissionPolicy::kFifoReject;
  if (name == "shed-oldest") return AdmissionPolicy::kShedOldest;
  if (name == "shed-largest") return AdmissionPolicy::kShedLargest;
  return std::nullopt;
}

const char* tenant_terminal_name(TenantTerminal terminal) {
  switch (terminal) {
    case TenantTerminal::kCompleted:
      return "completed";
    case TenantTerminal::kDeparted:
      return "departed";
    case TenantTerminal::kQuarantined:
      return "quarantined";
  }
  return "?";
}

PagingService::PagingService(BoxScheduler& scheduler,
                             const ServiceConfig& config)
    : config_(config), stepper_(scheduler, engine_config(config)) {
  PPG_CHECK(config.admission_queue_limit >= 1);
}

std::optional<TenantId> PagingService::submit(
    std::shared_ptr<const TraceSource> trace, Time arrival) {
  PPG_CHECK(trace != nullptr);
  if (queue_.size() >= config_.admission_queue_limit && !make_room(*trace)) {
    ++rejected_;
    return std::nullopt;
  }
  const auto tenant = static_cast<TenantId>(records_.size());
  TenantRecord record;
  record.arrival = arrival;
  records_.push_back(record);
  queue_.push_back(QueuedTenant{tenant, std::move(trace), arrival});
  return tenant;
}

std::optional<TenantId> PagingService::submit(const std::string& trace_spec,
                                              Time arrival) {
  MultiTraceSource sources = make_source_from_trace_spec(trace_spec);
  if (sources.num_procs() != 1) {
    throw_error(ErrorCode::kBadInput,
                "a tenant is one request sequence; trace spec '" + trace_spec +
                    "' describes " + std::to_string(sources.num_procs()) +
                    " processors (want p=1)");
  }
  return submit(sources.source_ptr(0), arrival);
}

void PagingService::depart(TenantId tenant) {
  PPG_CHECK(tenant < records_.size());
  TenantRecord& record = records_[tenant];
  switch (record.state) {
    case TenantState::kQueued:
      record.depart_requested = true;
      break;
    case TenantState::kActive:
      if (!record.depart_requested) {
        record.depart_requested = true;
        stepper_.depart(record.proc);
      }
      break;
    case TenantState::kDone:
      break;
  }
}

void PagingService::on_completion(
    std::function<void(const TenantOutcome&)> callback) {
  callback_ = std::move(callback);
}

bool PagingService::make_room(const TraceSource& incoming) {
  switch (config_.admission_policy) {
    case AdmissionPolicy::kFifoReject:
      return false;
    case AdmissionPolicy::kShedOldest:
      shed_queued(0);
      return true;
    case AdmissionPolicy::kShedLargest: {
      // Uses the *declared* length (num_requests); a lying source — e.g. a
      // torn-span fault — sheds by what it promised, not what it delivers.
      // Ties shed the most recent submission: >= in the scan selects the
      // latest queued maximum, and a newcomer tying the queued maximum is
      // itself the latest, so it is the one rejected below.
      std::size_t victim = 0;
      std::uint64_t longest = 0;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const auto len =
            static_cast<std::uint64_t>(queue_[i].trace->num_requests());
        if (len >= longest) {
          longest = len;
          victim = i;
        }
      }
      if (static_cast<std::uint64_t>(incoming.num_requests()) >= longest)
        return false;
      shed_queued(victim);
      return true;
    }
  }
  return false;
}

void PagingService::shed_queued(std::size_t index) {
  PPG_CHECK(index < queue_.size());
  const TenantId tenant = queue_[index].tenant;
  const Time at = std::max(queue_[index].arrival, stepper_.now());
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  ++shed_;
  finalize(tenant, at, 0, 0, TenantTerminal::kDeparted);
}

void PagingService::admit_front(bool initial) {
  QueuedTenant queued = std::move(queue_.front());
  queue_.pop_front();
  TenantRecord& record = records_[queued.tenant];
  if (record.depart_requested) {
    // Cancelled before admission: the engine never sees it.
    finalize(queued.tenant, std::max(queued.arrival, stepper_.now()), 0, 0,
             TenantTerminal::kDeparted);
    return;
  }
  // A requested arrival the engine has already passed clamps forward: the
  // tenant spent the difference queueing.
  const Time at = initial ? 0 : std::max(queued.arrival, stepper_.now());
  const ProcId proc = initial
                          ? stepper_.add_processor(std::move(queued.trace))
                          : stepper_.add_processor(std::move(queued.trace), at);
  PPG_CHECK(static_cast<std::size_t>(proc) == proc_tenant_.size());
  proc_tenant_.push_back(queued.tenant);
  record.proc = proc;
  record.admitted = at;
  record.state = TenantState::kActive;
  ++admitted_;
}

void PagingService::finalize(TenantId tenant, Time completed,
                             std::uint64_t hits, std::uint64_t misses,
                             TenantTerminal terminal, Error error) {
  TenantRecord& record = records_[tenant];
  record.completed = completed;
  record.hits = hits;
  record.misses = misses;
  record.state = TenantState::kDone;
  record.terminal = terminal;
  record.error = std::move(error);
  switch (terminal) {
    case TenantTerminal::kCompleted:
      ++completed_;
      break;
    case TenantTerminal::kDeparted:
      ++departed_;
      break;
    case TenantTerminal::kQuarantined:
      ++quarantined_;
      ++quarantine_codes_[record.error.code];
      break;
  }

  const Time latency = completed - record.arrival;
  latency_sum_ += static_cast<double>(latency);
  completion_latency_.add(latency);
  fault_counts_.add(misses);
  max_faults_ = std::max(max_faults_, misses);

  if (callback_) callback_(outcome(tenant));
}

void PagingService::harvest_completions() {
  for (const StepCompletion& c : stepper_.last_completions()) {
    const TenantId tenant = proc_tenant_[c.proc];
    // Quarantine outranks a racing depart(): the engine already encodes
    // that precedence (quarantined completions have departed == false).
    const TenantTerminal terminal = c.quarantined
                                        ? TenantTerminal::kQuarantined
                                    : c.departed ? TenantTerminal::kDeparted
                                                 : TenantTerminal::kCompleted;
    finalize(tenant, c.time, stepper_.proc_hits(c.proc),
             stepper_.proc_misses(c.proc), terminal, c.error);
  }
}

bool PagingService::step() {
  if (!status().ok()) return false;
  if (!started_) {
    // The leading arrival-0 tenants form the engine's initial cohort, so a
    // service with every tenant submitted at t = 0 runs the exact batch
    // code path (byte-identical metrics).
    while (!queue_.empty() && queue_.front().arrival == 0)
      admit_front(/*initial=*/true);
    stepper_.start();
    started_ = true;
    if (!status().ok()) return false;
  }
  // Admit every queued tenant that is due: its arrival is no later than
  // the engine's next event, or the engine is idle and admission is what
  // creates the next event. FIFO — a tenant is never admitted before its
  // predecessors.
  while (!queue_.empty() && (!stepper_.has_pending() ||
                             queue_.front().arrival <= stepper_.frontier())) {
    admit_front(/*initial=*/false);
  }
  if (!stepper_.has_pending()) return !queue_.empty();
  stepper_.step();
  harvest_completions();
  if (!status().ok()) return false;
  return stepper_.has_pending() || !queue_.empty();
}

void PagingService::run_until_idle() {
  while (step()) {
  }
}

bool PagingService::idle() const {
  return queue_.empty() && (!started_ || !stepper_.has_pending());
}

ServiceMetrics PagingService::metrics() const {
  ServiceMetrics m;
  m.submitted = records_.size();
  m.rejected = rejected_;
  m.admitted = admitted_;
  m.completed = completed_;
  m.departed = departed_;
  m.quarantined = quarantined_;
  m.shed = shed_;
  m.active = stepper_.active_count();
  m.queued = queue_.size();
  m.now = stepper_.now();
  m.events_consumed = stepper_.events_consumed();
  m.max_faults = max_faults_;
  const std::uint64_t finished = completed_ + departed_ + quarantined_;
  m.mean_completion_latency =
      finished == 0 ? 0.0 : latency_sum_ / static_cast<double>(finished);
  m.completion_latency = completion_latency_;
  m.fault_counts = fault_counts_;
  m.quarantine_codes.assign(quarantine_codes_.begin(),
                            quarantine_codes_.end());
  // Health is a pure function of the counters above: degraded while the
  // queue is deep (imminent shedding/rejection) or while quarantines are
  // more than background noise among finished tenants.
  const double queue_threshold =
      config_.degraded_queue_fraction *
      static_cast<double>(config_.admission_queue_limit);
  const bool queue_deep =
      !queue_.empty() && static_cast<double>(queue_.size()) >= queue_threshold;
  const bool quarantine_heavy =
      finished > 0 &&
      static_cast<double>(quarantined_) >
          config_.degraded_quarantine_fraction * static_cast<double>(finished);
  m.health = (queue_deep || quarantine_heavy) ? ServiceHealth::kDegraded
                                              : ServiceHealth::kHealthy;
  return m;
}

TenantOutcome PagingService::outcome(TenantId tenant) const {
  PPG_CHECK(tenant < records_.size());
  const TenantRecord& record = records_[tenant];
  PPG_CHECK_MSG(record.state == TenantState::kDone,
                "outcome() requires a finished tenant");
  TenantOutcome out;
  out.tenant = tenant;
  out.arrival = record.arrival;
  out.admitted = record.admitted;
  out.completed = record.completed;
  out.hits = record.hits;
  out.misses = record.misses;
  out.departed = record.terminal == TenantTerminal::kDeparted;
  out.terminal = record.terminal;
  out.error = record.error;
  return out;
}

}  // namespace ppg
