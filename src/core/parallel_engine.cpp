#include "core/parallel_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <queue>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "core/replay.hpp"
#include "green/box_runner.hpp"
#include "util/assert.hpp"

namespace ppg {

double mean_of(const std::vector<Time>& completion) {
  if (completion.empty()) return 0.0;
  double sum = 0.0;
  for (Time t : completion) sum += static_cast<double>(t);
  return sum / static_cast<double>(completion.size());
}

namespace {

enum class EventKind : std::uint8_t {
  kFinish = 0,   // sorts first so schedulers see up-to-date active counts
  kArrive = 1,   // then arrivals activate before any same-time box request
  kNeedBox = 2,  // box grants come last at equal times
};

struct Event {
  Time time;
  EventKind kind;
  ProcId proc;
  std::uint64_t seq;  // final deterministic tie-break
  /// Height of the box this event ends (0 if none): a processor holds at
  /// most one box, and its next event is exactly that box's deallocation.
  Height held = 0;
};

/// Monotone radix queue over the engine's integer event times. Every push
/// is at or after `base_`, the last popped batch time: follow-ups land
/// after the batch that made them, and online arrivals are checked against
/// the last batch time. An event lives in bucket bit_width(time ^ base_),
/// so bucket 0 holds the events at `base_` and bucket i > 0 those whose
/// time first differs from `base_` at bit i - 1; lower buckets hold
/// earlier times. Refilling bucket 0 re-buckets the first non-empty bucket
/// around its minimum, which moves each event to a strictly lower bucket,
/// so an event is moved at most 64 times over its life: O(1) amortized per
/// event, where a binary heap sifts O(log n) per push and per pop.
class EventQueue {
 public:
  bool empty() const { return size_ == 0; }

  void push(const Event& ev) {
    PPG_DCHECK(ev.time >= base_);
    buckets_[bucket_of(ev.time)].push_back(ev);
    ++size_;
    if (min_valid_) min_ = std::min(min_, ev.time);
  }

  /// Earliest pending event time. Unlike pop_batch() this does not move
  /// the radix base: a caller may peek here and then push arrivals between
  /// the last batch time and the returned frontier. The minimum is cached
  /// until the next pop, so repeated peeks cost O(1).
  Time min_time() const {
    PPG_DCHECK(!empty());
    if (!buckets_[0].empty()) return base_;
    if (!min_valid_) {
      const std::vector<Event>& first = buckets_[first_nonempty()];
      min_ = first.front().time;
      for (const Event& ev : first) min_ = std::min(min_, ev.time);
      min_valid_ = true;
    }
    return min_;
  }

  /// Moves every event at the earliest pending time into `batch`, in the
  /// order (kind, proc, seq): with the shared time, exactly a binary
  /// heap's (time, kind, proc, seq) pop order, which `seq` makes total.
  /// Events pushed at that same time afterwards (an arrival's first box
  /// request) form the next batch.
  void pop_batch(std::vector<Event>& batch) {
    PPG_DCHECK(!empty());
    if (buckets_[0].empty()) {
      const Time next = min_time();
      std::vector<Event>& from = buckets_[first_nonempty()];
      base_ = next;
      for (const Event& ev : from) buckets_[bucket_of(ev.time)].push_back(ev);
      from.clear();
    }
    batch.clear();
    batch.swap(buckets_[0]);
    size_ -= batch.size();
    min_valid_ = false;
    std::sort(batch.begin(), batch.end(), [](const Event& a, const Event& b) {
      return std::tie(a.kind, a.proc, a.seq) < std::tie(b.kind, b.proc, b.seq);
    });
  }

 private:
  std::size_t bucket_of(Time time) const {
    return static_cast<std::size_t>(std::bit_width(time ^ base_));
  }

  std::size_t first_nonempty() const {
    std::size_t i = 1;
    while (buckets_[i].empty()) ++i;
    return i;
  }

  std::array<std::vector<Event>, 65> buckets_;
  std::size_t size_ = 0;
  Time base_ = 0;
  mutable Time min_ = 0;
  mutable bool min_valid_ = false;
};

class EngineState final : public EngineView {
 public:
  ProcId num_procs() const override {
    return static_cast<ProcId>(active_.size());
  }
  ProcId active_count() const override {
    return static_cast<ProcId>(active_ids_.size());
  }
  bool is_active(ProcId proc) const override { return active_[proc]; }
  const std::vector<ProcId>& active_ids() const override {
    return active_ids_;
  }

  /// New processor slot; initial-cohort slots are born active, online
  /// arrivals stay inactive until their kArrive event fires.
  ProcId add(bool active) {
    const auto proc = static_cast<ProcId>(active_.size());
    active_.push_back(false);
    if (active) activate(proc);
    return proc;
  }

  /// Arrivals mostly carry the newest id, so the sorted insert is usually
  /// an append.
  void activate(ProcId proc) {
    PPG_CHECK(!active_[proc]);
    active_[proc] = true;
    active_ids_.insert(
        std::lower_bound(active_ids_.begin(), active_ids_.end(), proc), proc);
  }

  void deactivate(ProcId proc) {
    PPG_CHECK(active_[proc]);
    active_[proc] = false;
    active_ids_.erase(
        std::lower_bound(active_ids_.begin(), active_ids_.end(), proc));
  }

 private:
  std::vector<bool> active_;
  std::vector<ProcId> active_ids_;  ///< Ascending.
};

Error engine_error(ErrorCode code, std::string message, ProcId proc,
                   Time time) {
  Error error;
  error.code = code;
  error.message = std::move(message);
  error.proc = proc;
  error.time = time;
  return error;
}

}  // namespace

struct EngineStepper::Impl {
  BoxScheduler* scheduler;
  EngineConfig config;

  EngineState state;
  CheckedRun out;

  // Per-processor lifetime state. Runners are released (reset) the moment
  // a processor finishes or departs, so live memory tracks the active set.
  std::vector<std::unique_ptr<BoxRunner>> runners;
  std::vector<std::shared_ptr<const TraceSource>> pending_sources;
  std::vector<bool> departing;
  std::vector<std::uint64_t> proc_hits;
  std::vector<std::uint64_t> proc_misses;
  /// Boxes granted so far, charged against config.proc_event_budget.
  std::vector<std::uint64_t> proc_boxes;
  /// Activation time, the zero point of config.proc_deadline.
  std::vector<Time> proc_activated;
  /// Pending quarantine cause, set when a runner failure is contained;
  /// consumed by the forced departure at the next box boundary.
  std::vector<std::unique_ptr<Error>> proc_error;

  EventQueue events;
  std::uint64_t seq = 0;

  // Per-batch scratch (SoA, reused across steps): the events popped at the
  // current simulated time, and the boxes granted by the scheduler pass,
  // awaiting simulation in the fold.
  std::vector<Event> batch;
  std::vector<ProcId> pending_proc;
  std::vector<BoxAssignment> pending_box;

  // Online peak-height tracker: the height of every live box that has
  // started, its running maximum, and the (start, height) of granted boxes
  // that start after their grant (RAND-PAR stalling between waves). Both
  // are bounded by the live boxes.
  std::uint64_t allocated = 0;
  std::uint64_t peak = 0;
  std::priority_queue<std::pair<Time, Height>,
                      std::vector<std::pair<Time, Height>>, std::greater<>>
      deferred_starts;
  std::vector<StepCompletion> completions;

  std::uint64_t processed_events = 0;
  Time last_batch_time = 0;
  bool started = false;
  bool failed = false;
  bool finished = false;

  explicit Impl(BoxScheduler& sched, const EngineConfig& cfg)
      : scheduler(&sched), config(cfg) {
    PPG_CHECK(config.cache_size >= 1);
    PPG_CHECK(config.miss_cost >= 1);
  }

  ProcId add_slot(std::shared_ptr<const TraceSource> source, bool active) {
    PPG_CHECK(source != nullptr);
    const ProcId proc = state.add(active);
    out.result.completion.push_back(0);
    runners.push_back(
        std::make_unique<BoxRunner>(*source, config.miss_cost));
    pending_sources.push_back(std::move(source));
    departing.push_back(false);
    proc_hits.push_back(0);
    proc_misses.push_back(0);
    proc_boxes.push_back(0);
    proc_activated.push_back(0);
    proc_error.push_back(nullptr);
    return proc;
  }

  /// Drops the per-processor working state once `proc` leaves the active
  /// set for good; metrics and completion times remain.
  void release(ProcId proc) {
    runners[proc].reset();
    pending_sources[proc].reset();
  }

  void push_first_event(ProcId proc, Time at) {
    // Empty traces complete instantly on arrival.
    if (runners[proc]->finished())
      events.push(Event{at, EventKind::kFinish, proc, seq++});
    else
      events.push(Event{at, EventKind::kNeedBox, proc, seq++});
  }

  /// Applies the deferred box starts at or before `t`, then the peak.
  void start_boxes_through(Time t) {
    while (!deferred_starts.empty() && deferred_starts.top().first <= t) {
      allocated += deferred_starts.top().second;
      deferred_starts.pop();
    }
    peak = std::max(peak, allocated);
  }

  void fail(Error error) {
    out.status = RunStatus::failure(std::move(error));
    failed = true;
  }

  /// Evicts `proc` right now with a structured cause — the containment
  /// counterpart of the finish/departure paths. The scheduler observes the
  /// quarantine exactly as it would a departure, so every other
  /// processor's box sequence is untouched.
  void quarantine_now(ProcId proc, Time time, Error error) {
    state.deactivate(proc);
    out.result.completion[proc] = time;
    scheduler->notify_departed(proc, time, state);
    StepCompletion completion;
    completion.proc = proc;
    completion.time = time;
    completion.quarantined = true;
    completion.error = std::move(error);
    completions.push_back(completion);
    release(proc);
  }

  /// A plain (non-quarantine) completion record.
  static StepCompletion make_completion(ProcId proc, Time time,
                                        bool departed) {
    StepCompletion completion;
    completion.proc = proc;
    completion.time = time;
    completion.departed = departed;
    return completion;
  }

  /// After a run-wide budget failure mid-batch: the kFinish events in the
  /// unprocessed tail of the popped batch are work that already completed
  /// at this simulated time — surface them as completions instead of
  /// discarding them, so admission layers report partial outcomes. No
  /// budget charge and no scheduler notification: the run is over.
  void drain_completed_tail(std::size_t from) {
    for (std::size_t j = from; j < batch.size(); ++j) {
      const Event& ev = batch[j];
      if (ev.kind != EventKind::kFinish) continue;
      state.deactivate(ev.proc);
      out.result.completion[ev.proc] = ev.time;
      completions.push_back(make_completion(ev.proc, ev.time, false));
      release(ev.proc);
    }
  }

  void start() {
    PPG_CHECK(!started);
    started = true;
    const ProcId p = state.num_procs();
    // Scheduler calls may throw PpgException (ValidatingScheduler and
    // other decorators do); surface it as the run's status.
    try {
      scheduler->start(
          SchedulerContext{p, config.cache_size, config.miss_cost}, state);
      for (ProcId i = 0; i < p; ++i) push_first_event(i, 0);
    } catch (const PpgException& e) {
      fail(e.error());
    }
    out.events_consumed = processed_events;
  }

  bool step() {
    PPG_CHECK(started);
    if (failed || events.empty()) return false;
    completions.clear();
    try {
      step_batch();
    } catch (const PpgException& e) {
      fail(e.error());
    }
    out.events_consumed = processed_events;
    return !failed && !events.empty();
  }

  void step_batch() {
    // Drain the whole batch of events at the current simulated time. A
    // finish lands at box.start + busy_time > t and an expiration at
    // box.end > t, so no *simulation* event generated while processing a
    // time-t batch can land at time t; arrivals may chain a same-time
    // follow-up event, which simply forms the next batch at the same
    // time. Popping the batch eagerly preserves the serial pop order
    // exactly.
    events.pop_batch(batch);
    const Time now = batch.front().time;
    last_batch_time = now;
    // Height timeline order: starts before `now`, then this batch's
    // deallocations, then its starts at `now` (after the fold below).
    if (now > 0) start_boxes_through(now - 1);

    ParallelRunResult& result = out.result;

    // Scheduler pass, in pop order: per-event guards and every scheduler
    // interaction. Box simulations are deferred to the fold below, so every
    // scheduler call of the batch precedes every simulation; on a failure
    // mid-batch the boxes granted so far are still simulated and folded.
    pending_proc.clear();
    pending_box.clear();
    for (std::size_t batch_index = 0; batch_index < batch.size();
         ++batch_index) {
      const Event& ev = batch[batch_index];
      ++processed_events;
      if (config.max_events != 0 && processed_events > config.max_events) {
        std::ostringstream msg;
        msg << "engine exhausted its step budget (max_events = "
            << config.max_events << ") under scheduler "
            << scheduler->name();
        fail(engine_error(ErrorCode::kCellBudgetExceeded, msg.str(), ev.proc,
                          ev.time));
        drain_completed_tail(batch_index);
        break;
      }
      if (ev.time > config.max_time) {
        std::ostringstream msg;
        msg << "engine exceeded max_time (" << ev.time << " > "
            << config.max_time << ") under scheduler " << scheduler->name();
        fail(engine_error(ErrorCode::kWatchdogTimeout, msg.str(), ev.proc,
                          ev.time));
        break;
      }
      allocated -= ev.held;

      if (ev.kind == EventKind::kFinish) {
        state.deactivate(ev.proc);
        result.completion[ev.proc] = ev.time;
        scheduler->notify_finished(ev.proc, ev.time, state);
        completions.push_back(make_completion(ev.proc, ev.time, false));
        release(ev.proc);
        continue;
      }

      if (ev.kind == EventKind::kArrive) {
        if (departing[ev.proc]) {
          // Departed while still queued for arrival: never activates, the
          // scheduler never learns of it.
          result.completion[ev.proc] = ev.time;
          completions.push_back(make_completion(ev.proc, ev.time, true));
          release(ev.proc);
          continue;
        }
        state.activate(ev.proc);
        proc_activated[ev.proc] = ev.time;
        scheduler->notify_arrived(ev.proc, ev.time, state);
        // The first box request (or instant finish) lands in a same-time
        // successor batch, after every event of this batch.
        push_first_event(ev.proc, ev.time);
        continue;
      }

      // kNeedBox
      if (departing[ev.proc]) {
        // Forced departure takes effect at the box boundary: the box in
        // flight completed, the next one is never requested. A contained
        // runner failure arrives here too (the fold sets departing and
        // stashes the cause) and outranks a racing caller depart().
        state.deactivate(ev.proc);
        result.completion[ev.proc] = ev.time;
        scheduler->notify_departed(ev.proc, ev.time, state);
        StepCompletion completion = make_completion(ev.proc, ev.time, true);
        if (proc_error[ev.proc] != nullptr) {
          completion.departed = false;
          completion.quarantined = true;
          completion.error = std::move(*proc_error[ev.proc]);
          proc_error[ev.proc].reset();
        }
        completions.push_back(completion);
        release(ev.proc);
        continue;
      }
      // Per-processor watchdogs, checked before another box is granted.
      // Both are simulated-unit limits, so a breach is deterministic and
      // quarantines only this processor (see EngineConfig).
      if (config.proc_event_budget != 0 &&
          proc_boxes[ev.proc] >= config.proc_event_budget) {
        std::ostringstream msg;
        msg << "processor exhausted its per-tenant box budget ("
            << config.proc_event_budget << ") under scheduler "
            << scheduler->name();
        quarantine_now(ev.proc, ev.time,
                       engine_error(ErrorCode::kTenantBudgetExceeded,
                                    msg.str(), ev.proc, ev.time));
        continue;
      }
      if (config.proc_deadline != 0 &&
          ev.time >= proc_activated[ev.proc] + config.proc_deadline) {
        std::ostringstream msg;
        msg << "processor passed its sojourn deadline (activated t="
            << proc_activated[ev.proc] << ", deadline "
            << config.proc_deadline << ") under scheduler "
            << scheduler->name();
        quarantine_now(ev.proc, ev.time,
                       engine_error(ErrorCode::kTenantDeadlineExceeded,
                                    msg.str(), ev.proc, ev.time));
        continue;
      }
      ++proc_boxes[ev.proc];
      PPG_DCHECK(!runners[ev.proc]->finished());
      const BoxAssignment box = scheduler->next_box(ev.proc, ev.time, state);
      // Last-line contract checks for undecorated schedulers; a malformed
      // box is the scheduler's fault, not ours, so it is recoverable.
      const char* defect = box.height < 1       ? "zero-height box"
                           : box.start < ev.time ? "box starts in the past"
                           : box.end <= box.start ? "empty box"
                                                  : nullptr;
      if (defect != nullptr) {
        std::ostringstream msg;
        msg << "scheduler " << scheduler->name() << " returned " << defect
            << " {h=" << box.height << ", [" << box.start << ", " << box.end
            << ")}";
        fail(engine_error(ErrorCode::kContractViolation, msg.str(), ev.proc,
                          ev.time));
        break;
      }
      result.total_stall += box.start - ev.time;
      if (config.on_box) config.on_box(ev.proc, box);
      pending_proc.push_back(ev.proc);
      pending_box.push_back(box);
    }

    // Fold, again in pop order: fast-forward each granted box, then
    // accumulate its metrics and height and push its follow-up event
    // (assigning seq numbers in pop order), which carries the box's height
    // to release.
    for (std::size_t i = 0; i < pending_proc.size(); ++i) {
      const ProcId proc = pending_proc[i];
      const BoxAssignment& box = pending_box[i];
      if (box.start == now)
        allocated += box.height;
      else
        deferred_starts.emplace(box.start, box.height);
      BoxStepResult step;
      try {
        step = runners[proc]->run_box(box.height, box.end - box.start,
                                      box.fresh);
      } catch (const PpgException& e) {
        Error error = e.error();
        error.proc = proc;
        if (error.time == kTimeInfinity) error.time = box.start;
        if (!config.contain_proc_failures) {
          // Batch contract: the first failure (in pop order) fails the
          // whole run; the rest of the fold is skipped.
          fail(std::move(error));
          break;
        }
        // Contained: the failed box is charged as fully stalled — its
        // partial hit/miss counts are discarded (the throw point is
        // deterministic, but the counters died with the exception) — and
        // the processor is forced out at the box boundary via the normal
        // departure machinery, cause stashed for that completion.
        ++result.num_boxes;
        result.total_impact +=
            static_cast<Impact>(box.height) * (box.end - box.start);
        result.total_stall += box.end - box.start;
        proc_error[proc] = std::make_unique<Error>(std::move(error));
        departing[proc] = true;
        events.push(
            Event{box.end, EventKind::kNeedBox, proc, seq++, box.height});
        continue;
      }
      ++result.num_boxes;
      result.hits += step.hits;
      result.misses += step.misses;
      proc_hits[proc] += step.hits;
      proc_misses[proc] += step.misses;

      if (step.finished) {
        const Time finish_time = box.start + step.busy_time;
        // Impact while the processor was actually running.
        result.total_impact +=
            static_cast<Impact>(box.height) * step.busy_time;
        events.push(
            Event{finish_time, EventKind::kFinish, proc, seq++, box.height});
      } else {
        result.total_impact +=
            static_cast<Impact>(box.height) * (box.end - box.start);
        result.total_stall += step.stall_time;
        events.push(
            Event{box.end, EventKind::kNeedBox, proc, seq++, box.height});
      }
    }
    start_boxes_through(now);
  }

  CheckedRun finish() {
    PPG_CHECK(started);
    PPG_CHECK(failed || events.empty());
    PPG_CHECK(!finished);
    finished = true;
    out.events_consumed = processed_events;
    if (failed) return std::move(out);

    ParallelRunResult& result = out.result;
    result.makespan =
        result.completion.empty()
            ? 0
            : *std::max_element(result.completion.begin(),
                                result.completion.end());
    result.mean_completion = mean_of(result.completion);

    PPG_CHECK_FMT(allocated == 0 && deferred_starts.empty(),
                  "height tracker unbalanced: residual height %llu, %zu "
                  "unstarted boxes after %llu boxes",
                  static_cast<unsigned long long>(allocated),
                  deferred_starts.size(),
                  static_cast<unsigned long long>(result.num_boxes));
    result.peak_concurrent_height = static_cast<Height>(peak);
    result.effective_augmentation =
        static_cast<double>(peak) / static_cast<double>(config.cache_size);
    return std::move(out);
  }
};

EngineStepper::EngineStepper(BoxScheduler& scheduler,
                             const EngineConfig& config)
    : impl_(std::make_unique<Impl>(scheduler, config)) {}

EngineStepper::~EngineStepper() = default;

ProcId EngineStepper::add_processor(std::shared_ptr<const TraceSource> source) {
  PPG_CHECK_MSG(!impl_->started,
                "initial-cohort processors must be added before start()");
  return impl_->add_slot(std::move(source), /*active=*/true);
}

void EngineStepper::start() { impl_->start(); }

ProcId EngineStepper::add_processor(std::shared_ptr<const TraceSource> source,
                                    Time arrival) {
  Impl& im = *impl_;
  PPG_CHECK_MSG(im.started, "online arrivals require a started stepper");
  PPG_CHECK_MSG(arrival >= im.last_batch_time,
                "arrival time precedes already-processed simulated time");
  const ProcId proc = im.add_slot(std::move(source), /*active=*/false);
  im.events.push(Event{arrival, EventKind::kArrive, proc, im.seq++});
  return proc;
}

void EngineStepper::depart(ProcId proc) {
  Impl& im = *impl_;
  PPG_CHECK(proc < im.state.num_procs());
  im.departing[proc] = true;
}

bool EngineStepper::step() { return impl_->step(); }

bool EngineStepper::started() const { return impl_->started; }

bool EngineStepper::done() const {
  return impl_->failed || (impl_->started && impl_->events.empty());
}

bool EngineStepper::has_pending() const { return !impl_->events.empty(); }

Time EngineStepper::frontier() const {
  PPG_CHECK(!impl_->events.empty());
  return impl_->events.min_time();
}

Time EngineStepper::now() const { return impl_->last_batch_time; }

const RunStatus& EngineStepper::status() const { return impl_->out.status; }

std::uint64_t EngineStepper::events_consumed() const {
  return impl_->processed_events;
}

ProcId EngineStepper::num_procs() const { return impl_->state.num_procs(); }

ProcId EngineStepper::active_count() const {
  return impl_->state.active_count();
}

const EngineView& EngineStepper::view() const { return impl_->state; }

std::uint64_t EngineStepper::proc_hits(ProcId proc) const {
  PPG_CHECK(proc < impl_->proc_hits.size());
  return impl_->proc_hits[proc];
}

std::uint64_t EngineStepper::proc_misses(ProcId proc) const {
  PPG_CHECK(proc < impl_->proc_misses.size());
  return impl_->proc_misses[proc];
}

const std::vector<StepCompletion>& EngineStepper::last_completions() const {
  return impl_->completions;
}

CheckedRun EngineStepper::finish() { return impl_->finish(); }

namespace {

void maybe_write_dump(const MultiTraceSource& sources,
                      const BoxScheduler& scheduler,
                      const EngineConfig& config, CheckedRun& out) {
  if (out.status.ok() || config.replay_dump_path.empty()) return;
  // Streamed runs without a generator spec can be arbitrarily long;
  // embedding the vectors above this cap would defeat constant-memory
  // execution, so such dumps record the failure but skip the traces. Runs
  // whose sources are all resident already paid that memory, so their
  // vectors are embedded at any size.
  constexpr std::uint64_t kMaxDumpRequests = std::uint64_t{1} << 22;
  ReplayDump dump;
  dump.cache_size = config.cache_size;
  dump.miss_cost = config.miss_cost;
  dump.max_time = config.max_time;
  dump.seed = config.seed;
  dump.scheduler_spec = config.scheduler_spec.empty() ? scheduler.name()
                                                      : config.scheduler_spec;
  dump.reason = out.status.error;
  dump.trace_spec = config.trace_spec;
  if (!config.trace_spec.empty()) {
    // The spec regenerates the exact traces; no need to embed vectors.
    dump.has_traces = false;
  } else if (sources.all_materialized() ||
             sources.total_requests() <= kMaxDumpRequests) {
    try {
      dump.traces = sources.materialize();
    } catch (const PpgException&) {
      // A source that fails, or stalls, while being drained (often the
      // very fault the run reports) cannot be embedded: dump without
      // vectors, and keep the run's own status.
      dump.has_traces = false;
    }
  } else {
    dump.has_traces = false;
  }
  try {
    save_replay_dump(config.replay_dump_path, dump);
    out.status.replay_dump_path = config.replay_dump_path;
    // Not a containment decision: the run already failed with a structured
    // Error, and a dump-write failure (filesystem, not simulation) must not
    // mask that cause.
    // ppg-lint: allow(service-catch-all): swallows I/O errors, not ppg::Error
  } catch (const std::exception&) {
    // A failed dump must not mask the underlying run failure; the status
    // simply carries no dump path.
  }
}

}  // namespace

CheckedRun run_parallel_checked(const MultiTraceSource& sources,
                                BoxScheduler& scheduler,
                                const EngineConfig& config) {
  PPG_CHECK(sources.num_procs() >= 1);
  EngineStepper stepper(scheduler, config);
  for (ProcId i = 0; i < sources.num_procs(); ++i)
    stepper.add_processor(sources.source_ptr(i));
  stepper.start();
  while (stepper.step()) {
  }
  CheckedRun out = stepper.finish();
  maybe_write_dump(sources, scheduler, config, out);
  return out;
}

ParallelRunResult run_parallel(const MultiTraceSource& sources,
                               BoxScheduler& scheduler,
                               const EngineConfig& config) {
  CheckedRun out = run_parallel_checked(sources, scheduler, config);
  if (!out.status.ok()) {
    const std::string text = out.status.error.to_string();
    PPG_CHECK_FMT(false, "%s", text.c_str());
  }
  return out.result;
}

}  // namespace ppg
