#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "green/box_runner.hpp"

namespace perfbench {

void SchedSpans::merge(const SchedSpans& other) {
  next_box_ns += other.next_box_ns;
  next_box_calls += other.next_box_calls;
  notify_ns += other.notify_ns;
  notify_calls += other.notify_calls;
  start_ns += other.start_ns;
  const std::size_t take =
      std::min(other.next_box_samples.size(),
               kMaxNextBoxSamples -
                   std::min(kMaxNextBoxSamples, next_box_samples.size()));
  next_box_samples.insert(next_box_samples.end(),
                          other.next_box_samples.begin(),
                          other.next_box_samples.begin() +
                              static_cast<std::ptrdiff_t>(take));
}

void TraceSpans::merge(const TraceSpans& other) {
  ns += other.ns;
  next_span_calls += other.next_span_calls;
  pages += other.pages;
}

void ReplayTotals::merge(const ReplayTotals& other) {
  run_box_ns += other.run_box_ns;
  boxes += other.boxes;
  requests += other.requests;
  hits += other.hits;
  misses += other.misses;
  max_faults = std::max(max_faults, other.max_faults);
  busy += other.busy;
  box_ticks += other.box_ticks;
}

namespace {

std::uint32_t clamp_ns(std::uint64_t ns) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(ns, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

void TimingScheduler::start(const ppg::SchedulerContext& ctx,
                            const ppg::EngineView& view) {
  const std::uint64_t t0 = now_ns();
  inner_->start(ctx, view);
  spans_.start_ns += now_ns() - t0;
}

BoxAssignment TimingScheduler::next_box(ProcId proc, Time now,
                                        const ppg::EngineView& view) {
  const std::uint64_t t0 = now_ns();
  const BoxAssignment box = inner_->next_box(proc, now, view);
  const std::uint64_t ns = now_ns() - t0;
  spans_.next_box_ns += ns;
  ++spans_.next_box_calls;
  if (spans_.next_box_samples.size() < kMaxNextBoxSamples)
    spans_.next_box_samples.push_back(clamp_ns(ns));
  return box;
}

void TimingScheduler::notify_finished(ProcId proc, Time now,
                                      const ppg::EngineView& view) {
  const std::uint64_t t0 = now_ns();
  inner_->notify_finished(proc, now, view);
  spans_.notify_ns += now_ns() - t0;
  ++spans_.notify_calls;
}

void TimingScheduler::notify_arrived(ProcId proc, Time now,
                                     const ppg::EngineView& view) {
  const std::uint64_t t0 = now_ns();
  inner_->notify_arrived(proc, now, view);
  spans_.notify_ns += now_ns() - t0;
  ++spans_.notify_calls;
}

void TimingScheduler::notify_departed(ProcId proc, Time now,
                                      const ppg::EngineView& view) {
  const std::uint64_t t0 = now_ns();
  inner_->notify_departed(proc, now, view);
  spans_.notify_ns += now_ns() - t0;
  ++spans_.notify_calls;
}

namespace {

class TimingCursor final : public ppg::TraceCursor {
 public:
  TimingCursor(std::unique_ptr<ppg::TraceCursor> inner, TraceSpans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::uint64_t position() const override { return inner_->position(); }
  bool done() const override { return inner_->done(); }
  ppg::PageId peek() override { return inner_->peek(); }
  void advance() override { inner_->advance(); }
  ppg::CursorCheckpoint checkpoint() const override {
    return inner_->checkpoint();
  }
  void rewind(const ppg::CursorCheckpoint& cp) override { inner_->rewind(cp); }
  std::size_t next_span(ppg::PageId* out, std::size_t max) override {
    const std::uint64_t t0 = now_ns();
    const std::size_t n = inner_->next_span(out, max);
    spans_.ns += now_ns() - t0;
    ++spans_.next_span_calls;
    spans_.pages += n;
    return n;
  }

 private:
  std::unique_ptr<ppg::TraceCursor> inner_;
  TraceSpans& spans_;
};

class TimingSource final : public ppg::TraceSource {
 public:
  TimingSource(std::shared_ptr<const ppg::TraceSource> inner,
               TraceSpans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::uint64_t num_requests() const override {
    return inner_->num_requests();
  }
  std::unique_ptr<ppg::TraceCursor> cursor() const override {
    const std::uint64_t t0 = now_ns();
    auto cursor = std::make_unique<TimingCursor>(inner_->cursor(), spans_);
    spans_.ns += now_ns() - t0;
    return cursor;
  }
  const ppg::Trace* materialized() const override {
    return inner_->materialized();
  }

 private:
  std::shared_ptr<const ppg::TraceSource> inner_;
  TraceSpans& spans_;
};

}  // namespace

std::shared_ptr<const ppg::TraceSource> timing_source(
    std::shared_ptr<const ppg::TraceSource> inner, TraceSpans& spans) {
  return std::make_shared<const TimingSource>(std::move(inner), spans);
}

ppg::MultiTraceSource timing_sources(const ppg::MultiTraceSource& inner,
                                     TraceSpans& spans) {
  ppg::MultiTraceSource out;
  for (ProcId i = 0; i < inner.num_procs(); ++i)
    out.add(timing_source(inner.source_ptr(i), spans));
  return out;
}

ProcReplay replay_boxes(const ppg::TraceSource& source,
                        const std::vector<BoxAssignment>& boxes,
                        Time miss_cost, ReplayTotals& totals) {
  const std::uint64_t t0 = now_ns();
  ppg::BoxRunner runner(source, miss_cost);
  Time busy = 0;
  Time ticks = 0;
  std::uint64_t requests = 0;
  for (const BoxAssignment& box : boxes) {
    const ppg::BoxStepResult step =
        runner.run_box(box.height, box.end - box.start, box.fresh);
    busy += step.busy_time;
    ticks += box.end - box.start;
    requests += step.requests_completed;
  }
  totals.run_box_ns += now_ns() - t0;
  totals.boxes += boxes.size();
  totals.requests += requests;
  totals.hits += runner.total_hits();
  totals.misses += runner.total_misses();
  totals.max_faults = std::max(totals.max_faults, runner.total_misses());
  totals.busy += busy;
  totals.box_ticks += ticks;
  return {runner.total_hits(), runner.total_misses(), runner.finished()};
}

RunReplay record_and_replay(const ppg::MultiTraceSource& sources,
                            ppg::BoxScheduler& scheduler, ppg::EngineConfig ec,
                            TraceSpans& trace, ReplayTotals& totals) {
  BoxLog log;
  ec.on_box = box_recorder(log);
  const ppg::CheckedRun run = ppg::run_parallel_checked(sources, scheduler, ec);
  ReplayTotals replayed;
  bool finished = true;
  log.resize(sources.num_procs());
  for (ProcId proc = 0; proc < sources.num_procs(); ++proc) {
    const auto source = timing_source(sources.source_ptr(proc), trace);
    finished = replay_boxes(*source, log[proc], ec.miss_cost, replayed)
                   .finished &&
               finished;
  }
  totals.merge(replayed);
  return {run.status.ok() && finished && replayed.hits == run.result.hits &&
              replayed.misses == run.result.misses &&
              replayed.boxes == run.result.num_boxes,
          run.result.effective_augmentation};
}

ppg::Height peak_concurrent_height(const BoxLog& log,
                                   const std::vector<Time>& completed) {
  std::vector<std::pair<Time, std::int64_t>> timeline;
  for (ProcId proc = 0; proc < log.size(); ++proc)
    for (const BoxAssignment& box : log[proc]) {
      const auto height = static_cast<std::int64_t>(box.height);
      timeline.emplace_back(box.start, height);
      timeline.emplace_back(std::min(box.end, completed[proc]), -height);
    }
  // Deallocations before allocations at equal times, as the engine sorts.
  std::sort(timeline.begin(), timeline.end());
  std::int64_t current = 0;
  std::int64_t peak = 0;
  for (const auto& [t, delta] : timeline) {
    current += delta;
    peak = std::max(peak, current);
  }
  return static_cast<ppg::Height>(peak);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (word >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

void digest_run(Digest& digest, const ppg::RunStatus& status,
                const ppg::ParallelRunResult& result) {
  digest.add(static_cast<std::uint64_t>(status.error.code));
  digest.add(result.makespan);
  for (const Time c : result.completion) digest.add(c);
  digest.add(result.hits);
  digest.add(result.misses);
  digest.add(result.num_boxes);
  digest.add(result.total_stall);
  digest.add(static_cast<std::uint64_t>(result.total_impact));
  digest.add(result.peak_concurrent_height);
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
