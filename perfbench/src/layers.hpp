// Host-time spans around the library's layers, taken from outside src/.
//
// The traced run wraps the scheduler and the trace sources in forwarding
// decorators that time every call into them, and re-runs recorded boxes
// through BoxRunner (the box replay) to time box simulation on its own.
// Nothing here changes what the library computes: the decorators forward
// every call verbatim (including materialized(), so the dense BoxRunner path
// is still chosen), which the self-test checks by comparing digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler.hpp"
#include "util/error.hpp"
#include "trace/trace_source.hpp"
#include "util/types.hpp"

namespace perfbench {

using ppg::BoxAssignment;
using ppg::ProcId;
using ppg::Time;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// next_box durations kept for percentiles; later calls are only summed.
constexpr std::size_t kMaxNextBoxSamples = std::size_t{1} << 20;

/// Time spent in one BoxScheduler, by hook.
struct SchedSpans {
  std::uint64_t next_box_ns = 0;
  std::uint64_t next_box_calls = 0;
  std::uint64_t notify_ns = 0;
  std::uint64_t notify_calls = 0;
  std::uint64_t start_ns = 0;
  /// ns per next_box call, for the first kMaxNextBoxSamples calls.
  std::vector<std::uint32_t> next_box_samples;

  std::uint64_t total_ns() const { return next_box_ns + notify_ns + start_ns; }
  void merge(const SchedSpans& other);
};

/// Time spent pulling requests from trace cursors.
struct TraceSpans {
  std::uint64_t ns = 0;  ///< cursor() creation plus next_span() calls.
  std::uint64_t next_span_calls = 0;
  std::uint64_t pages = 0;

  void merge(const TraceSpans& other);
};

/// Forwarding BoxScheduler decorator that times every hook into `spans`.
class TimingScheduler final : public ppg::BoxScheduler {
 public:
  TimingScheduler(std::unique_ptr<ppg::BoxScheduler> inner, SchedSpans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void start(const ppg::SchedulerContext& ctx,
             const ppg::EngineView& view) override;
  BoxAssignment next_box(ProcId proc, Time now,
                         const ppg::EngineView& view) override;
  void notify_finished(ProcId proc, Time now,
                       const ppg::EngineView& view) override;
  void notify_arrived(ProcId proc, Time now,
                      const ppg::EngineView& view) override;
  void notify_departed(ProcId proc, Time now,
                       const ppg::EngineView& view) override;
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ppg::BoxScheduler> inner_;
  SchedSpans& spans_;
};

/// Forwarding TraceSource decorator: its cursors time next_span() into
/// `spans`, which must outlive every cursor taken from the source.
std::shared_ptr<const ppg::TraceSource> timing_source(
    std::shared_ptr<const ppg::TraceSource> inner, TraceSpans& spans);

ppg::MultiTraceSource timing_sources(const ppg::MultiTraceSource& inner,
                                     TraceSpans& spans);

/// Boxes an engine issued, per processor, in issue order.
using BoxLog = std::vector<std::vector<BoxAssignment>>;

/// An EngineConfig::on_box observer appending to `log`.
inline auto box_recorder(BoxLog& log) {
  return [&log](ProcId proc, const BoxAssignment& box) {
    if (log.size() <= proc) log.resize(proc + 1);
    log[proc].push_back(box);
  };
}

/// What replaying one processor's boxes produced.
struct ReplayTotals {
  std::uint64_t run_box_ns = 0;  ///< Host time in BoxRunner (ctor, run_box).
  std::uint64_t boxes = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t max_faults = 0;  ///< Largest per-processor miss count.
  Time busy = 0;                 ///< Ticks spent serving requests.
  Time box_ticks = 0;            ///< Sum of box durations.

  void merge(const ReplayTotals& other);
};

/// Per-processor result of a replay, to compare with the engine's counts.
struct ProcReplay {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool finished = false;
};

/// Re-runs `boxes` through a fresh BoxRunner on `source`, timing the runner.
ProcReplay replay_boxes(const ppg::TraceSource& source,
                        const std::vector<BoxAssignment>& boxes,
                        Time miss_cost, ReplayTotals& totals);

/// What record_and_replay found.
struct RunReplay {
  bool matches = false;  ///< Run ok and the replay reproduced its counts.
  double xi = 0;         ///< The run's effective augmentation.
};

/// Runs `sources` under `scheduler` and `ec` recording every box, replays
/// each processor's boxes through BoxRunner (cursor time into `trace`) and
/// adds the replay to `totals`. Matches when the run succeeded and every
/// processor finished with the engine's hits, misses and box count.
RunReplay record_and_replay(const ppg::MultiTraceSource& sources,
                            ppg::BoxScheduler& scheduler, ppg::EngineConfig ec,
                            TraceSpans& trace, ReplayTotals& totals);

/// Peak sum of the heights of boxes in use at once, as the engine's memory
/// timeline computes it: a processor's boxes end no later than its
/// completion time `completed[proc]`.
ppg::Height peak_concurrent_height(const BoxLog& log,
                                   const std::vector<Time>& completed);

/// Value at quantile q in [0, 1] (nearest rank); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// FNV-1a over 64-bit words: the digest of a workload's simulated outputs.
class Digest {
 public:
  void add(std::uint64_t word);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Adds a run's status code and every integer output of its result.
void digest_run(Digest& digest, const ppg::RunStatus& status,
                const ppg::ParallelRunResult& result);

/// A digest as 16 lowercase hex digits, the form digests.json pins.
std::string digest_hex(std::uint64_t digest);

}  // namespace perfbench
