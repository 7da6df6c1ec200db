// perfbench: one workload of the parallel-paging benchmark, end to end.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect-digest HEX] [--commit ID]
//
// Builds the workload's inputs from the seed, then runs whole passes over
// them for S seconds. Every pass is checked: each run's status and request
// count, and a digest of every simulated output, which must repeat on every
// pass and equal HEX when given. An untraced run rebuilds the inputs between
// passes too; setup_s is the median of every build. The last stdout line is
// one JSON object
//   {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run spends half its time untraced and half with the
// timing decorators on, then replays one pass's boxes (see layers.hpp).
// Exits 1 when any check failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up is timed in slices of at least one build and this many seconds:
/// one before the first pass and, in an untraced run, one after every pass.
/// Spread over the run, the samples see the host the passes see, not just
/// its state in the run's first second.
constexpr double kSetupSliceSeconds = 0.05;

/// Times Workload::setup; setup_s is the median of all samples.
struct SetupTimer {
  Workload& workload;
  std::uint64_t seed;
  std::vector<double> samples;

  void slice() {
    double spent = 0;
    do {
      const std::uint64_t t0 = now_ns();
      workload.setup(seed);
      samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      spent += samples.back();
    } while (spent < kSetupSliceSeconds);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expect_digest;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--expect-digest") {
      args.expect_digest = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Passes of one kind (untraced or traced) and what they agree on.
struct Passes {
  std::vector<PassResult> runs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Peak RSS through set-up and the first pass. Later passes reuse the
  /// library's memory but grow the benchmark's own sample vectors.
  double peak_rss_mb = 0;

  double median_rate() const {
    std::vector<double> rates;
    for (const PassResult& r : runs)
      rates.push_back(ratio(static_cast<double>(r.requests),
                            static_cast<double>(r.wall_ns) / 1e9));
    return median(rates);
  }
  std::vector<double> all(std::vector<double> PassResult::*field) const {
    std::vector<double> out;
    for (const PassResult& r : runs)
      out.insert(out.end(), (r.*field).begin(), (r.*field).end());
    return out;
  }
};

/// Runs passes until `seconds` have elapsed (at least `min_passes`), with a
/// set-up slice after each pass when `setup` is non-null. A pass whose
/// digest differs from `digest` (set by the first pass when zero) counts
/// all its operations as failed.
Passes run_passes(Workload& w, double seconds, std::size_t min_passes,
                  Layers* layers, SetupTimer* setup, std::uint64_t& digest) {
  Passes out;
  const std::uint64_t t_begin = now_ns();
  while (out.runs.size() < min_passes ||
         static_cast<double>(now_ns() - t_begin) / 1e9 < seconds) {
    PassResult r = w.pass(layers);
    if (digest == 0) digest = r.digest;
    out.attempted += r.attempted;
    out.failed += r.digest == digest ? r.failed : r.attempted;
    if (layers != nullptr) ++layers->passes;
    out.runs.push_back(std::move(r));
    if (out.runs.size() == 1) out.peak_rss_mb = max_rss_mb();
    if (setup != nullptr) setup->slice();
  }
  return out;
}

Metrics end_to_end(const Passes& passes, double setup_s) {
  const std::vector<double> latency = passes.all(&PassResult::latency_ms);
  return {
      {"requests_per_s", {passes.median_rate(), "1/s"}},
      {"latency_ms_p50", {quantile(latency, 0.5), "ms"}},
      {"latency_ms_p90", {quantile(latency, 0.9), "ms"}},
      {"peak_rss_mb", {passes.peak_rss_mb, "MB"}},
      {"setup_s", {setup_s, "s"}},
  };
}

double d(std::uint64_t v) { return static_cast<double>(v); }

Metrics per_layer(const Sizes& sizes, const Passes& plain,
                  const Passes& traced, const Layers& l) {
  const double passes = d(std::max<std::uint64_t>(1, l.passes));
  const auto per_pass = [&](std::uint64_t v) { return d(v) / passes; };
  const std::vector<double> next_box(l.sched.next_box_samples.begin(),
                                     l.sched.next_box_samples.end());
  const double busy = d(l.busy_ns);

  // Box simulation on its own, from the replay: run_box time net of the
  // cursor time inside it. The engine's self time is what remains of its
  // calls once scheduler, validator, cursors and boxes are taken out. On
  // service_churn the engine is the bare-stepper mirror of the service, and
  // the service's self time is its step time beyond the mirror's, both net
  // of scheduler and cursor time (which dominate and vary run to run).
  const bool mirrored = l.mirror_events > 0;
  const double box_self = d(l.replay.run_box_ns) - d(l.replay_trace.ns);
  const double mirror_rest = d(l.mirror_step_ns) -
                             d(l.mirror_sched.total_ns()) -
                             d(l.mirror_trace.ns);
  const double events = mirrored ? d(l.mirror_events) : per_pass(l.events);
  const double engine_self =
      mirrored ? mirror_rest - box_self
               : per_pass(l.engine_ns) - per_pass(l.sched.total_ns()) -
                     per_pass(l.validate_ns) - per_pass(l.trace.ns) - box_self;
  const double service_self =
      mirrored ? per_pass(l.step_ns) - per_pass(l.sched.total_ns()) -
                     per_pass(l.trace.ns) - mirror_rest
               : 0;

  const PassResult& first = plain.runs.front();
  const std::vector<double> cells = plain.all(&PassResult::cell_ms);
  std::vector<double> efficiency;
  for (const PassResult& r : plain.runs) {
    double cell_total = 0;
    for (const double ms : r.cell_ms) cell_total += ms;
    efficiency.push_back(ratio(
        cell_total, d(r.wall_ns) / 1e6 * d(sweep_jobs(sizes))));
  }
  const std::vector<double> steps_us = plain.all(&PassResult::step_us);

  return {
      {"sched.next_box_calls", {per_pass(l.sched.next_box_calls), "count"}},
      {"sched.next_box_ns_p50", {quantile(next_box, 0.5), "ns"}},
      {"sched.next_box_ns_p99", {quantile(next_box, 0.99), "ns"}},
      {"sched.notify_ns",
       {ratio(d(l.sched.notify_ns), d(l.sched.notify_calls)), "ns"}},
      {"sched.share", {ratio(d(l.sched.total_ns()), busy), "ratio"}},
      {"contract.validate_ns_per_box",
       {ratio(d(l.validate_ns), d(l.validated_boxes)), "ns"}},
      {"engine.events", {events, "count"}},
      {"engine.boxes",
       {mirrored ? d(l.replay.boxes) : per_pass(l.boxes), "count"}},
      {"engine.self_ns_per_event", {ratio(engine_self, events), "ns"}},
      {"service.submit_ns", {ratio(d(l.submit_ns), d(l.submits)), "ns"}},
      {"service.accept_ratio", {ratio(d(l.accepted), d(l.submits)), "ratio"}},
      {"service.peak_active", {d(l.peak_active), "count"}},
      {"service.peak_queued", {d(l.peak_queued), "count"}},
      {"service.self_ns_per_step",
       {ratio(service_self, per_pass(l.steps)), "ns"}},
      {"service.step_us_p50", {quantile(steps_us, 0.5), "us"}},
      {"service.step_us_p99", {quantile(steps_us, 0.99), "us"}},
      {"box.self_ns_per_request",
       {ratio(box_self, d(l.replay.requests)), "ns"}},
      {"box.requests_per_box",
       {ratio(d(l.replay.requests), d(l.replay.boxes)), "count"}},
      {"box.hit_ratio",
       {ratio(d(l.replay.hits), d(l.replay.hits + l.replay.misses)), "ratio"}},
      {"box.busy_frac",
       {ratio(d(l.replay.busy), d(l.replay.box_ticks)), "ratio"}},
      {"trace.next_span_calls", {per_pass(l.trace.next_span_calls), "count"}},
      {"trace.pages_per_span",
       {ratio(d(l.trace.pages), d(l.trace.next_span_calls)), "count"}},
      {"trace.ns_per_request", {ratio(d(l.trace.ns), d(l.trace.pages)), "ns"}},
      {"opt.bounds_s", {per_pass(l.bounds_ns) / 1e9, "s"}},
      {"opt.pack_s", {per_pass(l.pack_ns) / 1e9, "s"}},
      {"opt.share", {ratio(d(l.bounds_ns + l.pack_ns), busy), "ratio"}},
      {"paging.global_lru_ns_per_request",
       {ratio(d(l.global_lru_ns), d(l.global_lru_requests)), "ns"}},
      {"paging.share", {ratio(d(l.global_lru_ns), busy), "ratio"}},
      {"sweep.cells", {d(first.cell_ms.size()), "count"}},
      {"sweep.cell_s_max", {quantile(cells, 1.0) / 1e3, "s"}},
      {"sweep.parallel_efficiency", {median(efficiency), "ratio"}},
      {"sim.makespan", {first.sim.makespan, "ticks"}},
      {"sim.mean_completion", {first.sim.mean_completion, "ticks"}},
      {"sim.fault_rate", {first.sim.fault_rate, "ratio"}},
      {"sim.max_faults", {d(l.sim_max_faults), "count"}},
      {"sim.xi", {l.sim_xi, "ratio"}},
      {"tracing.overhead_frac",
       {1.0 - ratio(traced.median_rate(), plain.median_rate()), "ratio"}},
      {"tracing.unaccounted_frac",
       {1.0 - ratio(d(l.covered_ns), busy), "ratio"}},
  };
}

int run(const Args& args) {
  const Sizes sizes;
  std::unique_ptr<Workload> workload = make_workload(args.workload, sizes);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  SetupTimer setup{*workload, args.seed, {}};
  setup.slice();

  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::size_t passes = 0;
  std::size_t samples = 0;  // Latency samples behind the percentiles.
  if (!args.trace) {
    const Passes plain =
        run_passes(*workload, args.seconds, 3, nullptr, &setup, digest);
    attempted = plain.attempted;
    failed = plain.failed;
    passes = plain.runs.size();
    samples = plain.all(&PassResult::latency_ms).size();
    metrics = end_to_end(plain, median(setup.samples));
  } else {
    const Passes plain =
        run_passes(*workload, args.seconds / 2, 1, nullptr, nullptr, digest);
    Layers layers;
    const Passes traced =
        run_passes(*workload, args.seconds / 2, 1, &layers, nullptr, digest);
    const std::uint64_t mismatches = workload->replay(layers);
    attempted = plain.attempted + traced.attempted + workload->replay_checks();
    failed = plain.failed + traced.failed + mismatches;
    passes = plain.runs.size() + traced.runs.size();
    metrics = per_layer(sizes, plain, traced, layers);
  }
  if (!args.expect_digest.empty() && digest_hex(digest) != args.expect_digest) {
    std::fprintf(stderr, "perfbench: digest %s, expected %s\n",
                 digest_hex(digest).c_str(), args.expect_digest.c_str());
    failed = attempted;
  }

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"sweep_jobs\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"setup_runs\": %zu, \"passes\": %zu, "
      "\"latency_samples\": %zu, \"digest\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), sweep_jobs(sizes),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str(),
      setup.samples.size(), passes, samples, digest_hex(digest).c_str());
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, m] : metrics) {
    if (comma) line += ", ";
    comma = true;
    line += "\"" + name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--expect-digest HEX] [--commit ID]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
