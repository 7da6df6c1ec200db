// service_sim: multi-tenant paging-service soak.
//
// Drives PagingService with a stream of lightweight tenants — Poisson
// arrivals by default, adversarial bursts or an all-at-t0 batch on request
// — submitting lazily against the bounded admission queue so the process
// footprint stays O(active tenants), not O(all tenants). scripts/tier1.sh
// runs 10^5 tenants under a hard `ulimit -v` to gate the service layer's
// memory discipline; ctest runs short variants as ordinary example smoke
// tests.
//
// Usage: service_sim [--tenants N] [--n REQUESTS_PER_TENANT] [--k CACHE]
//                    [--s COST] [--arrivals poisson|burst|t0]
//                    [--mean-gap TICKS] [--burst N] [--queue-limit N]
//                    [--admission-policy fifo-reject|shed-oldest|shed-largest]
//                    [--depart-every N] [--scheduler NAME] [--seed SEED]
//                    [--max-rss-mb LIMIT]
//
// --depart-every N force-departs every N-th tenant shortly after
// submission, exercising the cancel paths under load.
//
// A refused submission (full queue under fifo-reject, or a newcomer the
// shed-largest policy turns away) is retried through a bounded
// exponential-backoff helper: each refusal steps the service 1, 2, 4, ...
// up to 256 times to drain room before the next attempt, so every tenant
// is eventually admitted and the exit gate stays exact.
//
// Exits 0 when every tenant leaves the system (and peak RSS is within
// --max-rss-mb if given), 1 otherwise.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler_factory.hpp"
#include "service/paging_service.hpp"
#include "trace/generators.hpp"
#include "util/arg_parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace ppg;

/// Peak resident set size of this process, in MiB (Linux reports KiB).
long peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024;
}

/// Per-tenant request stream: a deterministic rotation over the generator
/// families so the mix exercises cyclic reuse, skew, phase changes, and
/// pure pollution. Cursors are O(1), so a tenant costs memory only while
/// active.
std::shared_ptr<const TraceSource> tenant_source(std::uint64_t index,
                                                 std::size_t n,
                                                 std::uint64_t seed) {
  const Rng rng(seed * 1000003 + index);
  switch (index % 4) {
    case 0: return gen::cyclic_source(/*num_pages=*/17, n);
    case 1: return gen::zipf_source(/*num_pages=*/64, n, /*theta=*/0.9, rng);
    case 2:
      return gen::sawtooth_source(/*hot=*/4, /*cold=*/32,
                                  /*burst_len=*/std::max<std::size_t>(1, n / 4),
                                  /*num_bursts=*/4, rng);
    default: return gen::single_use_source(n);
  }
}

enum class ArrivalModel { kPoisson, kBurst, kT0 };

/// Submits with bounded exponential backoff against a refusing queue: each
/// refusal counts as a retry and drains the service with a doubling number
/// of steps (1 -> 256 cap) before the next attempt. Returns nullopt only
/// if the service refuses while already idle — a permanent rejection no
/// amount of draining can fix (e.g. shed-largest turning away the largest
/// tenant on a full queue).
std::optional<TenantId> submit_with_backoff(
    PagingService& service, std::shared_ptr<const TraceSource> source,
    Time arrival, std::uint64_t& retried) {
  std::uint64_t steps = 1;
  for (;;) {
    if (const auto id = service.submit(source, arrival)) return id;
    ++retried;
    bool progressed = false;
    for (std::uint64_t i = 0; i < steps && service.status().ok(); ++i)
      progressed = service.step() || progressed;
    if (!progressed) return std::nullopt;
    steps = std::min<std::uint64_t>(steps * 2, 256);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    const std::uint64_t tenants = args.get_count("tenants", 2000);
    const std::size_t n = args.get_count("n", 64);
    const auto mean_gap = static_cast<double>(args.get_count("mean-gap", 4));
    const std::uint64_t burst = args.get_count("burst", 256, 1);
    const std::uint64_t depart_every = args.get_count("depart-every", 0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto max_rss_mb = static_cast<long>(args.get_count("max-rss-mb", 0));
    const std::string arrivals_name = args.get_string("arrivals", "poisson");

    ArrivalModel model = ArrivalModel::kPoisson;
    if (arrivals_name == "burst") model = ArrivalModel::kBurst;
    else if (arrivals_name == "t0") model = ArrivalModel::kT0;
    else if (arrivals_name != "poisson")
      throw_error(ErrorCode::kBadInput,
                  "--arrivals must be poisson, burst, or t0");

    const std::string scheduler_name = args.get_string("scheduler", "DET-PAR");
    const auto kind = parse_scheduler_kind(scheduler_name);
    if (!kind)
      throw_error(ErrorCode::kBadInput,
                  "unknown scheduler '" + scheduler_name + "'");
    const auto scheduler = make_scheduler(*kind, seed);

    ServiceConfig sc;
    sc.cache_size = static_cast<Height>(args.get_count("k", 64, 1));
    sc.miss_cost = args.get_count("s", 8, 1);
    sc.admission_queue_limit = args.get_count("queue-limit", 4096, 1);
    const std::string policy_name =
        args.get_string("admission-policy", "fifo-reject");
    if (const auto policy = parse_admission_policy(policy_name))
      sc.admission_policy = *policy;
    else
      throw_error(ErrorCode::kBadInput,
                  "--admission-policy must be fifo-reject, shed-oldest, or "
                  "shed-largest (got '" + policy_name + "')");
    if (const auto unused = args.unused_keys(); !unused.empty())
      throw_error(ErrorCode::kBadInput,
                  "unknown option --" + unused.front());
    PagingService service(*scheduler, sc);

    std::printf(
        "service_sim: tenants=%llu n/tenant=%zu k=%u s=%llu arrivals=%s "
        "scheduler=%s\n",
        static_cast<unsigned long long>(tenants), n, sc.cache_size,
        static_cast<unsigned long long>(sc.miss_cost), arrivals_name.c_str(),
        scheduler->name());

    // Arrival clock: Poisson draws exponential inter-arrival gaps, burst
    // drops `burst` tenants at one instant then jumps a long gap, t0 puts
    // everything at time zero (the batch-equivalent cohort).
    Rng arrival_rng(seed);
    Time next_arrival = 0;
    std::uint64_t submitted = 0;
    const auto advance_arrival = [&] {
      switch (model) {
        case ArrivalModel::kPoisson:
          next_arrival += static_cast<Time>(std::llround(
              -std::log(1.0 - arrival_rng.next_double()) * mean_gap));
          break;
        case ArrivalModel::kBurst:
          if (submitted % burst == 0)
            next_arrival +=
                static_cast<Time>(mean_gap * static_cast<double>(burst));
          break;
        case ArrivalModel::kT0:
          break;
      }
    };

    // Submit lazily against the bounded queue: the backoff helper drains
    // the service between attempts, so total live state stays O(queue +
    // active), independent of --tenants.
    std::uint64_t retried = 0;
    std::uint64_t refused = 0;
    while (submitted < tenants || !service.idle()) {
      while (submitted < tenants) {
        const auto id = submit_with_backoff(
            service, tenant_source(submitted, n, seed), next_arrival, retried);
        ++submitted;
        if (!id) {
          ++refused;  // Permanently rejected even against an idle service.
        } else if (depart_every > 0 && submitted % depart_every == 0) {
          // Depart a slightly older tenant — usually admitted by now, so
          // this exercises the mid-run cancel path (a brand-new tenant
          // would still be queued).
          service.depart(static_cast<TenantId>(*id >= 8 ? *id - 8 : *id));
        }
        advance_arrival();
      }
      if (!service.step() && !service.status().ok()) {
        std::fprintf(stderr, "service_sim: engine failed: %s\n",
                     service.status().error.message.c_str());
        return 1;
      }
    }

    const ServiceMetrics m = service.metrics();
    const long rss = peak_rss_mb();
    std::printf(
        "submitted=%llu rejected=%llu completed=%llu departed=%llu "
        "quarantined=%llu shed=%llu retried=%llu now=%llu events=%llu\n",
        static_cast<unsigned long long>(m.submitted),
        static_cast<unsigned long long>(m.rejected),
        static_cast<unsigned long long>(m.completed),
        static_cast<unsigned long long>(m.departed),
        static_cast<unsigned long long>(m.quarantined),
        static_cast<unsigned long long>(m.shed),
        static_cast<unsigned long long>(retried),
        static_cast<unsigned long long>(m.now),
        static_cast<unsigned long long>(m.events_consumed));
    std::printf("max_faults=%llu mean_latency=%.1f peak_rss_mb=%ld\n",
                static_cast<unsigned long long>(m.max_faults),
                m.mean_completion_latency, rss);
    std::printf("latency log2-histogram: %s\n",
                m.completion_latency.to_string().c_str());
    std::printf("faults  log2-histogram: %s\n",
                m.fault_counts.to_string().c_str());

    const std::uint64_t finished = m.completed + m.departed + m.quarantined;
    if (finished + refused != tenants) {
      std::fprintf(stderr, "FAIL: %llu of %llu tenants finished\n",
                   static_cast<unsigned long long>(finished),
                   static_cast<unsigned long long>(tenants));
      return 1;
    }
    if (max_rss_mb > 0 && rss > max_rss_mb) {
      std::fprintf(stderr, "FAIL: peak RSS %ld MB exceeds limit %ld MB\n",
                   rss, max_rss_mb);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_sim: %s\n", e.what());
    return 1;
  }
}
