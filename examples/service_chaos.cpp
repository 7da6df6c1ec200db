// service_chaos: tenant fault-isolation soak and determinism gate.
//
// One fixed submission sequence of --tenants tenants, a seeded fraction of
// which carry an injected trace fault (rotating through the INJECT-TRACE
// classes: fail, hostile-page, torn-span, stall). The binary runs the
// sequence twice — faulty fraction 0 and f — under the STATIC scheduler,
// whose box cadence is independent of the active set, and then proves
// isolation:
//
//   * every HEALTHY tenant's outcome (terminal state, admission time,
//     completion time, hits, misses) is byte-identical across both legs —
//     faulty neighbours change nothing;
//   * every FAULTY tenant lands in the terminal state its fault class
//     dictates (fail/hostile-page → quarantined corrupt-trace, stall →
//     quarantined tenant-budget-exceeded, torn-span → completed early);
//   * no leg fails run-wide: containment means the service stays up.
//
// scripts/tier1.sh runs 10^5 tenants as a hard gate (plus an ASan
// variant); ctest runs a short version as an example smoke test.
//
// Usage: service_chaos [--tenants N] [--n REQUESTS_PER_TENANT] [--k CACHE]
//                      [--s COST] [--faulty-permille M] [--gap TICKS]
//                      [--seed SEED]
//
// Exits 0 when every gate holds, 1 otherwise.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler_factory.hpp"
#include "service/paging_service.hpp"
#include "trace/fault_source.hpp"
#include "trace/generators.hpp"
#include "util/arg_parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace ppg;

struct Options {
  std::uint64_t tenants = 2000;
  std::size_t n = 48;
  Height k = 32;
  Time s = 8;
  std::uint64_t faulty_permille = 100;
  Time gap = 2;
  std::uint64_t seed = 1;
};

/// Deterministic per-tenant request stream, identical in every leg.
std::shared_ptr<const TraceSource> tenant_source(std::uint64_t index,
                                                 const Options& opt) {
  const Rng rng(opt.seed * 1000003 + index);
  switch (index % 3) {
    case 0: return gen::cyclic_source(/*num_pages=*/17, opt.n);
    case 1: return gen::zipf_source(/*num_pages=*/64, opt.n, /*theta=*/0.9, rng);
    default: return gen::single_use_source(opt.n);
  }
}

/// Seeded faulty set: a pure function of (seed, index), so the faulty legs
/// agree on exactly which tenants are hostile.
bool is_faulty(std::uint64_t index, const Options& opt) {
  Rng rng(opt.seed * 7919 + index * 31 + 5);
  return rng.next_double() * 1000.0 < static_cast<double>(opt.faulty_permille);
}

TraceFaultClass fault_class(std::uint64_t index) {
  switch (index % 4) {
    case 0: return TraceFaultClass::kFail;
    case 1: return TraceFaultClass::kHostilePage;
    case 2: return TraceFaultClass::kTornSpan;
    default: return TraceFaultClass::kStall;
  }
}

struct LegResult {
  std::vector<TenantOutcome> outcomes;
  ServiceMetrics metrics;
};

LegResult run_leg(const Options& opt, bool with_faults) {
  const auto scheduler = make_scheduler(SchedulerKind::kStatic, opt.seed);
  ServiceConfig sc;
  sc.cache_size = opt.k;
  sc.miss_cost = opt.s;
  // No backpressure: the submission (and hence admission) sequence must be
  // identical across legs, so nothing may be rejected or shed.
  sc.admission_queue_limit = static_cast<std::size_t>(opt.tenants) + 1;
  // The watchdog that evicts stalled tenants. Identical in every leg (so
  // it cannot perturb the comparison) and far above any healthy tenant's
  // box count at these trace lengths.
  sc.tenant_event_budget = 4 * static_cast<std::uint64_t>(opt.n) + 16;
  PagingService service(*scheduler, sc);

  for (std::uint64_t i = 0; i < opt.tenants; ++i) {
    auto source = tenant_source(i, opt);
    if (with_faults && is_faulty(i, opt)) {
      TraceFaultSpec spec;
      spec.fault = fault_class(i);
      spec.at = opt.n / 2 + i % 7;  // Always inside the trace.
      source = make_fault_injecting_source(std::move(source), spec);
    }
    const auto id = service.submit(std::move(source), opt.gap * i);
    if (!id) {
      throw_error(ErrorCode::kInternal,
                  "submission " + std::to_string(i) +
                      " rejected despite an uncapped queue");
    }
  }
  service.run_until_idle();
  if (!service.status().ok()) throw PpgException(service.status().error);

  LegResult leg;
  leg.metrics = service.metrics();
  leg.outcomes.reserve(opt.tenants);
  for (std::uint64_t t = 0; t < opt.tenants; ++t)
    leg.outcomes.push_back(service.outcome(static_cast<TenantId>(t)));
  return leg;
}

bool same_outcome(const TenantOutcome& a, const TenantOutcome& b) {
  return a.terminal == b.terminal && a.admitted == b.admitted &&
         a.completed == b.completed && a.hits == b.hits &&
         a.misses == b.misses && a.error.code == b.error.code;
}

bool faulty_outcome_ok(const TenantOutcome& o, TraceFaultClass fault) {
  switch (fault) {
    case TraceFaultClass::kFail:
    case TraceFaultClass::kHostilePage:
      return o.terminal == TenantTerminal::kQuarantined &&
             o.error.code == ErrorCode::kCorruptTrace;
    case TraceFaultClass::kTornSpan:
      // The trace ends early but cleanly: a short, successful run.
      return o.terminal == TenantTerminal::kCompleted;
    case TraceFaultClass::kStall:
      return o.terminal == TenantTerminal::kQuarantined &&
             o.error.code == ErrorCode::kTenantBudgetExceeded;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    Options opt;
    opt.tenants = args.get_count("tenants", 2000);
    opt.n = args.get_count("n", 48);
    opt.k = static_cast<Height>(args.get_count("k", 32, 1));
    opt.s = args.get_count("s", 8, 1);
    opt.faulty_permille = args.get_count("faulty-permille", 100);
    opt.gap = args.get_count("gap", 2);
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    if (const auto unused = args.unused_keys(); !unused.empty()) {
      std::fprintf(stderr, "service_chaos: unknown option --%s\n",
                   unused.front().c_str());
      return 1;
    }

    std::printf("service_chaos: tenants=%llu n=%zu k=%u s=%llu "
                "faulty-permille=%llu\n",
                static_cast<unsigned long long>(opt.tenants), opt.n, opt.k,
                static_cast<unsigned long long>(opt.s),
                static_cast<unsigned long long>(opt.faulty_permille));

    const LegResult baseline = run_leg(opt, /*with_faults=*/false);
    const LegResult leg = run_leg(opt, /*with_faults=*/true);

    std::uint64_t faulty_count = 0, healthy_mismatch = 0, faulty_bad = 0;
    for (std::uint64_t i = 0; i < opt.tenants; ++i) {
      if (is_faulty(i, opt)) {
        ++faulty_count;
        if (!faulty_outcome_ok(leg.outcomes[i], fault_class(i)))
          ++faulty_bad;
      } else if (!same_outcome(leg.outcomes[i], baseline.outcomes[i])) {
        ++healthy_mismatch;
      }
    }
    std::printf(
        "leg faulty completed=%llu quarantined=%llu health=%s events=%llu\n",
        static_cast<unsigned long long>(leg.metrics.completed),
        static_cast<unsigned long long>(leg.metrics.quarantined),
        leg.metrics.health == ServiceHealth::kDegraded ? "degraded"
                                                       : "healthy",
        static_cast<unsigned long long>(leg.metrics.events_consumed));
    if (healthy_mismatch != 0 || faulty_bad != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu healthy tenants diverged from the clean run, "
                   "%llu faulty tenants landed in the wrong terminal state\n",
                   static_cast<unsigned long long>(healthy_mismatch),
                   static_cast<unsigned long long>(faulty_bad));
      return 1;
    }

    std::printf("service_chaos OK: %llu healthy tenants byte-identical "
                "across faulty-fraction {0,%llu permille}; %llu faulty "
                "tenants contained\n",
                static_cast<unsigned long long>(opt.tenants - faulty_count),
                static_cast<unsigned long long>(opt.faulty_permille),
                static_cast<unsigned long long>(faulty_count));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_chaos: %s\n", e.what());
    return 1;
  }
}
