#!/usr/bin/env bash
# Tier-1 verification, in order:
#  - a warnings-as-errors build and the full test suite (which includes
#    the PpgLint.Repo and PpgAnalyze.Repo gates);
#  - the file-backed suites again at ctest -j8 for three rounds (hermetic
#    temp paths);
#  - the static-analysis gate (scripts/static.sh: ppg_lint, ppg_analyze
#    layering / annotation / determinism rules, header self-containedness,
#    clang -Wthread-safety / clang-tidy / cppcheck when available) plus a
#    hard check that both emitted JSON reports are empty;
#  - the robustness tests (fault injection, trace corruption, replay)
#    again under ASan/UBSan, then the thread pool, sweep executor and
#    threaded engine raced under ThreadSanitizer;
#  - the failure-as-data drill (scripts/chaos.sh: corrupt-trace rows
#    byte-identical serial vs threaded, budget rows structured);
#  - the constant-memory gates (a 10^8-request streamed run and a
#    10^5-tenant service soak, both under a 256 MB address-space cap);
#  - the tenant fault-isolation chaos gate (service_chaos: 10^5 tenants,
#    seeded injected-fault fraction, healthy outcomes byte-identical across
#    fault fraction and thread count; smaller ASan/TSan legs run above);
#  - the perf gate (a self-test proving the gate can fail, followed by the
#    quick snapshot, which checks --jobs byte-identity and hard-fails on
#    >15% throughput drops vs the committed BENCH_PERF.json).
#
# Every filtered ctest leg runs with --no-tests=error, so a filter whose
# suites were renamed away fails instead of passing on zero tests.
#
# PPG_WERROR is ON here by design: a warning regression fails tier-1 even
# though plain developer builds stay permissive.
#
# Usage: scripts/tier1.sh [sanitizer]
#   sanitizer: address (default) | undefined | none
set -euo pipefail
cd "$(dirname "$0")/.."

SAN="${1:-address}"

cmake -B build -S . -DPPG_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

# Hermeticity leg: the file-backed suites eight at a time, three rounds,
# whatever the core count. gtest_discover_tests runs every case as its own
# process, so two cases sharing a temp file collide here (ppg_lint's
# temp-path rule keeps fixed names out of tests/; this proves the paths
# really are per-case).
(cd build &&
 ctest --output-on-failure -j8 --repeat until-fail:3 --no-tests=error \
       -R 'TraceSource\.|TraceIo|StreamingEquivalence|Replay|StreamingReaderCorruption|ParallelSweep|EngineThreads|AtomicFile|RunInstance')

scripts/static.sh --format-check

# The linters exit non-zero on findings (static.sh already failed above if
# so); this re-checks the machine-readable artifacts, so a report-writing
# regression (truncated or stale JSON) cannot slip through silently. A clean
# run always renders the literal `"findings": []`.
for report in build/lint-report.json build/analyze-report.json; do
  grep -q '"findings": \[\]' "${report}" ||
    { echo "tier1: ${report} is missing or non-empty" >&2; exit 1; }
done
echo "lint/analyze JSON reports empty OK"

if [[ "${SAN}" != "none" ]]; then
  cmake -B "build-${SAN}" -S . -DPPG_SANITIZE="${SAN}" -DPPG_WERROR=ON \
        -DPPG_BUILD_BENCH=OFF -DPPG_BUILD_EXAMPLES=ON >/dev/null
  cmake --build "build-${SAN}" -j "$(nproc)"
  (cd "build-${SAN}" &&
   ctest --output-on-failure -j "$(nproc)" --no-tests=error \
         -R 'FaultInjection|Contract|Replay|TraceIoCorruption|RunChecked|Error|AtomicFile|EngineStepper|PagingService')

  # Fault-isolation gate under ASan: injected trace faults (fail,
  # hostile-page, torn-span, stall) must quarantine only their own tenant
  # while every healthy tenant's outcome stays byte-identical to the
  # fault-free run, serial and threaded.
  "./build-${SAN}/examples-bin/service_chaos" --tenants 5000 \
      --faulty-permille 150 > /dev/null
  echo "ASan fault-isolation gate OK (service_chaos, 5*10^3 tenants)"

  # Race the thread pool, sweep executor, and threaded engine under TSan:
  # the determinism suites run every sweep at --jobs 1/2/hardware and every
  # engine at engine_threads 0/2/4/hardware, so a data race in either
  # parallel path surfaces here even on a single-core host.
  cmake -B build-thread -S . -DPPG_SANITIZE=thread -DPPG_WERROR=ON \
        -DPPG_BUILD_BENCH=OFF -DPPG_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-thread -j "$(nproc)"
  (cd build-thread &&
   ctest --output-on-failure -j "$(nproc)" --no-tests=error \
         -R 'ThreadPool|ParallelSweep|EngineThreads|EngineStepper|PagingService')

  # TSan variant of the service soak: race the admission/stepper/fold path
  # end to end with the engine pool maxed. Reduced tenant count and no
  # ulimit — TSan shadow memory needs the address space.
  ./build-thread/examples-bin/service_sim --tenants 10000 --depart-every 97 \
      --engine-threads max > /dev/null
  echo "TSan service soak OK (10^4 tenants, --engine-threads max)"

  # TSan variant of the fault-isolation gate: the contained-failure fold
  # (pending_error slots resolved in pop order) raced at max threads.
  ./build-thread/examples-bin/service_chaos --tenants 5000 \
      --faulty-permille 150 > /dev/null
  echo "TSan fault-isolation gate OK (service_chaos, 5*10^3 tenants)"
fi

# Failure-as-data gate: corrupt-trace cells report structured rows that are
# byte-identical between a serial run and --jobs max --engine-threads max;
# budget-exhausted cells report structured rows and exit 0.
scripts/chaos.sh

# Constant-memory gate: a generator-backed 10^8-request streamed run must
# complete under a hard 256 MB address-space cap (the materialized instance
# alone would be ~800 MB). Runs in a subshell so the ulimit stays local.
(
  ulimit -v 262144
  ./build/examples-bin/stream_smoke --n 100000000 --max-rss-mb 256
)
echo "streaming memory gate OK (10^8 requests under 256 MB)"

# Service soak gate: 10^5 tenants through PagingService (Poisson arrivals,
# periodic departures) under the same 256 MB cap — memory stays
# O(active tenants), not O(submitted). Run serial and with the intra-run
# engine pool maxed; the two must print byte-identical metrics. The
# threaded leg pins glibc to one malloc arena: each per-thread arena
# reserves address space that counts against ulimit -v however little of
# it is touched, so at 4+ cores the reservations alone exceed the cap.
(
  ulimit -v 262144
  ./build/examples-bin/service_sim --tenants 100000 --depart-every 97 \
      --max-rss-mb 256 > /tmp/service_soak_serial.txt
  MALLOC_ARENA_MAX=1 ./build/examples-bin/service_sim --tenants 100000 \
      --depart-every 97 --max-rss-mb 256 --engine-threads max \
      > /tmp/service_soak_threads.txt
)
diff <(tail -n +2 /tmp/service_soak_serial.txt) \
     <(tail -n +2 /tmp/service_soak_threads.txt)
echo "service soak gate OK (10^5 tenants under 256 MB, serial == threaded)"

# Chaos soak gate: 10^5 tenants, a seeded tenth of them carrying injected
# trace faults. The binary itself proves isolation — every healthy tenant's
# outcome byte-identical across faulty-fraction {0, f} and engine-threads
# {0, max}, every faulty tenant in its fault class's terminal state — and
# exits non-zero on any divergence.
./build/examples-bin/service_chaos --tenants 100000 --faulty-permille 100 \
    > /tmp/service_chaos_gate.txt
tail -n 1 /tmp/service_chaos_gate.txt
echo "service chaos gate OK (10^5 tenants, faulty fraction isolated)"

# Perf gate: first prove the gate itself can fail (synthetic injected
# slowdown), then take the quick snapshot, which hard-fails on >15%
# throughput drops vs the committed BENCH_PERF.json (PPG_PERF_GATE=warn
# downgrades on known-noisy hosts; quick-mode repetitions are short, so CI
# wrappers may choose to set it).
scripts/bench_perf.sh --selftest
scripts/bench_perf.sh --quick --out /tmp/bench_perf_ci.json

echo "tier-1 OK (sanitizer: ${SAN})"
