#!/usr/bin/env bash
# Tier-1 verification, in order:
#  - a warnings-as-errors build and the full test suite (which includes
#    the PpgLint.Repo and PpgAnalyze.Repo gates);
#  - the benchmark harness's self-test (perfbench/run.py --selftest), which
#    builds perfbench/ in Release: perfbench subclasses library classes,
#    so a library change that breaks it fails here, not at benchmark time;
#  - the file-backed suites again at ctest -j8 for three rounds (hermetic
#    temp paths);
#  - the static-analysis gate (scripts/static.sh: ppg_lint, ppg_analyze
#    layering / determinism rules, header self-containedness, clang-tidy /
#    cppcheck when available) plus a hard check that both emitted JSON
#    reports are empty;
#  - the robustness tests (fault injection, trace corruption, replay), the
#    engine stepper, the scheduler goldens, DET-PAR's strip windows and
#    phase position table (DetParStrip, DetParPosition) with the
#    multiply-high Divisor they divide by, GLOBAL-LRU with its lanes'
#    kInvalidPage screen (GlobalLru), the generators, the LRU set
#    and every other LruSet user (box runner, the green-OPT brute-force
#    oracle, the LRU policy and its cache-sim equivalence and inclusion
#    suites), the stack-distance passes (StackDistance*,
#    PreviousAccesses), the stack-distance view (StreamingEquivalence,
#    RunInstance), the OPT bounds (OptBounds) and Belady's policy
#    (BeladyPolicyTest), both on the previous-access table, the offline
#    packer (OfflinePacker, FixedHeightCandidates), the green-OPT DP over
#    epoch schedules (GreenOpt*, EpochSchedule, DynamicOpt*), the green
#    pagers' and the greedy check's replays on the previous-access table
#    (RunGreenPaging, DynamicGreen, GreedyCheck), the profile replay
#    (RunProfile) and the policy runner with its canonical-box
#    conservation test (PolicyBoxRunner, InBoxPolicyConservation) again
#    under ASan/UBSan (the event queue's buckets, the Zipf guide table,
#    the LRU index's per-reset probe range, epoch wrap, hashed probe start
#    and backward-shift deletion (LruFlatIndex, also the box runner's shared
#    membership index), the previous-access table's probe, growth and
#    sentinel throw (the kInvalidPage screen of every whole-trace pass), the
#    live-marker shifts and masks on `pos & 63` and their group-index
#    math, the distance loop's raw pointer, the canonical-box scan's
#    signed positions (shared by the rung scans, the DP and the pager
#    replays, which greedy checks run on prefixes of one previous-access
#    table) and the skyline's range erase are exercised there), then
#    parallel_for_index and the sweep executor raced under
#    ThreadSanitizer;
#  - the failure-as-data drill (scripts/chaos.sh: corrupt-trace rows
#    byte-identical at --jobs 1 and max, budget rows structured);
#  - the constant-memory gates (a 10^8-request streamed run and a
#    10^5-tenant service soak, both under a 256 MB address-space cap);
#  - the tenant fault-isolation chaos gate (service_chaos: 10^5 tenants,
#    seeded injected-fault fraction, healthy outcomes byte-identical across
#    fault fraction; a smaller ASan leg runs above);
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

# Scratch files (the chaos gate's report, the perf snapshot) live in one
# private directory, removed on exit, so concurrent runs cannot collide.
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

cmake -B build -S . -DPPG_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

python3 perfbench/run.py --selftest

# Hermeticity leg: the file-backed suites eight at a time, three rounds,
# whatever the core count. gtest_discover_tests runs every case as its own
# process, so two cases sharing a temp file collide here (ppg_lint's
# temp-path rule keeps fixed names out of tests/; this proves the paths
# really are per-case).
(cd build &&
 ctest --output-on-failure -j8 --repeat until-fail:3 --no-tests=error \
       -R 'TraceSource\.|TraceIo|StreamingEquivalence|Replay|StreamingReaderCorruption|ParallelSweep|AtomicFile|RunInstance')

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
         -R 'FaultInjection|Contract|Replay|TraceIoCorruption|RunChecked|Error|AtomicFile|EngineStepper|PagingService|DetParGolden|DetParStrip|DetParPosition|Divisor|GlobalLru|RandParGolden|Generators|LruSet|LruFlatIndex|BoxRunner|GreenOpt|DynamicGreen|DynamicOpt|EpochSchedule|RunProfile|RunGreenPaging|GreedyCheck|PolicyBoxRunner|InBoxPolicyConservation|CacheSimEquivalence|LruPolicyTest|LruInclusion|StackDistance|PreviousAccesses|StreamingEquivalence|RunInstance|OptBounds|BeladyPolicyTest|OfflinePacker|FixedHeightCandidates')

  # Fault-isolation gate under ASan: injected trace faults (fail,
  # hostile-page, torn-span, stall) must quarantine only their own tenant
  # while every healthy tenant's outcome stays byte-identical to the
  # fault-free run.
  "./build-${SAN}/examples-bin/service_chaos" --tenants 5000 \
      --faulty-permille 150 > /dev/null
  echo "ASan fault-isolation gate OK (service_chaos, 5*10^3 tenants)"

  # Race parallel_for_index and the sweep executor under TSan: the
  # determinism suites run every sweep at --jobs 1/2/hardware, so a data
  # race in the parallel path surfaces here even on a single-core host. The
  # engine and service suites stay in the filter because this leg is the
  # only check that would catch a parallel_for_index call added to the
  # engine or the service.
  cmake -B build-thread -S . -DPPG_SANITIZE=thread -DPPG_WERROR=ON \
        -DPPG_BUILD_BENCH=OFF -DPPG_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-thread -j "$(nproc)"
  (cd build-thread &&
   ctest --output-on-failure -j "$(nproc)" --no-tests=error \
         -R 'ParallelForIndex|ParallelSweep|EngineStepper|PagingService')
fi

# Failure-as-data gate: corrupt-trace cells report structured rows that are
# byte-identical between --jobs 1 and --jobs max; budget-exhausted cells
# report structured rows and exit 0.
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
# O(active tenants), not O(submitted).
(
  ulimit -v 262144
  ./build/examples-bin/service_sim --tenants 100000 --depart-every 97 \
      --max-rss-mb 256
)
echo "service soak gate OK (10^5 tenants under 256 MB)"

# Chaos soak gate: 10^5 tenants, a seeded tenth of them carrying injected
# trace faults. The binary itself proves isolation — every healthy tenant's
# outcome byte-identical across faulty-fraction {0, f}, every faulty tenant
# in its fault class's terminal state — and exits non-zero on any
# divergence.
./build/examples-bin/service_chaos --tenants 100000 --faulty-permille 100 \
    > "${TMP_DIR}/service_chaos_gate.txt"
tail -n 1 "${TMP_DIR}/service_chaos_gate.txt"
echo "service chaos gate OK (10^5 tenants, faulty fraction isolated)"

# Perf gate: first prove the gate itself can fail (synthetic injected
# slowdown), then take the quick snapshot, which hard-fails on >15%
# throughput drops vs the committed BENCH_PERF.json (PPG_PERF_GATE=warn
# downgrades on known-noisy hosts; quick-mode repetitions are short, so CI
# wrappers may choose to set it).
scripts/bench_perf.sh --selftest
scripts/bench_perf.sh --quick --out "${TMP_DIR}/bench_perf_ci.json"

echo "tier-1 OK (sanitizer: ${SAN})"
