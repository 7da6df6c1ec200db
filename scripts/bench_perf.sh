#!/usr/bin/env bash
# Perf regression gate: snapshots simulator throughput (engine_micro, plus
# the PagingService end-to-end numbers from service_throughput) and the
# reference E4 sweep
# wall time at --jobs 1 vs --jobs max into a machine-readable
# BENCH_PERF.json, verifying on the way that the parallel sweep output is
# byte-identical to the serial one.
#
# After writing the snapshot, compares per-benchmark requests/sec against
# the committed BENCH_PERF.json and FAILS on any drop beyond the threshold
# (default 15%). To filter machine noise, every dropped benchmark is
# re-measured once and the better of the two runs is kept before the final
# verdict.
#
# Usage: scripts/bench_perf.sh [--quick] [--out FILE] [--selftest]
#   --quick     CI mode: shorter benchmark repetitions and the reduced
#               (--quick) E4 sweep; completes in well under a minute.
#   --out       Output path (default: BENCH_PERF.json in the repo root).
#   --selftest  Run the gate logic against synthetic snapshots (an injected
#               slowdown must fail, a flat profile must pass, and a
#               snapshot from another host must only warn); no benchmarks
#               are built or run.
#
# Environment:
#   PPG_PERF_GATE=warn   Downgrade a gate failure to a warning (escape
#                        hatch for known-noisy hosts).
#   PPG_PERF_GATE_PCT=N  Drop threshold in percent (default 15).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
SELFTEST=0
OUT="BENCH_PERF.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --selftest) SELFTEST=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

GATE_PCT="${PPG_PERF_GATE_PCT:-15}"

# gate_compare OLD NEW DROPPED_OUT
# Compares requests_per_sec maps; prints a line per drop beyond GATE_PCT,
# writes the dropped benchmark names (one per line) to DROPPED_OUT, and
# returns nonzero iff any benchmark dropped. Snapshots from different hosts
# (context num_cpus or compiler differ) are not comparable: the mismatch is
# printed and a drop only warns.
gate_compare() {
  OLD_JSON="$1" NEW_JSON="$2" DROPPED_OUT="$3" GATE_PCT="${GATE_PCT}" \
  python3 - <<'PY'
import json, os, sys

with open(os.environ["OLD_JSON"]) as f:
    old_snapshot = json.load(f)
with open(os.environ["NEW_JSON"]) as f:
    new_snapshot = json.load(f)
old = old_snapshot.get("requests_per_sec", {})
new = new_snapshot.get("requests_per_sec", {})
threshold = float(os.environ["GATE_PCT"]) / 100.0

mismatch = [
    f"{key} {old_snapshot.get('context', {}).get(key)!r} -> "
    f"{new_snapshot.get('context', {}).get(key)!r}"
    for key in ("num_cpus", "compiler")
    if old_snapshot.get("context", {}).get(key)
    != new_snapshot.get("context", {}).get(key)
]
if mismatch:
    print("perf gate: host context differs from the committed snapshot ("
          + "; ".join(mismatch) + "); drops only warn")

dropped = []
for name in sorted(old):
    if name not in new or not old[name]:
        continue
    change = new[name] / old[name] - 1.0
    if change < -threshold:
        dropped.append(name)
        print(f"PERF DROP: {name} fell {-change:.0%} "
              f"({old[name]:,} -> {new[name]:,} req/s) vs committed "
              "BENCH_PERF.json")
with open(os.environ["DROPPED_OUT"], "w") as f:
    f.write("".join(n + "\n" for n in dropped))
if not dropped:
    print(f"perf gate: no >{os.environ['GATE_PCT']}% drops across "
          f"{len(set(old) & set(new))} benchmarks")
elif mismatch:
    print(f"WARN: {len(dropped)} drop(s) against a snapshot from another "
          "host; not failing")
sys.exit(1 if dropped and not mismatch else 0)
PY
}

# --- Self-test: prove the gate can fail ----------------------------------
# Synthetic snapshots exercise the comparison logic without benchmark
# noise: a 2x slowdown must fail, an identical profile must pass, and the
# PPG_PERF_GATE=warn escape hatch must downgrade the failure. tier-1 runs
# this so a broken gate (one that silently passes everything) is itself a
# test failure.
if [[ "${SELFTEST}" == "1" ]]; then
  ST_DIR="$(mktemp -d)"
  trap 'rm -rf "${ST_DIR}"' EXIT
  cat >"${ST_DIR}/old.json" <<'JSON'
{"requests_per_sec": {"BM_Synthetic/8": 1000000, "BM_Synthetic/128": 2000000}}
JSON
  cat >"${ST_DIR}/flat.json" <<'JSON'
{"requests_per_sec": {"BM_Synthetic/8": 990000, "BM_Synthetic/128": 2100000}}
JSON
  cat >"${ST_DIR}/slow.json" <<'JSON'
{"requests_per_sec": {"BM_Synthetic/8": 500000, "BM_Synthetic/128": 2000000}}
JSON
  if ! gate_compare "${ST_DIR}/old.json" "${ST_DIR}/flat.json" \
       "${ST_DIR}/dropped"; then
    echo "FAIL: perf gate flagged a flat profile" >&2
    exit 1
  fi
  if gate_compare "${ST_DIR}/old.json" "${ST_DIR}/slow.json" \
     "${ST_DIR}/dropped" >/dev/null; then
    echo "FAIL: perf gate passed an injected 2x slowdown" >&2
    exit 1
  fi
  if [[ "$(cat "${ST_DIR}/dropped")" != "BM_Synthetic/8" ]]; then
    echo "FAIL: perf gate misidentified the dropped benchmark" >&2
    exit 1
  fi
  # A snapshot from another host (num_cpus or compiler differ) must print
  # the mismatch and only warn on the same 2x drop; with a matching context
  # the drop still fails.
  cat >"${ST_DIR}/old_ctx.json" <<'JSON'
{"context": {"num_cpus": 1, "compiler": "c++ 12.2.0"},
 "requests_per_sec": {"BM_Synthetic/8": 1000000}}
JSON
  cat >"${ST_DIR}/slow_ctx.json" <<'JSON'
{"context": {"num_cpus": 4, "compiler": "c++ 12.2.0"},
 "requests_per_sec": {"BM_Synthetic/8": 500000}}
JSON
  cat >"${ST_DIR}/slow_same_ctx.json" <<'JSON'
{"context": {"num_cpus": 1, "compiler": "c++ 12.2.0"},
 "requests_per_sec": {"BM_Synthetic/8": 500000}}
JSON
  if ! gate_compare "${ST_DIR}/old_ctx.json" "${ST_DIR}/slow_ctx.json" \
       "${ST_DIR}/dropped" >"${ST_DIR}/ctx.log"; then
    echo "FAIL: perf gate hard-failed across different hosts" >&2
    exit 1
  fi
  if ! grep -q "num_cpus 1 -> 4" "${ST_DIR}/ctx.log"; then
    echo "FAIL: perf gate did not report the host context mismatch" >&2
    exit 1
  fi
  if gate_compare "${ST_DIR}/old_ctx.json" "${ST_DIR}/slow_same_ctx.json" \
     "${ST_DIR}/dropped" >/dev/null; then
    echo "FAIL: perf gate passed a 2x slowdown on a matching host" >&2
    exit 1
  fi
  # A tighter threshold must catch the mild drop the default lets through.
  if GATE_PCT=0.5 gate_compare "${ST_DIR}/old.json" "${ST_DIR}/flat.json" \
     "${ST_DIR}/dropped" >/dev/null; then
    echo "FAIL: PPG_PERF_GATE_PCT not honoured" >&2
    exit 1
  fi
  echo "perf gate self-test OK (drop detected, flat pass, host mismatch" \
       "warns, threshold env)"
  exit 0
fi

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target engine_micro service_throughput \
  makespan_scaling stream_smoke >/dev/null

MICRO_JSON="$(mktemp)"
SERVICE_JSON="$(mktemp)"
SWEEP_J1="$(mktemp)"
SWEEP_JMAX="$(mktemp)"
trap 'rm -f "${MICRO_JSON}" "${SERVICE_JSON}" "${SWEEP_J1}" "${SWEEP_JMAX}"' EXIT

# --- Microbenchmark throughput (requests/sec) ----------------------------
MIN_TIME=0.5
[[ "${QUICK}" == "1" ]] && MIN_TIME=0.05
# (BM_SchedulerNextBox and the BM_ValidatedEngine / BM_PlainEngine pair
# count boxes, not requests, as their items; BM_RunInstance counts
# requests x schedulers.)
BENCH_FILTER='BM_(LruSetAccess|LruSetAccessStructured|CacheSimLru|BoxRunnerCanonicalBoxes|BoxRunnerDistances|RunInstance|StackDistances|PackOffline|GlobalLru|GlobalLruPolluted|OptBounds|SchedulerNextBox|TraceSpan|ParallelEngine|ValidatedEngine|PlainEngine)'
./build/bench/engine_micro \
  --benchmark_filter="${BENCH_FILTER}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json >"${MICRO_JSON}"

# Service layer end to end (items = requests served, comparable with
# BM_ParallelEngine*); lands in both requests_per_sec (gated like every
# other benchmark) and the dedicated `service` section.
./build/bench/service_throughput \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json >"${SERVICE_JSON}"

# --- Peak RSS: large engine run, streamed vs materialized ----------------
# (no /usr/bin/time in minimal containers: getrusage(RUSAGE_CHILDREN) via
# python gives the child's peak RSS portably)
measure_rss_mb() {
  python3 - "$@" <<'PY'
import resource, subprocess, sys
proc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
if proc.returncode != 0:
    sys.exit(proc.returncode)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
PY
}

RSS_N=20000000
[[ "${QUICK}" == "1" ]] && RSS_N=4000000
RSS_STREAMED="$(measure_rss_mb ./build/examples-bin/stream_smoke --n "${RSS_N}")"
RSS_MATERIALIZED="$(measure_rss_mb ./build/examples-bin/stream_smoke \
  --n "${RSS_N}" --materialize)"
RSS_MICRO="$(measure_rss_mb ./build/bench/engine_micro \
  --benchmark_filter='BM_ParallelEngine/128' --benchmark_min_time=0.05)"
echo "peak RSS at n=${RSS_N}: streamed ${RSS_STREAMED} MB," \
     "materialized ${RSS_MATERIALIZED} MB (engine_micro p=128: ${RSS_MICRO} MB)"

# --- Reference E4 sweep: serial vs parallel wall time --------------------
SWEEP_FLAGS=()
[[ "${QUICK}" == "1" ]] && SWEEP_FLAGS+=(--quick)

now() { python3 -c 'import time; print(time.monotonic())'; }

T0="$(now)"
./build/bench/makespan_scaling "${SWEEP_FLAGS[@]}" --jobs 1 >"${SWEEP_J1}"
T1="$(now)"
./build/bench/makespan_scaling "${SWEEP_FLAGS[@]}" --jobs max >"${SWEEP_JMAX}"
T2="$(now)"

if ! cmp -s "${SWEEP_J1}" "${SWEEP_JMAX}"; then
  echo "FAIL: makespan_scaling output differs between --jobs 1 and --jobs max" >&2
  diff "${SWEEP_J1}" "${SWEEP_JMAX}" >&2 || true
  exit 1
fi
echo "sweep output byte-identical across --jobs values"

# --- Assemble BENCH_PERF.json --------------------------------------------
BUILD_TYPE="$(grep -m1 '^CMAKE_BUILD_TYPE' build/CMakeCache.txt | cut -d= -f2)"
CXX_PATH="$(grep -m1 '^CMAKE_CXX_COMPILER:' build/CMakeCache.txt | cut -d= -f2)"
COMPILER="$("${CXX_PATH}" --version 2>/dev/null | head -1 || echo unknown)"
NUM_CPUS="$(nproc)"

write_snapshot() {  # $1 = micro json path, $2 = service json path
  MICRO_JSON="$1" SERVICE_JSON="$2" OUT="${OUT}" QUICK="${QUICK}" \
  BUILD_TYPE="${BUILD_TYPE}" COMPILER="${COMPILER}" NUM_CPUS="${NUM_CPUS}" \
  T0="${T0}" T1="${T1}" T2="${T2}" \
  RSS_N="${RSS_N}" RSS_STREAMED="${RSS_STREAMED}" \
  RSS_MATERIALIZED="${RSS_MATERIALIZED}" RSS_MICRO="${RSS_MICRO}" \
  python3 - <<'PY'
import json, os

with open(os.environ["MICRO_JSON"]) as f:
    micro = json.load(f)
with open(os.environ["SERVICE_JSON"]) as f:
    service = json.load(f)

bench = {
    b["name"]: round(b["items_per_second"])
    for b in micro["benchmarks"] + service["benchmarks"]
    if "items_per_second" in b
}
service_bench = {
    b["name"]: round(b["items_per_second"])
    for b in service["benchmarks"]
    if "items_per_second" in b
}

t0, t1, t2 = (float(os.environ[k]) for k in ("T0", "T1", "T2"))
serial_s = t1 - t0
parallel_s = t2 - t1

out = {
    "schema": 2,
    "quick": os.environ["QUICK"] == "1",
    # The --jobs max sweep runs one thread per core, so a snapshot only
    # compares meaningfully against hosts of the same width; num_cpus
    # records that width (nproc, not google-benchmark's guess, which can
    # report the container host's topology).
    "context": {
        "num_cpus": int(os.environ["NUM_CPUS"]),
        "compiler": os.environ["COMPILER"],
    },
    "build_type": os.environ["BUILD_TYPE"],
    "requests_per_sec": bench,
    # PagingService end to end (bench/service_throughput): batch cohort,
    # trickled arrivals, adversarial bursts. The same numbers also sit in
    # requests_per_sec, so the hard gate covers them.
    "service": {
        "bench": "service_throughput",
        "requests_per_sec": service_bench,
    },
    "sweep": {
        "bench": "makespan_scaling",
        "jobs1_seconds": round(serial_s, 3),
        "jobsmax_seconds": round(parallel_s, 3),
        "speedup_jobsmax": round(serial_s / parallel_s, 3)
            if parallel_s > 0 else None,
        "byte_identical": True,
    },
    "peak_rss_mb": {
        "stream_smoke_requests": int(os.environ["RSS_N"]),
        "streamed": int(os.environ["RSS_STREAMED"]),
        "materialized": int(os.environ["RSS_MATERIALIZED"]),
        "engine_micro_p128": int(os.environ["RSS_MICRO"]),
    },
}

# Atomic publish: write to a sibling temp file and rename, so a crash (or
# a reader racing this script) never sees a torn BENCH_PERF.json.
tmp = os.environ["OUT"] + ".tmp"
with open(tmp, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
    f.flush()
    os.fsync(f.fileno())
os.replace(tmp, os.environ["OUT"])
print(f"wrote {os.environ['OUT']}")
print(f"  sweep --jobs 1: {out['sweep']['jobs1_seconds']}s, "
      f"--jobs max: {out['sweep']['jobsmax_seconds']}s "
      f"({out['sweep']['speedup_jobsmax']}x)")
PY
}

write_snapshot "${MICRO_JSON}" "${SERVICE_JSON}"

# --- Hard throughput regression gate -------------------------------------
# Compare the fresh snapshot against the committed reference (HEAD's
# BENCH_PERF.json, which may differ from OUT when --out is used). A drop
# beyond PPG_PERF_GATE_PCT fails the script — but only after one
# re-measurement of the dropped benchmarks, keeping the better run, so a
# single noisy interval cannot fail CI on its own.
if git cat-file -e HEAD:BENCH_PERF.json 2>/dev/null; then
  COMMITTED_JSON="$(mktemp)"
  DROPPED_LIST="$(mktemp)"
  trap 'rm -f "${MICRO_JSON}" "${SERVICE_JSON}" "${SWEEP_J1}" "${SWEEP_JMAX}" \
        "${COMMITTED_JSON}" "${DROPPED_LIST}"' EXIT
  git show HEAD:BENCH_PERF.json > "${COMMITTED_JSON}"

  if ! gate_compare "${COMMITTED_JSON}" "${OUT}" "${DROPPED_LIST}"; then
    echo "re-measuring $(wc -l < "${DROPPED_LIST}") dropped benchmark(s)" \
         "once to filter noise"
    # Re-measure per binary, filtering to the dropped benchmarks that
    # binary actually owns (google-benchmark emits no JSON at all when a
    # filter matches nothing), and keep the better of first run and retry.
    RETRY_JSON="$(mktemp)"
    for PAIR in "engine_micro:${MICRO_JSON}" \
                "service_throughput:${SERVICE_JSON}"; do
      BIN="${PAIR%%:*}"
      FIRST_JSON="${PAIR#*:}"
      BIN_FILTER="$(FIRST_JSON="${FIRST_JSON}" DROPPED_LIST="${DROPPED_LIST}" \
      python3 - <<'PY'
import json, os, re
with open(os.environ["FIRST_JSON"]) as f:
    names = {b.get("name") for b in json.load(f)["benchmarks"]}
with open(os.environ["DROPPED_LIST"]) as f:
    dropped = sorted(line.strip() for line in f if line.strip() in names)
print("^(" + "|".join(re.escape(d) for d in dropped) + ")$" if dropped else "")
PY
)"
      if [[ -z "${BIN_FILTER}" ]]; then continue; fi
      "./build/bench/${BIN}" \
        --benchmark_filter="${BIN_FILTER}" \
        --benchmark_min_time="${MIN_TIME}" \
        --benchmark_format=json >"${RETRY_JSON}"
      FIRST_JSON="${FIRST_JSON}" RETRY_JSON="${RETRY_JSON}" python3 - <<'PY'
import json, os
with open(os.environ["FIRST_JSON"]) as f:
    first = json.load(f)
with open(os.environ["RETRY_JSON"]) as f:
    retry = json.load(f)
best = {b["name"]: b["items_per_second"]
        for b in retry["benchmarks"] if "items_per_second" in b}
for b in first["benchmarks"]:
    name = b.get("name")
    if name in best and "items_per_second" in b:
        b["items_per_second"] = max(b["items_per_second"], best[name])
with open(os.environ["FIRST_JSON"], "w") as f:
    json.dump(first, f)
PY
    done
    rm -f "${RETRY_JSON}"
    write_snapshot "${MICRO_JSON}" "${SERVICE_JSON}"
    if ! gate_compare "${COMMITTED_JSON}" "${OUT}" "${DROPPED_LIST}"; then
      if [[ "${PPG_PERF_GATE:-}" == "warn" ]]; then
        echo "WARN: perf gate failed but PPG_PERF_GATE=warn is set;" \
             "continuing"
      else
        echo "FAIL: throughput dropped >${GATE_PCT}% vs committed" \
             "BENCH_PERF.json after one retry (set PPG_PERF_GATE=warn to" \
             "bypass on known-noisy hosts)" >&2
        exit 1
      fi
    fi
  fi
else
  echo "no committed BENCH_PERF.json at HEAD; skipping regression gate"
fi
