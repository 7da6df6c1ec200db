#!/usr/bin/env bash
# Crash-safety drill (tier-1): prove the checkpoint journal survives a hard
# kill and that resume reproduces the uninterrupted output byte for byte.
#
# Four gates, each at --jobs 1 and --jobs max:
#   1. golden:   plain run, no journal — the reference output;
#   2. kill:     same run with --journal, SIGKILL'd mid-sweep (exit 137);
#   3. resume:   --resume against the survivor journal; output must be
#                byte-identical to golden (cmp, not diff);
#   4. torn:     the journal is truncated mid-record (simulating a crash
#                inside write()); resume must recover the whole-record
#                prefix and still reproduce golden exactly.
# The golden run stays at the serial default while every journaled run adds
# --engine-threads max, so the byte-compares double as proof that the
# threaded engine (and a resume under a different thread count) changes
# nothing.
# Plus one budget gate: cells that exhaust --budget must report structured
# [cell-budget-exceeded] rows and exit 0 (a failed cell is data, not a
# crash), and one single-writer gate: a second writer against a journal a
# LIVE process holds must refuse with structured [journal-locked], while
# the journal of a SIGKILLed writer resumes with a plain --resume (the
# kernel dropped its lock) and reproduces golden.
#
# Usage: scripts/chaos.sh [path-to-chaos_sweep]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-./build/examples-bin/chaos_sweep}"
if [[ ! -x "${BIN}" ]]; then
  echo "chaos.sh: ${BIN} not built (cmake --build build)" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "${WORK}"' EXIT

CELLS=24
KILL_AT=9

for JOBS in 1 max; do
  tag="jobs-${JOBS}"
  golden="${WORK}/golden-${tag}.txt"
  journal="${WORK}/journal-${tag}.ppgjrnl"

  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" > "${golden}"

  # Gate 2: SIGKILL mid-sweep. raise(SIGKILL) exits 137 via the shell; the
  # run must NOT complete (the kill fired) and must leave a journal.
  set +e
  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" --engine-threads max \
           --journal "${journal}" --kill-at "${KILL_AT}" \
           > "${WORK}/killed-${tag}.txt" 2>&1
  status=$?
  set -e
  if [[ "${status}" -ne 137 ]]; then
    echo "chaos.sh FAIL (${tag}): expected exit 137 from SIGKILL, got ${status}" >&2
    exit 1
  fi
  if [[ ! -s "${journal}" ]]; then
    echo "chaos.sh FAIL (${tag}): kill run left no journal" >&2
    exit 1
  fi

  # Gate 3: resume completes the sweep; stdout must match golden exactly.
  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" --engine-threads max \
           --journal "${journal}" --resume \
           > "${WORK}/resumed-${tag}.txt" 2> "${WORK}/resumed-${tag}.err"
  cmp "${golden}" "${WORK}/resumed-${tag}.txt" || {
    echo "chaos.sh FAIL (${tag}): resumed output differs from golden" >&2
    exit 1
  }

  # Gate 4: tear the (now complete) journal mid-record and resume again.
  # The reader must truncate to the last whole record and recompute the
  # tail — still byte-identical.
  size=$(wc -c < "${journal}")
  torn="${WORK}/torn-${tag}.ppgjrnl"
  head -c "$((size - 13))" "${journal}" > "${torn}"
  "${BIN}" --cells "${CELLS}" --jobs "${JOBS}" --engine-threads max \
           --journal "${torn}" --resume \
           > "${WORK}/torn-${tag}.txt" 2> "${WORK}/torn-${tag}.err"
  cmp "${golden}" "${WORK}/torn-${tag}.txt" || {
    echo "chaos.sh FAIL (${tag}): torn-journal resume differs from golden" >&2
    exit 1
  }
done

# Faulty-cell gate: a sweep seeded with corrupt traces (--faulty-every)
# journals its [corrupt-trace] rows as data; a SIGKILL mid-sweep and a
# resume must reproduce the golden faulty output byte for byte — failures
# survive the crash exactly like successes.
faulty_golden="${WORK}/faulty-golden.txt"
faulty_journal="${WORK}/faulty.ppgjrnl"
"${BIN}" --cells "${CELLS}" --faulty-every 5 > "${faulty_golden}"
grep -q "corrupt-trace" "${faulty_golden}" || {
  echo "chaos.sh FAIL: faulty sweep did not report corrupt-trace rows" >&2
  exit 1
}
set +e
"${BIN}" --cells "${CELLS}" --faulty-every 5 --engine-threads max \
         --journal "${faulty_journal}" --kill-at "${KILL_AT}" \
         > "${WORK}/faulty-killed.txt" 2>&1
status=$?
set -e
if [[ "${status}" -ne 137 ]]; then
  echo "chaos.sh FAIL: faulty kill run expected exit 137, got ${status}" >&2
  exit 1
fi
"${BIN}" --cells "${CELLS}" --faulty-every 5 --engine-threads max \
         --journal "${faulty_journal}" --resume \
         > "${WORK}/faulty-resumed.txt" 2> "${WORK}/faulty-resumed.err"
cmp "${faulty_golden}" "${WORK}/faulty-resumed.txt" || {
  echo "chaos.sh FAIL: faulty-cell resume differs from golden" >&2
  exit 1
}

# Budget gate: exhausted cells are structured outcomes, not crashes.
budget_out="${WORK}/budget.txt"
"${BIN}" --cells 4 --budget 10 > "${budget_out}"
grep -q "cell-budget-exceeded" "${budget_out}" || {
  echo "chaos.sh FAIL: budget run did not report cell-budget-exceeded rows" >&2
  exit 1
}

# Single-writer gate: while writer 1 holds the journal, a concurrent
# writer 2 must exit with structured [journal-locked]. The journal's flock
# is taken before its header is written, so once a record is on disk the
# lock is held. Writer 1 is then SIGKILLed: the kernel drops its lock, and
# a plain --resume of its journal must complete and reproduce golden.
lock_journal="${WORK}/lock.ppgjrnl"
lock_golden="${WORK}/lock-golden.txt"
"${BIN}" --cells 4000 > "${lock_golden}" &
golden_pid=$!
"${BIN}" --cells 4000 --journal "${lock_journal}" \
         > "${WORK}/lock-w1.txt" 2>&1 &
w1=$!
# Header = magic(8) + version(4) + binding_len(4) + binding; a record is
# at least 28 bytes beyond it.
has_record() {
  [[ -s "${lock_journal}" ]] || return 1
  local binding_len size
  binding_len=$(od -An -tu4 -j12 -N4 "${lock_journal}" | tr -d ' ')
  [[ -n "${binding_len}" ]] || return 1
  size=$(wc -c < "${lock_journal}")
  (( size >= 16 + binding_len + 28 ))
}
for _ in $(seq 1 200); do
  has_record && break
  sleep 0.05
done
has_record || {
  echo "chaos.sh FAIL: writer 1 never journaled a record" >&2
  kill -KILL "${w1}" 2>/dev/null || true
  exit 1
}
set +e
"${BIN}" --cells 4000 --journal "${lock_journal}" --resume \
         > "${WORK}/lock-w2.txt" 2>&1
status=$?
set -e
if [[ "${status}" -eq 0 ]] || ! grep -q "journal-locked" "${WORK}/lock-w2.txt"; then
  echo "chaos.sh FAIL: second writer did not refuse with [journal-locked]" \
       "(exit ${status})" >&2
  kill -KILL "${w1}" 2>/dev/null || true
  exit 1
fi
kill -KILL "${w1}" 2>/dev/null || true
wait "${w1}" 2>/dev/null || true
wait "${golden_pid}"

"${BIN}" --cells 4000 --journal "${lock_journal}" --resume \
         > "${WORK}/lock-resumed.txt" 2> "${WORK}/lock-resumed.err" || {
  echo "chaos.sh FAIL: plain --resume could not reopen a SIGKILLed" \
       "writer's journal" >&2
  exit 1
}
cmp "${lock_golden}" "${WORK}/lock-resumed.txt" || {
  echo "chaos.sh FAIL: resume after SIGKILLed writer differs from golden" >&2
  exit 1
}

echo "chaos OK (kill/resume/torn byte-identical at --jobs 1 and max; budget rows structured; second writer refused, killed writer resumed)"
