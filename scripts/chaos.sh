#!/usr/bin/env bash
# Failure-as-data drill (tier-1): sweep cells that fail on purpose must
# report structured rows, and those rows must not depend on --jobs.
#
# Two gates:
#   1. faulty: a sweep seeded with corrupt traces (--faulty-every) reports
#      [corrupt-trace] rows; a serial --jobs 1 run and a --jobs max run
#      must be byte-identical (cmp, not diff), so the gate doubles as proof
#      that the sweep pool changes nothing, failures included;
#   2. budget: cells that exhaust --budget report structured
#      [cell-budget-exceeded] rows and the sweep exits 0 (a failed cell is
#      data, not a crash).
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
trap 'rm -rf "${WORK}"' EXIT

CELLS=24

# Faulty-cell gate: failures are byte-identical across --jobs values.
faulty_serial="${WORK}/faulty-serial.txt"
faulty_parallel="${WORK}/faulty-parallel.txt"
"${BIN}" --cells "${CELLS}" --faulty-every 5 --jobs 1 > "${faulty_serial}"
grep -q "corrupt-trace" "${faulty_serial}" || {
  echo "chaos.sh FAIL: faulty sweep did not report corrupt-trace rows" >&2
  exit 1
}
"${BIN}" --cells "${CELLS}" --faulty-every 5 --jobs max > "${faulty_parallel}"
cmp "${faulty_serial}" "${faulty_parallel}" || {
  echo "chaos.sh FAIL: --jobs max faulty sweep differs from the serial run" >&2
  exit 1
}

# Budget gate: exhausted cells are structured outcomes, not crashes.
budget_out="${WORK}/budget.txt"
"${BIN}" --cells 4 --budget 10 > "${budget_out}"
grep -q "cell-budget-exceeded" "${budget_out}" || {
  echo "chaos.sh FAIL: budget run did not report cell-budget-exceeded rows" >&2
  exit 1
}

echo "chaos OK (faulty rows byte-identical --jobs 1 vs max; budget rows structured)"
