#!/bin/sh
# Self-test of the exact perf gate, run as a ctest test:
#
#   1. bench_ci_perf twice -> the two outputs must be byte-identical
#      (the fiber scheduler's determinism contract);
#   2. check_perf.py fresh-vs-baseline must pass (the committed baseline
#      is current);
#   3. bench_ci_perf --perturb (a 1e-4 synthetic network-latency drift)
#      must FAIL check_perf.py — proving the gate actually has teeth.
#
# Usage: perf_gate_test.sh BENCH_BINARY CHECK_PERF_PY BASELINE_JSON
set -eu

bench="$1"
check="$2"
baseline="$3"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$bench" > "$workdir/run1.json"
"$bench" > "$workdir/run2.json"
cmp "$workdir/run1.json" "$workdir/run2.json" || {
  echo "FAIL: bench_ci_perf is not byte-identical across two runs" >&2
  exit 1
}
echo "ok: two consecutive runs byte-identical"

python3 "$check" "$baseline" "$workdir/run1.json" || {
  echo "FAIL: fresh run drifted from the committed baseline" >&2
  exit 1
}

"$bench" --perturb > "$workdir/perturbed.json"
if python3 "$check" "$baseline" "$workdir/perturbed.json" > /dev/null; then
  echo "FAIL: check_perf.py accepted a perturbed cost model" >&2
  exit 1
fi
echo "ok: perturbed cost model rejected by the gate"
echo "perf gate self-test PASSED"
