#!/usr/bin/env sh
# Pre-merge sanity check: documentation checks first (fast), then every
# example at smoke scale, the chaos scenarios, and the kernel
# micro-benchmarks at smoke scale.  Exits non-zero if any of them fails;
# bench-smoke fails on every gate row of repro.perf.bench.BENCH_ENTRIES
# its results miss, and prints each entry's wall time and the total.
#
# Usage: scripts/bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli check-docs
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli check-examples
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli chaos-smoke
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m repro.cli bench-smoke "$@"
