#!/usr/bin/env sh
# Claim gate: run every claim bench under benchmarks/ (the paper's
# figures, tables, ablations and extensions; bench_perf_kernels, which
# times kernels, is left to bench-smoke and its full harness) and fail
# if any claim's assertion fails.  pytest runs without -x, so every
# failing claim is listed.
#
# The benches run in a throwaway copy of benchmarks/, so the results
# files they write land there and the working tree stays clean.
#
# Usage: scripts/claims.sh
set -eu
repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT INT TERM
cp -R "$repo/benchmarks" "$work/benchmarks"
cd "$work"
PYTHONPATH="$repo/src:$work" python -m pytest -q -p no:cacheprovider \
    -o python_files='bench_*.py' -o python_functions='bench_*' \
    --ignore=benchmarks/bench_perf_kernels.py --benchmark-disable \
    benchmarks
