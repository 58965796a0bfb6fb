"""Micro-benchmarks for the vectorized kernel layer (perf trajectory).

Runs every entry of ``repro.perf.bench.BENCH_ENTRIES`` at its full
sizes, writes ``BENCH_kernels.json`` at the repo root (and a text
table under ``benchmarks/results/``) so future PRs can track the perf
trajectory, and fails with the message of every full-scale gate row
the results fail.  That table holds the entries, their sizes and their
gates; each runner's docstring says what it measures.
"""

from pathlib import Path

from benchmarks.harness import emit
from repro.perf.bench import (
    format_results,
    gate_failures,
    run_benchmarks,
    write_results,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"


def main() -> None:
    results = run_benchmarks("full")
    write_results(results, str(BENCH_JSON))
    lines = format_results(results)
    lines.append(f"results written to {BENCH_JSON}")
    emit("BENCH_kernels", lines)
    failures = gate_failures(results, "full")
    if failures:
        raise AssertionError("\n".join(failures))


def test_bench_perf_kernels():
    main()


if __name__ == "__main__":
    main()
