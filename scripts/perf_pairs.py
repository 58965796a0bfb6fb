#!/usr/bin/env python
"""Compare two checkouts on the end-to-end benchmark in alternating pairs.

    python scripts/perf_pairs.py PARENT_DIR CHANGE_DIR \
        --workload serve [cosearch fleet] --seeds 701 702 ... 710

For each workload and seed, runs ``perfbench/run.py --workload W --seed
S --seconds 25 --trace 0`` once in each checkout, the parent first on
even pairs (0, 2, ...) and the change first on odd ones.  Then prints,
per workload and end-to-end metric of ``BENCHMARK.json``: each side's
median and quartiles, the parent's interquartile range (IQR), the ratio
of the medians (change / parent), how many pairs the change won, and a
verdict.  A win is strictly better in the metric's ``better``
direction; ties count for neither side.  Quartiles interpolate
linearly, as NumPy's default percentile does.

The verdict is the first that applies of:

* ``gain`` -- the change won at least 9 in 10 of the pairs, and its
  median is better than the parent's by more than the parent's IQR;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's ``bound`` (a fraction of the parent's median);
* ``unresolved`` -- the parent's IQR is wider than ``bound`` times its
  median, unless every change run beat every parent run;
* ``within bound`` -- any other case.

Every run whose last line is not a JSON object with ``"correct": true``
is listed at the end, and the script then exits 1.  It reads nothing
but each checkout's ``perfbench/`` and the parent's ``BENCHMARK.json``:
the program is measured only through the benchmark's own entry point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SECONDS = 25


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Alternating parent/change pairs of perfbench runs."
    )
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", nargs="+", required=True,
                        metavar="W")
    parser.add_argument("--seeds", nargs="+", type=int, required=True,
                        metavar="S")
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int
             ) -> Tuple[Optional[Dict[str, float]], str]:
    """One untraced run: (metric values, last output line).

    The values are None when the run did not end with ``"correct":
    true``.
    """
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else f"(no output; exit {done.returncode})"
    try:
        report = json.loads(last)
    except json.JSONDecodeError:
        return None, last
    if not isinstance(report, dict) or report.get("correct") is not True:
        return None, last
    return {
        name: entry["value"] for name, entry in report["metrics"].items()
    }, last


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric: dict, parent: List[float], change: List[float]
            ) -> str:
    """The verdict on one metric's paired runs (see the module docstring)."""
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    iqr, bound = p3 - p1, metric["bound"] * abs(pm)
    won = sum(better(c, p) for p, c in zip(parent, change))
    if 10 * won >= 9 * len(parent) and better(cm, pm) and abs(cm - pm) > iqr:
        return "gain"
    if better(pm, cm) and abs(cm - pm) > bound:
        return "worse"
    if iqr > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved"
    return "within bound"


def summarize(metrics: Sequence[dict], pairs: List[Tuple[dict, dict]]
              ) -> List[str]:
    """Table rows for one workload's completed pairs."""
    rows = [
        f"{'metric':<16} {'parent q1 / median / q3':>31} "
        f"{'change q1 / median / q3':>31} {'parent IQR':>11} "
        f"{'ratio':>7} {'won':>7}  verdict"
    ]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        won = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        )
        ratio = cm / pm if pm else float("nan")
        rows.append(
            f"{name:<16} {p1:>9.4g} / {pm:>8.4g} / {p3:>8.4g} "
            f"{c1:>9.4g} / {cm:>8.4g} / {c3:>8.4g} {p3 - p1:>11.4g} "
            f"{ratio:>7.3f} {won:>3}/{len(pairs):<3}  "
            f"{verdict(metric, parent, change)}"
        )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"perf_pairs: no perfbench/run.py under {label} "
                  f"{checkout}", file=sys.stderr)
            return 2
    metrics = json.loads(
        (sides["parent"] / "BENCHMARK.json").read_text()
    )["end_to_end"]
    failed: List[str] = []
    for workload in args.workload:
        pairs: List[Tuple[dict, dict]] = []
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 else (
                "change", "parent")
            values = {}
            for label in order:
                values[label], last = run_once(sides[label], workload, seed)
                if values[label] is None:
                    failed.append(f"{workload} seed {seed} {label}: {last}")
                print(f"{workload} pair {index} seed {seed} {label}: "
                      + (json.dumps(values[label]) if values[label]
                         else "FAILED"), flush=True)
            if values["parent"] is not None and values["change"] is not None:
                pairs.append((values["parent"], values["change"]))
        print(f"\n{workload}: {len(pairs)} pairs, seeds "
              f"{' '.join(map(str, args.seeds))}")
        if pairs:
            print("\n".join(summarize(metrics, pairs)))
        print()
    if failed:
        print("runs that did not end with \"correct\": true:")
        for line in failed:
            print(f"  {line}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
