"""One benchmark process: set up, run the client, check, report.

``run.py`` starts this file once per set-up sample (``--role setup``:
stop after set-up) and once for the measured run (``--role run``).  It
prints ``ready`` when set-up ends -- imports, request generation and a
warm-up request of each kind -- so the parent can time process start
through set-up, then the run's report lines, then one ``RESULT`` line
of JSON for the parent.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    imports_began = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - imports_began
    lines = workloads.GENERATORS[args.workload](args.seed, args.seconds)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.warm_up(args.workload, work_dir)
        print("ready", flush=True)
        if args.role == "setup":
            return 0
        run = traced_run if args.trace else timed_run
        failures, metrics = run(args, lines, work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("RESULT " + json.dumps({
        "attempted": len(lines),
        "failed": min(len(failures), len(lines)),
        "metrics": metrics,
    }), flush=True)
    return 0


def timed_run(args, lines, work_dir, import_s):
    """One untraced pass: the end-to-end metrics."""
    import workloads
    from repro.service.metrics import percentile

    done = workloads.run_pass(args.workload, lines, work_dir)
    failures = workloads.check_pass(args.workload, lines, done)
    report(args, done, failures, import_s)
    latencies = done.latencies_s
    return failures, {
        "wall_s": done.wall_s,
        "request_p50_ms": 1e3 * percentile(latencies, 0.50),
        "request_p90_ms": 1e3 * percentile(latencies, 0.90),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, lines, work_dir, import_s):
    """Untraced, traced, untraced again: the per-layer metrics.

    The tracing overhead is taken against the mean of the two untraced
    passes that bracket the traced one, which cancels a host slowing
    down or speeding up steadily across the run.  All three passes must
    serve identical bytes.
    """
    import workloads
    from layers import Ledger
    from metrics import per_layer

    first = workloads.run_pass(args.workload, lines, work_dir)
    ledger = Ledger()
    with ledger.installed():
        traced = workloads.run_pass(
            args.workload, lines, work_dir, tracer=ledger
        )
    reference = workloads.run_pass(args.workload, lines, work_dir)
    failures = workloads.check_pass(args.workload, lines, traced)
    if not first.digest == traced.digest == reference.digest:
        failures.append("the traced pass served other bytes than untraced")
    report(args, traced, failures, import_s)
    print_ledger(ledger, traced)
    untraced_s = (first.wall_s + reference.wall_s) / 2
    return failures, per_layer(ledger, traced, untraced_s, import_s)


def report(args, done, failures, import_s) -> None:
    """The run's human-readable lines: work counts, digest, checks."""
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"imports: {import_s:.3f} s; timed pass: {done.wall_s:.3f} s over "
          f"{len(done.latencies_s)} requests")
    print("work counts: " + json.dumps(done.counts, sort_keys=True))
    print(f"result digest: {done.digest}")
    print(f"output checks: {len(failures)} failed")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")


def print_ledger(ledger, traced) -> None:
    wall = traced.wall_s - ledger.fold_s
    print(f"per-layer self time (traced pass {wall:.3f} s, folding "
          f"{ledger.fold_s:.3f} s excluded):")
    for layer, seconds in sorted(ledger.self_s.items(),
                                 key=lambda item: -item[1]):
        print(f"  {layer:36s} {seconds:9.4f} s {100 * seconds / wall:6.2f}%")


if __name__ == "__main__":
    sys.exit(main())
