"""Benchmark entry point for this repository.

    python3 perfbench/run.py --workload cosearch|fleet|serve --seed N \
        --seconds S --trace 0|1

Runs one closed-loop client over seed-generated requests and prints, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The work itself runs in child
processes (``client.py``) so that set-up can be timed from process
start: ``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes,
the last of which goes on to run the timed pass.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: Every run must end well inside three minutes.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, UNITS, WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(args, role: str, deadline: float):
    """Run one ``client.py`` process; returns (code, setup_s, result).

    ``setup_s`` runs from just before the process is started to its
    ``ready`` line.  The process is killed at ``deadline``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    work_dir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}-{role}"
    command = [
        sys.executable, str(HERE / "client.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    setup_s, result = None, None
    began = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(deadline - began, 0.0), process.kill)
    timer.start()
    try:
        for line in process.stdout:
            if setup_s is None and line.strip() == "ready":
                setup_s = time.perf_counter() - began
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    return code, setup_s, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated parent unwinds through ``spawn``'s ``finally``, which
    # kills and reaps the child instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    # The traced run reports no set-up time, so it takes no extra samples.
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        code, setup_s, _ = spawn(args, "setup", deadline)
        if code != 0 or setup_s is None:
            print(f"perfbench: set-up process failed ({code})",
                  file=sys.stderr)
            return 1
        setups.append(setup_s)
    code, setup_s, result = spawn(args, "run", deadline)
    if code != 0 or setup_s is None or result is None:
        print(f"perfbench: measured process failed ({code})", file=sys.stderr)
        return 1
    setups.append(setup_s)

    values = dict(result["metrics"])
    if args.trace:
        names = [name for name, _ in PER_LAYER]
    else:
        values["setup_s"] = statistics.median(setups)
        names = [name for name, _ in END_TO_END]
        print("setup samples (s): "
              + ", ".join(f"{value:.3f}" for value in setups))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
