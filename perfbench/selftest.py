"""Self-tests of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py    # the same, under pytest

Runs in about 15 s: tiny request lists in-process, plus a few
``run.py`` invocations at ``--seconds 1``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def scratch_dir():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_lines(workload: str, seed: int):
    """A few cheap requests of the workload's own kinds."""
    if workload == "cosearch":
        return [workloads.request_line(workloads.cosearch_spec(
            model, 16, seed + i, iterations=10, rounds=1))
            for i, model in enumerate(workloads.MODELS)]
    if workload == "fleet":
        return [workloads.request_line(
            workloads.fleet_spec(32, seed, storms=2))]
    return workloads.serve_requests(seed, 1)[:120]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in WORKLOADS:
            generate = workloads.GENERATORS[workload]
            with self.subTest(workload=workload):
                self.assertEqual(generate(3, 4), generate(3, 4))
                self.assertNotEqual(generate(3, 4), generate(4, 4))

    def test_seconds_sizes_the_work(self):
        for workload in WORKLOADS:
            generate = workloads.GENERATORS[workload]
            with self.subTest(workload=workload):
                self.assertLess(len(generate(1, 4)), len(generate(1, 40)))


class PassTest(unittest.TestCase):
    def test_tiny_passes_check_clean_and_repeat_exactly(self):
        with scratch_dir() as work_dir:
            for workload in WORKLOADS:
                lines = tiny_lines(workload, seed=5)
                with self.subTest(workload=workload):
                    first = workloads.run_pass(workload, lines, Path(work_dir))
                    self.assertEqual(
                        workloads.check_pass(workload, lines, first), []
                    )
                    second = workloads.run_pass(
                        workload, lines, Path(work_dir)
                    )
                    self.assertEqual(first.counts, second.counts)
                    self.assertEqual(first.digest, second.digest)

    def test_traced_pass_matches_untraced(self):
        from layers import Ledger
        from metrics import per_layer

        with scratch_dir() as work_dir:
            for workload in WORKLOADS:
                lines = tiny_lines(workload, seed=6)
                with self.subTest(workload=workload):
                    plain = workloads.run_pass(workload, lines, Path(work_dir))
                    ledger = Ledger()
                    with ledger.installed():
                        traced = workloads.run_pass(
                            workload, lines, Path(work_dir), tracer=ledger
                        )
                    self.assertEqual(traced.digest, plain.digest)
                    self.assertEqual(traced.counts, plain.counts)
                    values = per_layer(ledger, traced, plain.wall_s, 0.0)
                    self.assertEqual(set(values), {n for n, _ in PER_LAYER})
                    # The self times and the residual tile the pass.
                    self.assertGreaterEqual(
                        values["residual.unattributed_s"], -1e-3
                    )

    def test_failed_checks_are_reported(self):
        import repro.cluster.engine as engine

        result = engine.run_scenario(workloads.fleet_spec(32, 7, storms=2))
        done = workloads.Pass()
        workloads._inspect_scenario(0, result, done)
        self.assertEqual(done.failures, [])
        workloads._inspect_scenario(
            0, replace(result, jobs=result.jobs[:-1]), done
        )
        self.assertTrue(done.failures)

        lines = tiny_lines("serve", seed=8)
        with scratch_dir() as work_dir:
            served = workloads.run_pass("serve", lines, Path(work_dir))
        self.assertTrue(served.kept)
        index = next(iter(served.kept))
        served.kept[index] += " "
        self.assertTrue(workloads.check_pass("serve", lines, served))


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_declared_names_and_units_match_the_tables(self):
        for key, table in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
            declared = [(m["name"], m["unit"]) for m in self.declared[key]]
            self.assertEqual(declared, list(table))
        self.assertEqual(
            [w["name"] for w in self.declared["workloads"]], list(WORKLOADS)
        )

    def test_printed_names_and_units_match(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                out = run_benchmark("--workload", "serve", "--seed", "1",
                                    "--seconds", "1", "--trace", trace)
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(
                    set(result),
                    {"correct", "attempted", "failed", "metrics"},
                )
                self.assertTrue(result["correct"])
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                declared = {m["name"]: m["unit"] for m in self.declared[key]}
                self.assertEqual(printed, declared)

    def test_fails_without_the_program(self):
        with scratch_dir() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
                env=env,
            )
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
