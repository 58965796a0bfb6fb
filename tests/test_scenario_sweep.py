"""run_sweep over ScenarioSpec grids, including the process-pool story.

The sweep is a client of :class:`repro.service.BatchExecutor`, so the
crash/timeout seam these tests patch is the executor's per-request
entry point, ``repro.service.executor._service_compute``.
"""

import json
import multiprocessing
import time

import pytest

import repro.service.executor as executor_mod
from repro.api import SweepResult, point_seed, run_sweep
from repro.cluster import ScenarioSpec


def _hang(payload):
    """A point that never finishes in time (module level: it pickles)."""
    time.sleep(60.0)


def base_spec():
    return ScenarioSpec.preset("shared").with_overrides(
        {f"jobs.{i}.iterations": 2 for i in range(4)}
    )


GRID = {"fabric.kind": ["topoopt", "fattree"]}


class TestScenarioSweep:
    def test_rows_carry_scenario_metrics(self):
        sweep = run_sweep(base_spec(), GRID, executor="serial")
        rows = sweep.rows()
        assert [row["fabric.kind"] for row in rows] == [
            "topoopt", "fattree"
        ]
        for row in rows:
            assert row["error"] is None
            assert row["jobs_completed"] == 4
            assert row["jct_avg_s"] > 0
            assert row["iteration_p99_s"] >= row["iteration_avg_s"]
            assert row["policy"] == "first-fit"
        topo, fat = rows
        assert fat["iteration_p99_s"] > topo["iteration_p99_s"]

    def test_per_point_seeds_deterministic(self):
        spec = base_spec()
        sweep = run_sweep(spec, GRID, executor="serial")
        for point in sweep.points:
            assert point.seed == point_seed(spec.seed, point.overrides)
            assert point.result.spec.seed == point.seed

    def test_explicit_seed_axis_wins(self):
        sweep = run_sweep(
            base_spec(), {"seed": [3, 4]}, executor="serial"
        )
        assert [point.seed for point in sweep.points] == [3, 4]

    def test_process_executor_matches_serial(self):
        # The ROADMAP's process-pool story: scenario specs, points, and
        # results pickle, and the derived per-point seeds do not depend
        # on the executor, so a process-pool sweep is bit-identical to
        # a serial one.
        serial = run_sweep(base_spec(), GRID, executor="serial")
        process = run_sweep(
            base_spec(), GRID, executor="process", max_workers=2
        )
        assert len(serial.points) == len(process.points)
        for s, p in zip(serial.points, process.points):
            assert s.seed == p.seed
            assert s.result.to_dict() == p.result.to_dict()

    def test_sweep_json_round_trip(self):
        sweep = run_sweep(base_spec(), GRID, executor="serial")
        reloaded = SweepResult.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert isinstance(reloaded.base_spec, ScenarioSpec)
        assert reloaded.rows() == sweep.rows()

    def test_failing_point_becomes_error_row(self):
        sweep = run_sweep(
            base_spec(),
            {"max_sim_time_s": [1e-9, 3600.0]},
            executor="serial",
        )
        rows = sweep.rows()
        assert not sweep.ok
        assert "ScenarioError" in rows[0]["error"]
        assert rows[0]["jct_avg_s"] is None
        # The healthy point is unaffected, and the row schema is stable.
        assert rows[1]["error"] is None
        assert set(rows[0]) == set(rows[1])

    def test_policy_axis(self):
        sweep = run_sweep(
            base_spec(),
            {"policy": ["first-fit", "best-fit"]},
            executor="serial",
        )
        assert [row["policy"] for row in sweep.rows()] == [
            "first-fit", "best-fit"
        ]


class TestSweepRobustness:
    """Crashed or hung workers are retried, not sweep poison."""

    def test_worker_crash_retried_once(self, monkeypatch):
        real = executor_mod._service_compute
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("worker crashed")
            return real(payload)

        monkeypatch.setattr(executor_mod, "_service_compute", flaky)
        sweep = run_sweep(
            base_spec(), {"seed": [5]}, executor="thread",
            max_workers=1, retries=1,
        )
        point = sweep.points[0]
        assert point.error is None
        assert point.attempts == 2
        # The retry reran the same derived seed.
        assert point.seed == 5

    def test_retries_exhausted_becomes_error_row(self, monkeypatch):
        def always(payload):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(executor_mod, "_service_compute", always)
        sweep = run_sweep(
            base_spec(), {"seed": [5]}, executor="thread",
            max_workers=1, retries=1,
        )
        point = sweep.points[0]
        assert "worker crashed" in point.error
        assert point.attempts == 2
        assert point.seed == 5
        # The error row keeps the stable row schema.
        assert sweep.rows()[0]["jct_avg_s"] is None

    def test_point_timeout_reported(self, monkeypatch):
        def hang(payload):
            time.sleep(10.0)

        monkeypatch.setattr(executor_mod, "_service_compute", hang)
        started = time.perf_counter()
        sweep = run_sweep(
            base_spec(), {"seed": [5]}, executor="thread",
            max_workers=1, point_timeout_s=0.1, retries=0,
        )
        # The hung thread is abandoned, not waited out.
        assert time.perf_counter() - started < 5.0
        point = sweep.points[0]
        assert "point_timeout_s" in point.error
        assert point.attempts == 1

    def test_process_timeout_leaves_no_live_worker(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_service_compute", _hang)
        before = {child.pid for child in multiprocessing.active_children()}
        started = time.perf_counter()
        sweep = run_sweep(
            base_spec(), {"seed": [5]}, executor="process",
            max_workers=1, point_timeout_s=0.5, retries=0,
        )
        assert time.perf_counter() - started < 30.0
        assert "point_timeout_s" in sweep.points[0].error
        # The hung worker was terminated, not left running.
        alive = [
            child for child in multiprocessing.active_children()
            if child.pid not in before
        ]
        assert alive == []

    def test_in_point_exception_is_not_retried(self, monkeypatch):
        # An exception *inside* the point (bad spec) is deterministic:
        # it becomes an error row on the first attempt, no resubmission.
        sweep = run_sweep(
            base_spec(), {"max_sim_time_s": [1e-9]},
            executor="thread", max_workers=1, retries=3,
        )
        point = sweep.points[0]
        assert "ScenarioError" in point.error
        assert point.attempts == 1

    def test_attempts_round_trips_through_json(self, monkeypatch):
        real = executor_mod._service_compute
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return real(payload)

        monkeypatch.setattr(executor_mod, "_service_compute", flaky)
        sweep = run_sweep(
            base_spec(), {"seed": [5]}, executor="thread",
            max_workers=1, retries=1,
        )
        reloaded = SweepResult.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert reloaded.points[0].attempts == 2

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(base_spec(), {"seed": [5]}, retries=-1)


class TestSweepDedup:
    def test_identical_points_compute_once(self, monkeypatch):
        # An explicit seed axis with a repeated value: both grid points
        # resolve to one spec, so the executor's in-flight dedup runs
        # it once and both rows carry the same result.
        real = executor_mod._service_compute
        calls = []

        def counted(payload):
            calls.append(payload["seed"])
            time.sleep(0.2)  # keep the first point in flight
            return real(payload)

        monkeypatch.setattr(executor_mod, "_service_compute", counted)
        sweep = run_sweep(base_spec(), {"seed": [3, 3]}, executor="thread")
        assert calls == [3]
        first, second = sweep.points
        assert first.ok and second.ok
        assert not second.cache_hit
        assert json.dumps(
            first.result.to_dict(), sort_keys=True
        ) == json.dumps(second.result.to_dict(), sort_keys=True)
