"""Tests for store-backed (memoized) sweeps and scenario runs."""

import json

import pytest

import repro.api.runner as runner_mod
from repro.api.results import SweepPoint
from repro.api.runner import run_sweep
from repro.api.spec import canonical_json
from repro.cluster.engine import run_scenario
from repro.cluster.spec import ScenarioSpec
from repro.service import ResultStore

from test_service_store import cheap_spec

GRID = {"cluster.degree": [2, 4], "seed": [0, 1]}


def forbid_recompute(monkeypatch):
    """Make any pipeline execution an immediate test failure."""

    def boom(spec):
        raise AssertionError("pipeline recomputation happened")

    monkeypatch.setattr(runner_mod, "run_experiment", boom)


class TestMemoizedSweep:
    def test_second_identical_sweep_recomputes_nothing(
        self, monkeypatch, tmp_path
    ):
        """The acceptance criterion: with a shared store, the second
        identical sweep performs zero pipeline recomputations."""
        store = ResultStore(tmp_path)
        first = run_sweep(
            cheap_spec(), GRID, executor="serial", store=store
        )
        assert all(point.ok for point in first.points)
        assert not any(point.cache_hit for point in first.points)
        assert store.stats()["puts"] == len(first.points)

        forbid_recompute(monkeypatch)
        second = run_sweep(
            cheap_spec(), GRID, executor="serial", store=store
        )
        assert all(point.cache_hit for point in second.points)
        assert [point.seed for point in second.points] == [
            point.seed for point in first.points
        ]
        for before, after in zip(first.points, second.points):
            assert (
                canonical_json(after.result.to_dict())
                == canonical_json(before.result.to_dict())
            )

    def test_store_works_across_pool_executors(self, tmp_path):
        """Results computed by a thread sweep are served to a serial
        sweep (and vice versa): the key is the spec, not the pool."""
        store = ResultStore(tmp_path)
        run_sweep(cheap_spec(), GRID, executor="thread", store=store)
        again = run_sweep(
            cheap_spec(), GRID, executor="thread", store=store
        )
        assert all(point.cache_hit for point in again.points)
        assert store.stats()["puts"] == len(again.points)

    def test_partial_overlap_only_computes_the_new_points(
        self, monkeypatch, tmp_path
    ):
        store = ResultStore(tmp_path)
        run_sweep(
            cheap_spec(), {"seed": [0, 1]}, executor="serial",
            store=store,
        )
        wider = run_sweep(
            cheap_spec(), {"seed": [0, 1, 2]}, executor="serial",
            store=store,
        )
        hits = [point.cache_hit for point in wider.points]
        assert hits == [True, True, False]

    def test_bad_point_still_becomes_an_error_row(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = run_sweep(
            cheap_spec(),
            {"fabric.kind": ["fattree", "no-such-fabric"]},
            executor="serial",
            store=store,
        )
        ok = [point.ok for point in sweep.points]
        assert ok == [True, False]
        assert sweep.points[1].error
        # Only the good point was stored.
        assert store.stats()["puts"] == 1

    def test_without_store_nothing_is_cached(self):
        sweep = run_sweep(cheap_spec(), {"seed": [0]}, executor="serial")
        assert not sweep.points[0].cache_hit

    def test_cache_hit_serialization_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(cheap_spec(), {"seed": [0]}, executor="serial",
                  store=store)
        sweep = run_sweep(cheap_spec(), {"seed": [0]}, executor="serial",
                          store=store)
        point = sweep.points[0]
        assert point.cache_hit
        data = point.to_dict()
        assert data["cache_hit"] is True
        assert SweepPoint.from_dict(data).cache_hit
        # Fresh rows omit the flag from their JSON entirely.
        fresh = SweepPoint(overrides={}, seed=0)
        assert "cache_hit" not in fresh.to_dict()
        assert not SweepPoint.from_dict(fresh.to_dict()).cache_hit


def scenario_spec() -> ScenarioSpec:
    return ScenarioSpec.preset("shared").with_overrides(
        {"max_sim_time_s": 40.0}
    )


class TestMemoizedScenario:
    def test_run_scenario_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_scenario(scenario_spec(), store=store)
        assert store.stats()["puts"] == 1
        second = run_scenario(scenario_spec(), store=store)
        assert (
            canonical_json(second.to_dict())
            == canonical_json(first.to_dict())
        )
        stats = store.stats()
        assert stats["puts"] == 1  # the second run was served, not run
        assert stats["hits"] == 1

    def test_faulted_scenario_is_memoized(self, tmp_path):
        """Link cuts are part of the spec, so a faulted run is stored
        under its own hash (never aliasing the clean run) and a replay
        is a store hit with byte-identical JSON."""
        store = ResultStore(tmp_path)
        clean = run_scenario(scenario_spec(), store=store)
        faulted = scenario_spec().with_overrides({
            "faults.events": [
                {"kind": "link", "time_s": 0.05, "job_index": 0}
            ],
        })
        first = run_scenario(faulted, store=store)
        assert first.failure_log[0]["kind"] == "mp_detour"
        assert (
            canonical_json(first.to_dict())
            != canonical_json(clean.to_dict())
        )
        second = run_scenario(faulted, store=store)
        assert (
            canonical_json(second.to_dict())
            == canonical_json(first.to_dict())
        )
        stats = store.stats()
        assert stats["puts"] == 2   # the clean and the faulted run
        assert stats["hits"] == 1   # the replay was served, not run

    def test_scenario_sweep_uses_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = {"seed": [0, 1]}
        run_sweep(scenario_spec(), grid, executor="serial", store=store)
        again = run_sweep(
            scenario_spec(), grid, executor="serial", store=store
        )
        assert all(point.cache_hit for point in again.points)
