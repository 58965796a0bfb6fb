"""Backfill oracle tests.

Two properties anchor the backfill implementations to their textbook
definitions, checked on randomized contended traces where reservations
are exact (isolated TopoOpt shards repeat the estimated iteration
time, so ``est_duration_s`` is not a heuristic there):

* **Conservative backfill never delays anyone**: every job's first
  admission under ``queue='conservative'`` is at or before its FCFS
  admission on the same trace.  (Conservative holds a reservation for
  *every* queued job; a backfilled job must fit in front of all of
  them.)
* **EASY preserves the head reservation**: whenever the engine
  recorded a reservation ``(t_res, block)`` for the blocked
  head-of-queue job, that job's actual admission is at or before
  ``t_res``.  (EASY only backfills jobs that finish before ``t_res``
  or sit outside the reserved block.)

Plus the payoff the policies exist for: on a head-of-line-blocking
trace both backfill flavors strictly beat FCFS on mean queueing delay
while the blocked head job starts no later.
"""

from dataclasses import replace

import pytest

from repro.cluster.engine import ScenarioEngine, run_scenario
from repro.cluster.invariants import (
    golden_scenario_spec,
    random_scenario_spec,
)
from repro.perf import warmcache

_EPS = 1e-9

SEEDS = tuple(range(6))


def first_admissions(result):
    """Job index -> first admit time from the scheduler log."""
    admits = {}
    for event in result.scheduler_log:
        if event["event"] == "admit":
            admits.setdefault(event["job_index"], event["time_s"])
    return admits


@pytest.mark.parametrize("seed", SEEDS)
def test_conservative_never_delays_any_job(seed):
    base = random_scenario_spec(seed, queue="fcfs")
    fcfs = first_admissions(run_scenario(base))
    conservative = first_admissions(
        run_scenario(base.with_overrides({"queue": "conservative"}))
    )
    assert set(conservative) == set(fcfs)
    for index, fcfs_start in fcfs.items():
        assert conservative[index] <= fcfs_start + _EPS, (
            f"seed {seed}: conservative backfill delayed job {index} "
            f"from {fcfs_start} to {conservative[index]}"
        )


def assert_head_reservations_kept(engine, result, label):
    admits = first_admissions(result)
    for now, key, t_res, start, count in engine.reservation_trace:
        assert admits[key] <= t_res + _EPS, (
            f"{label}: head job {key} was reserved for t={t_res} "
            f"(computed at t={now}) but only started at {admits[key]}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_easy_preserves_head_reservation(seed):
    spec = random_scenario_spec(seed, queue="easy")
    engine = ScenarioEngine(spec)
    result = engine.run()
    assert_head_reservations_kept(engine, result, f"seed {seed}")


def test_easy_head_reservation_on_blocking_trace():
    """On the golden trace the head is genuinely blocked: the
    reservation trace must be non-empty, and still honored."""
    engine = ScenarioEngine(golden_scenario_spec("easy"))
    result = engine.run()
    assert engine.reservation_trace
    assert_head_reservations_kept(engine, result, "golden easy")


class TestBackfillBeatsFcfs:
    """The head-of-line-blocking payoff trace (also the golden spec)."""

    @pytest.mark.parametrize("queue", ("easy", "conservative"))
    def test_backfill_strictly_lowers_mean_queueing_delay(self, queue):
        fcfs = run_scenario(golden_scenario_spec("fcfs"))
        backfilled = run_scenario(golden_scenario_spec(queue))
        fcfs_queueing = fcfs.metrics()["queueing_avg_s"]
        backfill_queueing = backfilled.metrics()["queueing_avg_s"]
        assert backfill_queueing < fcfs_queueing, (
            f"{queue} backfill should strictly beat FCFS queueing "
            f"delay on a head-of-line-blocking trace"
        )
        # The blocked head job itself starts no later than under FCFS.
        head = 1  # job 1 wants 24 of 32 servers and blocks
        assert (
            first_admissions(backfilled)[head]
            <= first_admissions(fcfs)[head] + _EPS
        )


class TestIterationEstimate:
    """The reservation currency falls back only when a shard cannot be
    built: an expander needs an even ``servers x degree``."""

    def prepared(self, servers):
        spec = golden_scenario_spec("easy").with_overrides(
            {"fabric": "expander", "cluster.degree": 3}
        )
        engine = ScenarioEngine(spec)
        plan = replace(engine._draw_jobs()[0], servers=servers)
        # A private copy: the warm pipeline cache shares the estimate.
        return engine, replace(engine._prepare(plan), estimates={})

    def test_unbuildable_expander_shard_falls_back(self):
        engine, prepared = self.prepared(5)
        assert engine._est_iteration(prepared, 5) == 2.0 * prepared.compute_s

    def test_buildable_shard_is_simulated(self):
        engine, prepared = self.prepared(4)
        assert engine._est_iteration(prepared, 4) != 2.0 * prepared.compute_s

    def test_other_build_errors_propagate(self, monkeypatch):
        engine, prepared = self.prepared(4)

        def broken(spec, ctx):
            raise TypeError("broken fabric builder")

        monkeypatch.setattr("repro.cluster.engine.build_fabric", broken)
        with pytest.raises(TypeError, match="broken fabric builder"):
            engine._est_iteration(prepared, 4)


class TestEstimateKey:
    """On a shared substrate the estimate is built from the scenario's
    fabric spec and seed, so the warm pipeline cache keys it by both:
    no scenario reads another's estimate -- not even its TopoOpt
    twin's, whose pipeline entries (shard fabric included) it shares."""

    @staticmethod
    def estimates(spec):
        engine = ScenarioEngine(spec)
        return [
            engine._est_iteration(engine._prepare(plan), plan.servers)
            for plan in engine._draw_jobs()
        ]

    def fresh_estimates(self, spec, monkeypatch):
        """The estimates of an engine in a cold process."""
        with monkeypatch.context() as patch:
            patch.setattr(warmcache, "PIPELINE_CACHE", warmcache.WarmCache())
            return self.estimates(spec)

    @pytest.mark.parametrize("kind", ["leaf-spine", "expander", "fattree"])
    def test_fabric_after_fattree_gets_its_own(self, kind, monkeypatch):
        golden = golden_scenario_spec("conservative")
        firsts = [self.estimates(golden)]
        if kind != "fattree":
            firsts.append(
                self.estimates(golden.with_overrides({"fabric": "fattree"}))
            )
        spec = golden.with_overrides({"fabric": kind})
        warm = self.estimates(spec)
        assert warm == self.fresh_estimates(spec, monkeypatch)
        for first in firsts:
            assert warm != first

    def test_seed_after_other_seed_gets_its_own(self, monkeypatch):
        # An expander's wiring is drawn from the scenario seed.
        golden = golden_scenario_spec("conservative").with_overrides(
            {"fabric": "expander"}
        )
        first = self.estimates(golden)
        spec = golden.with_overrides({"seed": 1})
        warm = self.estimates(spec)
        assert warm == self.fresh_estimates(spec, monkeypatch)
        assert warm != first
