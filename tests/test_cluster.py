"""Integration tests for the shared-cluster simulator (section 5.6)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ScenarioSpec, run_scenario
from repro.core.topology_finder import AllReduceGroup, topology_finder
from repro.network.fattree import IdealSwitchFabric
from repro.network.topoopt import TopoOptFabric
from repro.oracles import ReferenceSharedClusterSimulator
from repro.parallel.traffic import TrafficSummary
from repro.sim.cluster import JobSpec, SharedClusterSimulator, remap_traffic

GBPS = 1e9


def run_jobs(
    capacities, jobs, iterations=3, simulator=SharedClusterSimulator
):
    """Start ``jobs`` together at t = 0 and step the simulator until each
    has ``iterations`` iteration times; returns them per job."""
    sim = simulator(capacities)
    states = [sim.add_job(job, start=0.0) for job in jobs]
    while any(len(s.stats.iteration_times) < iterations for s in states):
        sim.advance_to(sim.next_event_time())
    return [s.stats.iteration_times for s in states]


def dp_traffic(n, total_bytes):
    return TrafficSummary(
        n=n,
        allreduce_groups=[
            AllReduceGroup(members=tuple(range(n)), total_bytes=total_bytes)
        ],
        mp_matrix=np.zeros((n, n)),
    )


def topoopt_shard_job(name, server_map, total_bytes, compute_s, bandwidth):
    k = len(server_map)
    local_traffic = dp_traffic(k, total_bytes)
    result = topology_finder(k, 2, local_traffic.allreduce_groups)
    fabric = TopoOptFabric(result, bandwidth).relabel(server_map)
    return JobSpec(
        name=name,
        traffic=remap_traffic(local_traffic, server_map),
        compute_s=compute_s,
        fabric=fabric,
    )


class TestRemapTraffic:
    def test_group_members_translated(self):
        traffic = dp_traffic(4, 100.0)
        remapped = remap_traffic(traffic, [10, 11, 12, 13])
        assert remapped.allreduce_groups[0].members == (10, 11, 12, 13)

    def test_mp_matrix_translated(self):
        traffic = dp_traffic(2, 0.0)
        traffic.mp_matrix[0, 1] = 55.0
        remapped = remap_traffic(traffic, [4, 7])
        assert remapped.mp_matrix[4, 7] == 55.0
        assert remapped.n == 8


class TestSharding:
    def test_isolated_shards_do_not_interfere(self):
        # Two TopoOpt shards with disjoint servers: each job's iteration
        # time equals its dedicated-run time.
        bandwidth = 25 * GBPS
        job_a = topoopt_shard_job("a", [0, 1, 2, 3], 1e9, 0.01, bandwidth)
        job_b = topoopt_shard_job("b", [4, 5, 6, 7], 1e9, 0.01, bandwidth)
        capacities = {}
        capacities.update(job_a.fabric.capacities())
        capacities.update(job_b.fabric.capacities())
        solo = _solo_iteration_time(job_a)
        for times in run_jobs(capacities, [job_a, job_b]):
            for t in times:
                assert t == pytest.approx(solo, rel=0.05)

    def test_shared_switch_contends(self):
        # Both jobs on one shared switch core: iterations slower than solo.
        n = 8
        fabric = IdealSwitchFabric(n, 2, 25 * GBPS)
        t_a = dp_traffic(n, 0.0)
        t_b = dp_traffic(n, 0.0)
        # Jobs share the same servers' uplinks (worst-case contention).
        for t in (t_a, t_b):
            t.allreduce_groups = [
                AllReduceGroup(members=tuple(range(n)), total_bytes=1e9)
            ]
        job_a = JobSpec("a", t_a, 0.001, fabric)
        job_b = JobSpec("b", t_b, 0.001, fabric)
        samples = [
            t for times in run_jobs(fabric.capacities(), [job_a, job_b])
            for t in times
        ]
        assert np.mean(samples) > _solo_iteration_time(job_a)


def _solo_iteration_time(job):
    return run_jobs(dict(job.fabric.capacities()), [job])[0][-1]


class TestStats:
    def test_empty_samples_rejected(self):
        # Pooled iteration statistics need at least one sample.
        result = run_scenario(
            ScenarioSpec.preset("shared").with_overrides(
                {"arrivals.times": [0.0], "jobs.0.iterations": 1}
            )
        )
        empty = replace(
            result,
            jobs=tuple(
                replace(job, iteration_times=()) for job in result.jobs
            ),
        )
        with pytest.raises(ValueError):
            empty.iteration_stats()


class TestDeterminism:
    def _run(self, simulator=SharedClusterSimulator):
        n = 8
        fabric = IdealSwitchFabric(n, 2, 25 * GBPS)
        jobs = [
            JobSpec("a", dp_traffic(n, 1e9), 0.001, fabric),
            JobSpec("b", dp_traffic(n, 1.5e9), 0.002, fabric),
        ]
        return [
            tuple(times)
            for times in run_jobs(
                fabric.capacities(), jobs, simulator=simulator
            )
        ]

    def test_same_seed_bit_identical(self):
        # The simulation draws no random numbers and every reduction is
        # insertion-ordered, so two in-process runs replay exactly.
        assert self._run() == self._run()

    def test_reference_solver_matches_kernel(self):
        kernel = self._run()
        reference = self._run(simulator=ReferenceSharedClusterSimulator)
        for k_job, r_job in zip(kernel, reference):
            for k_t, r_t in zip(k_job, r_job):
                assert k_t == pytest.approx(r_t, rel=1e-9)


class TestDynamicMembership:
    def test_remove_job_matches_by_identity_not_equality(self):
        # Two dynamically added jobs with identical specs compare equal
        # as dataclasses; remove_job must detach exactly the instance
        # it was given, not the first equal one.
        n = 4
        fabric = IdealSwitchFabric(n, 2, 25 * GBPS)
        sim = SharedClusterSimulator(fabric.capacities())
        job = JobSpec("twin", dp_traffic(n, 1e9), 0.001, fabric)
        first = sim.add_job(job, start=0.0)
        second = sim.add_job(job, start=0.0)
        sim.remove_job(second)
        assert sim.states == [first]
        assert any(s is first for s in sim.states)
        # The survivor still has its timer and makes progress.
        while len(first.stats.iteration_times) < 1:
            sim.advance_to(sim.next_event_time())
        assert first.stats.iteration_times

    def test_add_and_remove_mid_run(self):
        n = 8
        fabric = IdealSwitchFabric(n, 2, 25 * GBPS)
        sim = SharedClusterSimulator(fabric.capacities())
        job_a = JobSpec("a", dp_traffic(n, 1e9), 0.001, fabric)
        job_b = JobSpec("b", dp_traffic(n, 1e9), 0.001, fabric)
        state_a = sim.add_job(job_a, start=0.0)
        finished = []
        while len(state_a.stats.iteration_times) < 2:
            finished = sim.advance_to(sim.next_event_time())
        # Admit a second job mid-flight, then complete one of its
        # iterations too.
        state_b = sim.add_job(job_b)
        while len(state_b.stats.iteration_times) < 1:
            sim.advance_to(sim.next_event_time())
        assert state_b.stats.iteration_times
        sim.remove_job(state_b)
        assert state_b not in sim.states
        # No orphaned flows or timers for the removed job.
        assert all(owner is state_a for owner in sim._flow_owner.values())
        assert all(s is state_a for _, s in sim._timers)
        # The survivor keeps progressing.
        before = len(state_a.stats.iteration_times)
        for _ in range(40):
            t = sim.next_event_time()
            if t is None or len(state_a.stats.iteration_times) > before:
                break
            sim.advance_to(t)
        assert len(state_a.stats.iteration_times) > before
