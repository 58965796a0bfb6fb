"""Scenario hot-loop kernelization (ISSUE 6).

Equivalence and feature gates for the persistent substrate flow kernel,
the fleet-scale scenario machinery (wall-clock durations, analytic
fast-forward), the process-wide warm caches, the weighted iteration
statistics, and the LP assembly dispatch:

* kernel vs the reference allocator (``repro.oracles``): byte-identical
  ``ScenarioResult`` JSON on staggered multi-job scenarios with
  mid-scenario link cuts (spec fault events), across seeds;
* wall-clock trace durations produce run-length-encoded iteration logs
  that round-trip through JSON;
* fast-forward on/off agree on iteration counts and makespan;
* warm caches change wall time only, never results;
* event stepping costs the same at any clock offset (no flow creeps
  toward completion while the clock stands still);
* a shard admission that adopts its template's flow set registers
  exactly what a per-job build on the relabeled fabric would;
* the per-template solve memo returns what a fresh solve would, never
  serves a rerouted job or other capacities, and changes no result.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api.spec import ClusterSpec, FabricSpec
from repro.cluster import (
    ArrivalSpec,
    FaultEventSpec,
    FaultScheduleSpec,
    JobTemplateSpec,
    ScenarioSpec,
    run_scenario,
)
from repro.cluster.engine import ScenarioEngine
from repro.cluster.results import _weighted_percentile
from repro.models.configs import CONFIG_FAMILIES
from repro.obs import TRACER, ObsReport, TraceRecorder
from repro.oracles import ReferenceScenarioEngine
from repro.perf.fairshare import progressive_filling_rates
from repro.sim import cluster as sim_cluster
from repro.sim.cluster import (
    JobSpec,
    SharedClusterSimulator,
    _SubstrateFlowKernel,
)
from repro.sim.flows import FlowSet
from repro.sim.network_sim import traffic_paths


def result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_reference(spec: ScenarioSpec):
    """``spec`` run with every substrate on the seed allocator."""
    return ReferenceScenarioEngine(spec).run()


def staggered_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec.preset("shared").with_overrides({
        "seed": seed,
        "arrivals.times": [0.0, 40.0, 95.0],
        "jobs.0.iterations": 5,
        "jobs.1.iterations": 5,
        "jobs.2.iterations": 5,
    })


def with_link_cuts(spec, *cuts):
    """``spec`` with one ``kind="link"`` fault event per keyword dict."""
    events = tuple(FaultEventSpec(kind="link", **cut) for cut in cuts)
    return replace(spec, faults=FaultScheduleSpec(events=events))


class TestKernelMatchesReference:
    def test_staggered_failures_byte_identical_across_seeds(self):
        period = run_scenario(
            staggered_spec(0)
        ).jobs[0].iteration_avg_s
        cuts = (
            dict(time_s=1.5 * period, job_index=0, repair_s=3.5 * period),
            # Job 1 arrives at t=40; hit it mid-flight.
            dict(time_s=40.0 + 1.5 * period, job_index=1),
        )
        for seed in (0, 1, 2):
            kernel = run_scenario(
                with_link_cuts(staggered_spec(seed), *cuts)
            )
            reference = run_reference(
                with_link_cuts(staggered_spec(seed), *cuts)
            )
            assert result_json(kernel) == result_json(reference)
            # The failures really happened (not skipped) in both runs.
            kinds = [entry["kind"] for entry in kernel.failure_log]
            assert "skipped" not in kinds and len(kinds) == 3

    def test_failure_before_first_phase_byte_identical(self):
        # A cut that lands while job 0 is still in its first compute
        # phase patches routing before any flow is registered: the
        # first registration must compile from the patched fabric,
        # not adopt the template's healthy flow set.
        healthy = run_scenario(staggered_spec(0))
        job = healthy.jobs[0]
        cut = dict(time_s=0.5 * job.compute_s, job_index=0)
        kernel = run_scenario(
            with_link_cuts(staggered_spec(0), cut)
        )
        reference = run_reference(
            with_link_cuts(staggered_spec(0), cut)
        )
        assert kernel.failure_log[0]["kind"] == "mp_detour"
        assert result_json(kernel) == result_json(reference)
        first = kernel.jobs[0].iteration_times[0]
        assert first > job.iteration_times[0] * 1.001

    def test_shared_fabric_contention_byte_identical(self):
        # The fattree substrate is shared: all jobs' flows contend in
        # one fair-share solve, the path where the persistent flow
        # kernel replaces the per-event solver rebuild.
        spec = ScenarioSpec(
            name="kernel-vs-reference-shared",
            cluster=ClusterSpec(servers=32, degree=4, bandwidth_gbps=100.0),
            fabric=FabricSpec(kind="fattree"),
            arrivals=ArrivalSpec(
                process="explicit", times=(0.0, 0.1, 17.0, 44.0)
            ),
            jobs=(
                JobTemplateSpec(model="DLRM", servers=8, iterations=4),
                JobTemplateSpec(model="BERT", servers=8, iterations=4),
                JobTemplateSpec(model="CANDLE", servers=8, iterations=4),
                JobTemplateSpec(model="VGG16", servers=8, iterations=4),
            ),
        )
        for seed in (0, 7):
            kernel = run_scenario(spec.with_overrides({"seed": seed}))
            reference = run_reference(spec.with_overrides({"seed": seed}))
            assert result_json(kernel) == result_json(reference)


def offset_spec(t0: float) -> ScenarioSpec:
    """The staggered three-job scenario shifted to start at ``t0``."""
    return ScenarioSpec.preset("shared").with_overrides({
        "arrivals.times": [t0, t0 + 40.0, t0 + 95.0],
        "jobs.0.iterations": 5,
        "jobs.1.iterations": 5,
        "jobs.2.iterations": 5,
        "max_sim_time_s": 4e7,
    })


class TestLongHorizonStepping:
    """Beyond ~16,000 s half a ULP of the clock exceeds the 1e-12 s
    step pad: a flow whose projected finish rounds back to ``now`` must
    still complete at that event instead of creeping 1e-12 s per event.
    """

    def test_event_count_independent_of_clock_offset(self, monkeypatch):
        events = []
        advance_to = SharedClusterSimulator.advance_to

        def counted(sim, target):
            events.append((id(sim), target))
            return advance_to(sim, target)

        monkeypatch.setattr(SharedClusterSimulator, "advance_to", counted)
        counts = []
        for t0 in (0.0, 1e5, 2e6, 3e7):
            events.clear()
            run_scenario(offset_spec(t0))
            counts.append(len(events))
            # No substrate steps twice at one instant: every event
            # completes a flow or fires a timer.
            assert len(set(events)) == len(events), t0
        assert counts == [counts[0]] * 4

    @pytest.mark.parametrize("t0", [0.0, 1e5, 2e6])
    def test_kernel_matches_reference_at_offset(self, t0):
        kernel = run_scenario(offset_spec(t0))
        reference = run_reference(offset_spec(t0))
        assert result_json(kernel) == result_json(reference)


def first_phase_kernel(substrate, job):
    """Run ``job`` alone into its first communication phase and solve."""
    substrate.add_job(job, start=0.0)
    substrate.advance_to(substrate.next_event_time())
    substrate.next_event_time()
    return substrate._kernel


class TestShardFlowTemplates:
    @pytest.mark.parametrize("model", sorted(CONFIG_FAMILIES["shared"]))
    def test_adopted_template_equals_per_job_build(self, model):
        spec = ScenarioSpec.preset("shared").with_overrides({
            "arrivals.times": [0.0],
            "jobs.0.model": model,
        })
        engine = ScenarioEngine(spec)
        assert engine.shardable
        plan = engine._draw_jobs()[0]
        servers = spec.cluster.servers
        for size in (2, 4, 6, 8):
            prepared = engine._prepare(replace(plan, servers=size))
            for start in (0, 3, servers - size):
                block = tuple(range(start, start + size))
                substrate, job = engine._place(plan.name, prepared, block)
                adopted = first_phase_kernel(substrate, job)
                assert job.flows is prepared.flows
                assert adopted._incidence is prepared.flows.matrices()[0]
                substrate, job = engine._place(plan.name, prepared, block)
                built = first_phase_kernel(
                    substrate, replace(job, flows=None)
                )
                for mine, theirs in (
                    (adopted._incidence, built._incidence),
                    (adopted._incidence_t, built._incidence_t),
                ):
                    assert np.array_equal(mine.data, theirs.data)
                    assert np.array_equal(mine.indices, theirs.indices)
                    assert np.array_equal(mine.indptr, theirs.indptr)
                assert np.array_equal(adopted._size, built._size)


def storm_spec(policy: str, seed: int = 0) -> ScenarioSpec:
    """Eight overlapping jobs on 16 servers under a host + link storm.

    Two shard sizes of every shared-scale model, so each template's
    shards repeat its flow set; the storms kill hosts and cut ring
    links of running jobs, recovered by ``policy``.
    """
    jobs = tuple(
        JobTemplateSpec(model=model, servers=size, iterations=12)
        for model in ("DLRM", "BERT", "CANDLE", "VGG16")
        for size in (2, 4)
    )
    return ScenarioSpec(
        name=f"memo-storm-{policy}",
        seed=seed,
        cluster=ClusterSpec(servers=16, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(
            process="explicit", times=tuple(0.05 * i for i in range(8))
        ),
        jobs=jobs,
    ).with_overrides({
        "storms": 3,
        "storm_window_s": 0.6,
        "storm_region_size": 16,
        "storm_servers": 1,
        "storm_links": 2,
        "mean_repair_s": 0.3,
        "recovery_policy": policy,
        "checkpoint_interval_s": 0.1,
    })


def scenario_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def force_memo_misses(monkeypatch) -> None:
    """Every memo lookup misses (the memo still fills)."""
    monkeypatch.setattr(FlowSet, "memo_rates", lambda flows, key: None)


def shard_template(model: str = "DLRM", servers: int = 4):
    """The (warm-cached) pipeline output of a one-job shard template."""
    spec = ScenarioSpec.preset("shared").with_overrides({
        "arrivals.times": [0.0],
        "jobs.0.model": model,
        "jobs.0.servers": servers,
    })
    engine = ScenarioEngine(spec)
    return engine._prepare(engine._draw_jobs()[0])


class TestRateMemo:
    """Isolated shards replay their template's active masks, so the
    kernel memoizes solves on the adopted flow set."""

    def test_every_hit_equals_a_fresh_solve(self, monkeypatch):
        hits = []
        memo_rates = FlowSet.memo_rates
        resolve = _SubstrateFlowKernel._resolve_rates

        def recorded(flows, key):
            rates = memo_rates(flows, key)
            if rates is not None:
                hits.append(rates)
            return rates

        def checked(kernel):
            before = len(hits)
            resolve(kernel)
            if len(hits) == before:
                return
            fresh = progressive_filling_rates(
                kernel._cap_vec,
                kernel._incidence,
                kernel._active,
                incidence_t=kernel._incidence_t,
            )
            assert kernel._rates.tobytes() == fresh.tobytes()
            assert kernel._rates is hits[-1]
            for stored in kernel._sole_set._rate_memo.values():
                assert not np.shares_memory(kernel._rates, stored)

        monkeypatch.setattr(FlowSet, "memo_rates", recorded)
        monkeypatch.setattr(_SubstrateFlowKernel, "_resolve_rates", checked)
        for policy in ("detour", "reoptimize", "checkpoint-restart"):
            run_scenario(storm_spec(policy))
        assert len(hits) > 100

    @pytest.mark.parametrize("first_phase", [True, False])
    def test_rerouted_job_never_reads_its_template_memo(
        self, monkeypatch, first_phase
    ):
        # Once a detoured job's flows are recompiled from the patched
        # fabric, its kernel must stop consulting the template's memo:
        # same capacities, often the same mask bytes, other paths.  A
        # cut in the first compute phase recompiles before the template
        # was ever registered; one a few iterations in, after.
        templates = {}
        shard_flows = ScenarioEngine._shard_flows

        def collected(prepared):
            flows = shard_flows(prepared)
            templates[id(flows)] = flows
            return flows

        # Kernels are kept alive here so their ids are never reused.
        rerouted = {}
        template_reads = []
        solves = []
        solving = []
        register = _SubstrateFlowKernel.register
        resolve = _SubstrateFlowKernel._resolve_rates
        memo_rates = FlowSet.memo_rates

        def tracked_register(kernel, flows):
            if id(flows) not in templates:
                rerouted[id(kernel)] = kernel
            return register(kernel, flows)

        def tracked_resolve(kernel):
            if id(kernel) in rerouted:
                solves.append(kernel)
            solving.append(kernel)
            try:
                resolve(kernel)
            finally:
                solving.pop()

        def tracked_memo(flows, key):
            if id(solving[-1]) in rerouted:
                template_reads.append(id(flows) in templates)
            return memo_rates(flows, key)

        monkeypatch.setattr(
            ScenarioEngine, "_shard_flows", staticmethod(collected)
        )
        monkeypatch.setattr(_SubstrateFlowKernel, "register", tracked_register)
        monkeypatch.setattr(
            _SubstrateFlowKernel, "_resolve_rates", tracked_resolve
        )
        monkeypatch.setattr(FlowSet, "memo_rates", tracked_memo)
        spec = staggered_spec(0)
        healthy = run_scenario(spec).jobs[0]
        cut_s = (
            0.5 * healthy.compute_s if first_phase
            else 3.5 * healthy.iteration_avg_s
        )
        cut = dict(time_s=cut_s, job_index=0)
        memoized = run_scenario(with_link_cuts(spec, cut))
        assert memoized.failure_log[0]["kind"] == "mp_detour"
        assert rerouted and solves, "no rerouted kernel solved"
        assert not any(template_reads)
        reference = run_reference(
            with_link_cuts(staggered_spec(0), cut)
        )
        assert result_json(memoized) == result_json(reference)

    def test_rerouted_shard_memoizes_its_own_rates(self, monkeypatch):
        # A cut mid-phase marks job 0's columns stale; once they are
        # released nothing is live, so the recompiled set registers at
        # column 0 as the kernel's sole set and the job's later
        # iterations hit that set's memo.  Registered behind the dead
        # columns instead, every completion re-solved (406 solves once
        # the template's memo is warm).
        solves = []

        def counted(*args, **kwargs):
            solves.append(1)
            return progressive_filling_rates(*args, **kwargs)

        spec = ScenarioSpec.preset("shared").with_overrides({
            "servers": 8, "elastic": True, "jobs.0.iterations": 60,
        })
        cut = with_link_cuts(
            spec, dict(time_s=0.3, job_index=0, link=(1, 2))
        )
        run_scenario(spec)  # warms the template's memo
        monkeypatch.setattr(
            sim_cluster, "progressive_filling_rates", counted
        )
        memoized = run_scenario(cut)
        assert [e["kind"] for e in memoized.failure_log] == ["mp_detour"]
        assert len(solves) <= 11
        force_memo_misses(monkeypatch)
        assert scenario_json(run_scenario(cut)) == scenario_json(memoized)

    def test_different_capacities_miss(self):
        prepared = shard_template()
        fabric = prepared.fabric
        capacities = fabric.capacities()
        halved = {link: 0.5 * cap for link, cap in capacities.items()}
        flows = FlowSet.from_paths(
            *traffic_paths(fabric, prepared.traffic), capacities
        )

        def solved(caps):
            job = JobSpec(
                "memo", prepared.traffic, prepared.compute_s, fabric,
                flows=flows,
            )
            sim = SharedClusterSimulator(caps)
            return first_phase_kernel(sim, job)

        with TRACER.recording(TraceRecorder()) as recorder:
            full = solved(capacities)
            assert recorder.counters.get("flow.solve_memo_hits", 0) == 0
            again = solved(capacities)
            assert recorder.counters["flow.solve_memo_hits"] == 1
            # A hit hands out a copy: scribbling on it must not leak
            # into the memo the next admission reads.
            again._rates[:] = -1.0
            half = solved(halved)
            assert recorder.counters["flow.solve_memo_hits"] == 1
            third = solved(capacities)
            assert recorder.counters["flow.solve_memo_hits"] == 2
        assert third._rates.tobytes() == full._rates.tobytes()
        fresh = progressive_filling_rates(
            half._cap_vec, half._incidence, half._active,
            incidence_t=half._incidence_t,
        )
        assert half._rates.tobytes() == fresh.tobytes()
        assert not np.array_equal(half._rates, full._rates)

    @pytest.mark.parametrize(
        "policy", ["detour", "reoptimize", "checkpoint-restart"]
    )
    def test_forced_misses_byte_identical(self, monkeypatch, policy):
        spec = storm_spec(policy)
        memoized = run_scenario(spec)
        kinds = {entry["kind"] for entry in memoized.failure_log}
        assert kinds & {"mp_detour", "link_cut"}, kinds
        assert "server_fail" in kinds
        force_memo_misses(monkeypatch)
        assert scenario_json(run_scenario(spec)) == scenario_json(memoized)

    def test_memo_carries_most_solves(self, monkeypatch):
        # The count gate: a hit is still a ``flow.solve`` (same span
        # count as solving everything), and on a storm of repeated
        # templates the memo must carry at least 90% of the solves.
        spec = storm_spec("detour", seed=5)
        with monkeypatch.context() as patch:
            force_memo_misses(patch)
            with TRACER.recording() as recorder:
                run_scenario(spec)
            missed = ObsReport.build(recorder)
        with TRACER.recording() as recorder:
            run_scenario(spec)
        memoized = ObsReport.build(recorder)
        solves = memoized.spans["flow.solve"]["count"]
        assert solves == missed.spans["flow.solve"]["count"]
        assert "flow.solve_memo_hits" not in missed.counters
        hits = memoized.counters["flow.solve_memo_hits"]
        assert 0.9 * solves <= hits < solves


class TestKernelPortSwapRoundTrip:
    def test_repair_restores_iteration_time_under_kernel(self):
        # Satellite: the transient-detour -> permanent-port-swap cycle
        # must round-trip under the kernel solver: post-repair
        # iterations match the healthy ones exactly.
        spec = staggered_spec(0)
        period = run_scenario(spec).jobs[0].iteration_avg_s
        result = run_scenario(with_link_cuts(
            spec,
            dict(time_s=1.5 * period, job_index=0, repair_s=3.5 * period),
        ))
        kinds = [entry["kind"] for entry in result.failure_log]
        assert kinds == ["mp_detour", "port_swap"]
        times = result.jobs[0].iteration_times
        healthy = times[0]
        assert max(times) > healthy * 1.01       # the detour bit
        assert times[-1] == pytest.approx(healthy, rel=1e-9)

    def test_multi_failure_sequence_under_kernel(self):
        # Two cuts on the same job, repaired in order; the job still
        # finishes its quota and the log shows the full sequence.
        spec = staggered_spec(0)
        period = run_scenario(spec).jobs[0].iteration_avg_s
        result = run_scenario(with_link_cuts(
            spec,
            dict(time_s=1.2 * period, job_index=0, repair_s=3.2 * period),
            dict(time_s=2.2 * period, job_index=0, repair_s=4.2 * period),
        ))
        kinds = [entry["kind"] for entry in result.failure_log]
        assert kinds.count("mp_detour") + kinds.count("link_cut") >= 1
        assert result.jobs[0].iterations_completed == 5


class TestWallclockDurations:
    def spec(self):
        return ScenarioSpec.preset("lifetime").with_overrides({
            "arrivals.count": 5,
            "arrivals.durations": "wallclock",
            "fast_forward": True,
            "max_sim_time_s": 4e7,
        })

    def test_jobs_run_their_traced_hours(self):
        result = run_scenario(self.spec())
        assert len(result.jobs) == 5
        for job in result.jobs:
            assert job.duration_s is not None and job.duration_s > 0
            # The job departs at the first iteration boundary at or
            # past its deadline; queueing can only push it later.
            assert job.completed_s - job.arrival_s >= job.duration_s * 0.999
            assert job.iteration_counts is not None
            assert sum(job.iteration_counts) == job.iterations_completed
            assert len(job.iteration_counts) == len(job.iteration_times)

    def test_rle_iteration_log_round_trips(self):
        from repro.cluster.results import ScenarioResult

        result = run_scenario(self.spec())
        data = result.to_dict()
        # Months of iterations compress to a handful of RLE segments.
        for job in data["jobs"]:
            assert len(job["iteration_times"]) < 64
        restored = ScenarioResult.from_dict(data)
        assert restored.to_dict() == data

    def test_wallclock_requires_trace_process(self):
        from repro.api.spec import SpecError

        with pytest.raises(SpecError, match="wallclock"):
            ArrivalSpec(process="poisson", durations="wallclock")


class TestFastForward:
    def test_quota_mode_matches_step_by_step(self):
        base = ScenarioSpec.preset("lifetime").with_overrides({
            "arrivals.count": 6,
            "max_sim_time_s": 4e5,
        })
        stepped = run_scenario(base)
        jumped = run_scenario(base.with_overrides({"fast_forward": True}))
        assert len(stepped.jobs) == len(jumped.jobs)
        for a, b in zip(stepped.jobs, jumped.jobs):
            assert a.iterations_completed == b.iterations_completed
            assert b.completed_s == pytest.approx(a.completed_s, rel=1e-9)
        assert jumped.makespan_s == pytest.approx(
            stepped.makespan_s, rel=1e-9
        )

    def test_requires_topoopt_fabric(self):
        from repro.api.spec import SpecError

        with pytest.raises(SpecError, match="fast_forward"):
            ScenarioSpec(
                fabric=FabricSpec(kind="fattree"), fast_forward=True
            )


class TestWarmCaches:
    def test_warm_rerun_is_byte_identical(self):
        from repro.perf.warmcache import PIPELINE_CACHE, clear_all

        clear_all()
        spec = ScenarioSpec.preset("shared")
        cold = run_scenario(spec)
        cold_misses = PIPELINE_CACHE.misses
        assert cold_misses > 0
        warm = run_scenario(spec)
        # A switch scenario shares its TopoOpt twin's entries.
        twin = spec.with_overrides({"fabric": "fattree"})
        warm_twin = run_scenario(twin)
        assert PIPELINE_CACHE.misses == cold_misses  # all hits
        assert PIPELINE_CACHE.hits > 0
        assert (
            json.dumps(cold.to_dict(), sort_keys=True)
            == json.dumps(warm.to_dict(), sort_keys=True)
        )
        clear_all()
        assert result_json(warm_twin) == result_json(run_scenario(twin))

    def test_costmodel_kernel_reused_per_fabric(self):
        from repro.network.fattree import FatTreeFabric
        from repro.perf.warmcache import kernel_for

        fabric = FatTreeFabric(16, 4, 100e9)
        twin = FatTreeFabric(16, 4, 100e9)
        assert kernel_for(fabric) is kernel_for(twin)

    def test_lru_eviction_bounds_size(self):
        from repro.perf.warmcache import WarmCache

        cache = WarmCache(maxsize=2)
        for key in range(5):
            cache.get_or_build(key, lambda k=key: k * 10)
        assert len(cache) == 2
        assert cache.get_or_build(4, lambda: -1) == 40  # still cached


class TestWeightedPercentile:
    def test_matches_numpy_on_expanded_samples(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.1, 5.0, size=40)
        counts = rng.integers(1, 6, size=40)
        expanded = np.repeat(values, counts)
        for q in (0.0, 25.0, 50.0, 99.0, 100.0):
            assert _weighted_percentile(values, counts, q) == pytest.approx(
                float(np.percentile(expanded, q)), rel=1e-12
            )

    def test_unit_counts_degenerate_to_plain_percentile(self):
        values = np.array([3.0, 1.0, 2.0])
        counts = np.ones(3)
        assert _weighted_percentile(values, counts, 50.0) == 2.0


class TestLpAssemblyDispatch:
    def test_dense_and_sparse_paths_agree(self, monkeypatch):
        from repro.core import routing_lp

        volumes = [2.0, 1.0]
        paths = [[[0, 1], [0, 2, 1]], [[1, 2]]]
        capacities = {
            (0, 1): 10.0, (0, 2): 10.0, (2, 1): 10.0, (1, 2): 10.0
        }
        dense = routing_lp.assemble_lp_constraints(
            volumes, paths, capacities
        )
        assert isinstance(dense[0], np.ndarray)
        monkeypatch.setattr(routing_lp, "DENSE_ASSEMBLY_MAX_VARS", 0)
        sparse_out = routing_lp.assemble_lp_constraints(
            volumes, paths, capacities
        )
        assert not isinstance(sparse_out[0], np.ndarray)
        assert np.array_equal(sparse_out[0].toarray(), dense[0])
        assert np.array_equal(sparse_out[2].toarray(), dense[2])
        assert np.array_equal(sparse_out[1], dense[1])
        assert np.array_equal(sparse_out[3], dense[3])
        assert sparse_out[4] == dense[4] and sparse_out[5] == dense[5]
