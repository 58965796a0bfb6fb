"""Micro-benchmarks for the kernel layer, and the table that gates them.

:data:`BENCH_ENTRIES` is the one place that says what each entry runs
and must satisfy: its runner, its sizes at each scale (``smoke`` for
``python -m repro.cli bench-smoke``, ``full`` for
``benchmarks/bench_perf_kernels.py``, which writes
``BENCH_kernels.json``) and its gate rows.  :func:`run_benchmarks`
runs one scale and :func:`gate_failures` checks its results tree.

Each runner's docstring says what it measures.  Most time a seed
reference (:mod:`repro.oracles`) against the runtime kernel on
identical inputs and record the speedup next to an equivalence check;
``scenario_fleet``, ``scheduler_sweep``, ``scenario_storm``,
``service_throughput`` and ``obs_overhead`` have no reference side and
record absolute numbers and behavioural checks.
"""

from __future__ import annotations

import json
import operator
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.topology import DirectConnectTopology
from repro.sim.flows import Flow
from repro.sim.fluid import compile_phase, simulate_phase

GBPS = 1e9

#: The job mix of the scenario and service entries.
MODELS = ("DLRM", "BERT", "CANDLE", "VGG16")


def ring_topology(n: int, degree: int = 4) -> DirectConnectTopology:
    """TotientPerms-style fabric: ``degree`` coprime-stride rings."""
    topo = DirectConnectTopology(n, degree)
    laid = 0
    for stride in (1, 3, 5, 7, 9, 11, 13, 17):
        if laid >= degree:
            break
        if np.gcd(stride, n) != 1:
            continue
        topo.add_ring([(i * stride) % n for i in range(n)])
        laid += 1
    if laid == 0:  # pragma: no cover - n would have to be even & tiny
        topo.add_ring(list(range(n)))
    return topo


def alltoall_flows(
    topo: DirectConnectTopology, ecmp_cap: int = 4, bits: float = 1e9
) -> List[Flow]:
    """Uniform all-to-all demand split over minimum-hop ECMP paths."""
    flows: List[Flow] = []
    for src in range(topo.n):
        for dst, paths in topo.min_hop_paths_from(src, ecmp_cap).items():
            share = bits / len(paths)
            for path in paths:
                flows.append(Flow(path=tuple(path), size_bits=share))
    return flows


def staggered_phase_flows(
    topo: DirectConnectTopology,
    seed: int = 1,
    chunks: int = 16,
    mp_peers: int = 8,
) -> List[Flow]:
    """A realistic staggered phase: chunked AllReduce plus MP flows.

    TopoOpt's dominant traffic is ring AllReduce over dedicated ring
    edges (one hop per flow) with a lighter model-parallel component
    between power-of-two-offset peers (section 2.2 of the paper).
    Splitting each ring edge's volume into ``chunks`` independently
    sized flows and jittering every size gives a phase where *all*
    completions land at distinct times -- the workload shape that makes
    per-event full rate recomputation ruinous.
    """
    rng = np.random.default_rng(seed)
    flows: List[Flow] = []
    for src, dst, count in topo.edges():
        for _ in range(count * chunks):
            flows.append(Flow(
                path=(src, dst),
                size_bits=1e9 * float(rng.uniform(0.5, 1.5)),
                kind="allreduce",
            ))
    for src in range(topo.n):
        pathmap = topo.min_hop_paths_from(src, 1)
        for k in range(mp_peers):
            dst = (src + (1 << k)) % topo.n
            if dst == src or dst not in pathmap:
                continue
            flows.append(Flow(
                path=tuple(pathmap[dst][0]),
                size_bits=1e9 * float(rng.uniform(0.5, 1.5)),
                kind="mp",
            ))
    return flows


def bench_staggered_phase(n: int, degree: int = 4, chunks: int = 16) -> Dict:
    """All-distinct-completion phase; n=64 is the acceptance target.

    Both sides run the exact same :class:`repro.sim.events.
    FlowEventEngine` event loop; the reference
    (:class:`repro.oracles.BatchFlowEventEngine`) re-solves max-min
    rates from scratch on every completion while the vectorized side
    (:func:`repro.sim.fluid.simulate_phase`) hands over to the
    incremental solver after its second single-flow completion and
    repairs the allocation from then on.
    """
    from repro.oracles import BatchFlowEventEngine

    topo = ring_topology(n, degree)
    capacities = {
        (s, d): count * 100 * GBPS for s, d, count in topo.edges()
    }
    flows_ref = staggered_phase_flows(topo, chunks=chunks)
    start = time.perf_counter()
    makespan_ref = BatchFlowEventEngine(
        capacities,
        compile_phase(
            capacities,
            [flow.path for flow in flows_ref],
            [flow.size_bits for flow in flows_ref],
        ),
    ).run()
    reference_s = time.perf_counter() - start
    flows_inc = staggered_phase_flows(topo, chunks=chunks)
    start = time.perf_counter()
    makespan_inc = simulate_phase(capacities, flows_inc, False)
    vectorized_s = time.perf_counter() - start
    rel_err = abs(makespan_ref - makespan_inc) / max(makespan_ref, 1e-12)
    return _record(
        reference_s,
        vectorized_s,
        flows=len(flows_ref),
        links=len(capacities),
        makespan_rel_err=float(rel_err),
    )


def _record(reference_s: float, vectorized_s: float, **extra) -> Dict:
    entry = {
        "reference_s": round(reference_s, 6),
        "vectorized_s": round(vectorized_s, 6),
        "speedup": round(reference_s / max(vectorized_s, 1e-12), 2),
    }
    entry.update(extra)
    return entry


def bench_phase_sim(n: int, degree: int = 4) -> Dict:
    """64-server all-to-all phase simulation is the acceptance target."""
    from repro.oracles import simulate_phase_reference

    topo = ring_topology(n, degree)
    capacities = {
        (s, d): count * 100 * GBPS for s, d, count in topo.edges()
    }
    flows_ref = alltoall_flows(topo)
    start = time.perf_counter()
    makespan_ref = simulate_phase_reference(capacities, flows_ref, False)
    reference_s = time.perf_counter() - start
    flows_vec = alltoall_flows(topo)
    start = time.perf_counter()
    makespan_vec = simulate_phase(capacities, flows_vec, False)
    vectorized_s = time.perf_counter() - start
    rel_err = abs(makespan_ref - makespan_vec) / max(makespan_ref, 1e-12)
    return _record(
        reference_s,
        vectorized_s,
        flows=len(flows_ref),
        links=len(capacities),
        makespan_rel_err=float(rel_err),
    )


def bench_routing(n: int, degree: int = 4, ecmp_cap: int = 6) -> Dict:
    """All-pairs ECMP construction; n=128 is the acceptance target.

    The seed per-pair BFS against the all-sources array DP
    (:meth:`~repro.network.topology.DirectConnectTopology.
    min_hop_routes`), the form routing construction uses; the path
    lists the equivalence check compares are built after the clock
    stops.
    """
    from repro.oracles import all_shortest_paths_bfs

    topo = ring_topology(n, degree)
    start = time.perf_counter()
    reference: Dict[Tuple[int, int], List[List[int]]] = {}
    for src in range(n):
        for dst in range(n):
            if src != dst:
                reference[(src, dst)] = all_shortest_paths_bfs(
                    topo, src, dst, ecmp_cap
                )
    reference_s = time.perf_counter() - start
    # Invalidate caches so the batched side pays its full cost too.
    topo._adjacency_cache = None
    topo._hops_cache = None
    topo._pred_cache = None
    start = time.perf_counter()
    routes = topo.min_hop_routes(ecmp_cap)
    vectorized_s = time.perf_counter() - start
    batched = {
        (src, dst): paths
        for src in range(n)
        for dst, paths in routes.paths_from(src).items()
    }
    hop_match = set(reference) == set(batched) and all(
        len(reference[pair][0]) == len(batched[pair][0])
        for pair in reference
        if reference[pair] and batched[pair]
    )
    return _record(
        reference_s,
        vectorized_s,
        pairs=len(reference),
        hop_counts_match=bool(hop_match),
    )


def bench_lp_assembly(
    n: int, degree: int = 4, ecmp_cap: int = 4, peers: int = 8
) -> Dict:
    """Constraint-matrix assembly for the routing LP (dense vs sparse).

    Demand is a ``peers``-regular MP matrix (each server talks to a few
    power-of-two-offset peers, the paper's typical MP pattern) rather
    than all-to-all: the dense reference is O(pairs * vars) memory, and
    at n=128 the all-to-all formulation is a multi-GB allocation -- the
    exact wall the sparse assembly removes.
    """
    from repro.core.routing_lp import assemble_lp_constraints
    from repro.oracles import dense_lp_assembly

    topo = ring_topology(n, degree)
    capacities = {
        (s, d): count * 100 * GBPS for s, d, count in topo.edges()
    }
    demand = np.zeros((n, n))
    offsets = [1 << k for k in range(peers) if (1 << k) < n]
    for src in range(n):
        for off in offsets:
            demand[src, (src + off) % n] = 1e9
    pair_paths: Dict[Tuple[int, int], List[List[int]]] = {}
    for src in range(n):
        row = demand[src]
        for dst, paths in topo.min_hop_paths_from(src, ecmp_cap).items():
            if row[dst] > 0:
                pair_paths[(src, dst)] = paths

    start = time.perf_counter()
    a_eq_dense, a_ub_dense = dense_lp_assembly(
        demand, capacities, pair_paths
    )
    reference_s = time.perf_counter() - start

    pairs = sorted(pair_paths)
    volumes = [float(demand[pair]) for pair in pairs]
    paths = [pair_paths[pair] for pair in pairs]
    start = time.perf_counter()
    a_eq, _, a_ub, _, _, t_index = assemble_lp_constraints(
        volumes, paths, capacities
    )
    vectorized_s = time.perf_counter() - start
    def as_dense(mat):
        return mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)

    eq_match = np.allclose(as_dense(a_eq), a_eq_dense)
    ub_match = np.allclose(as_dense(a_ub), a_ub_dense)
    return _record(
        reference_s,
        vectorized_s,
        variables=t_index + 1,
        matrices_match=bool(eq_match and ub_match),
    )


def _search_model():
    """DLRM-class workload: the paper's canonical MCMC search target."""
    from repro.models import build_dlrm

    return build_dlrm(
        num_embedding_tables=8,
        embedding_rows=200_000,
        embedding_dim=128,
        num_dense_layers=2,
        dense_layer_size=512,
        num_feature_layers=2,
        feature_layer_size=512,
        batch_per_gpu=32,
    )


def _search_fabric(model, search, n: int, degree: int = 4):
    """TopoOpt fabric built for the initial hybrid strategy's traffic."""
    from repro.core.topology_finder import topology_finder
    from repro.network.topoopt import TopoOptFabric
    from repro.parallel.traffic import extract_traffic

    traffic = extract_traffic(
        model, search.initial_strategy(), search.batch_per_gpu
    )
    result = topology_finder(
        n, degree, traffic.allreduce_groups, traffic.mp_matrix
    )
    return TopoOptFabric(result, 100 * GBPS)


def bench_mcmc_steps(n: int, iterations: int = 120) -> Dict:
    """MCMC steps/sec, full-rebuild vs incremental; n=64 is the gate.

    Both sides run the exact same Metropolis chain (same seed, same
    proposal stream): the reference
    (:class:`repro.oracles.ReferenceMCMCSearch`) re-extracts the traffic
    summary and re-routes every pair in pure Python per proposal, the
    vectorized side delta-updates the cached link-load vector through
    the sparse cost-model kernel.  Per-step costs must agree, so the
    whole trace doubles as an equivalence check.
    """
    from repro.oracles import ReferenceMCMCSearch
    from repro.parallel.mcmc import MCMCSearch

    model = _search_model()
    fabric = _search_fabric(model, MCMCSearch(model, n, seed=5), n)

    start = time.perf_counter()
    ref = ReferenceMCMCSearch(model, n, seed=5).search(fabric, iterations)
    reference_s = time.perf_counter() - start
    start = time.perf_counter()
    inc = MCMCSearch(model, n, seed=5).search(fabric, iterations)
    vectorized_s = time.perf_counter() - start
    ref_trace = np.asarray(ref.cost_trace)
    inc_trace = np.asarray(inc.cost_trace)
    cost_rel_err = float(np.max(
        np.abs(ref_trace - inc_trace) / np.maximum(np.abs(ref_trace), 1e-300)
    ))
    return _record(
        reference_s,
        vectorized_s,
        steps=iterations,
        reference_steps_per_s=round(iterations / max(reference_s, 1e-12), 1),
        vectorized_steps_per_s=round(iterations / max(vectorized_s, 1e-12), 1),
        cost_rel_err=cost_rel_err,
    )


def bench_alternating(n: int, rounds: int = 2, iterations: int = 60) -> Dict:
    """End-to-end alternating optimization, old vs new search plane.

    Same seed and Metropolis trajectory on both sides, so the two runs
    visit the same strategies and topologies; the final co-optimized
    costs must agree to float tolerance.  The reference side is
    :class:`repro.oracles.ReferenceAlternatingOptimizer` over a
    :class:`repro.oracles.ReferenceMCMCSearch`.
    """
    from repro.core.alternating import AlternatingOptimizer
    from repro.oracles import (
        ReferenceAlternatingOptimizer,
        ReferenceMCMCSearch,
    )
    from repro.parallel.mcmc import MCMCSearch

    model = _search_model()

    def run(optimizer_class, search_class):
        search = search_class(model, num_servers=n, seed=3)
        optimizer = optimizer_class(
            num_servers=n,
            degree=4,
            link_bandwidth_bps=100 * GBPS,
            search=search,
            max_rounds=rounds,
            mcmc_iterations=iterations,
        )
        start = time.perf_counter()
        result = optimizer.run()
        return time.perf_counter() - start, result

    reference_s, ref = run(ReferenceAlternatingOptimizer, ReferenceMCMCSearch)
    vectorized_s, inc = run(AlternatingOptimizer, MCMCSearch)
    cost_rel_err = abs(ref.cost_s - inc.cost_s) / max(abs(ref.cost_s), 1e-300)
    return _record(
        reference_s,
        vectorized_s,
        rounds=len(inc.rounds),
        mcmc_iterations=iterations,
        cost_rel_err=float(cost_rel_err),
    )


def _fattree_scenario(
    name: str, n: int, num_jobs: int, job_servers: int, iterations: int,
):
    """``num_jobs`` jobs arriving at t=0 on ``n`` shared Fat-tree servers.

    Its templates are the first ``num_jobs`` entries of :data:`MODELS`
    (all four when more jobs arrive), each on ``job_servers`` servers.
    """
    from repro.cluster import ArrivalSpec, JobTemplateSpec, ScenarioSpec
    from repro.api.spec import ClusterSpec, FabricSpec

    return ScenarioSpec(
        name=name,
        cluster=ClusterSpec(servers=n, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="fattree"),
        arrivals=ArrivalSpec(process="explicit", times=(0.0,) * num_jobs),
        jobs=tuple(
            JobTemplateSpec(
                model=model, servers=job_servers, iterations=iterations
            )
            for model in MODELS[:num_jobs]
        ),
    )


def bench_scenario(n: int, iterations: int = 2) -> Dict:
    """Multi-job shared-cluster scenario, reference vs kernel allocator.

    Runs the Figure 16 job mix (one 8-server shard per job, as many
    jobs as fit ``n`` servers) through the scenario engine on a shared
    cost-equivalent Fat-tree -- the substrate where every completion
    event re-solves the max-min allocation over *all* jobs' flows.  The
    reference side drives the seed pure-Python allocator
    (:class:`repro.oracles.ReferenceScenarioEngine`), the vectorized
    side the sparse progressive-filling kernel (:func:`run_scenario`);
    iteration times must agree to float tolerance.

    The same entry doubles as the determinism gate: the kernel run is
    repeated with an identical (spec, seed) and the two result JSONs
    must be byte-identical (``deterministic``).
    """
    from repro.cluster.engine import run_scenario
    from repro.oracles import ReferenceScenarioEngine

    num_jobs = max(n // 8, 2)
    spec = _fattree_scenario(
        f"bench-scenario-n{n}", n, num_jobs, 8, iterations
    )
    # Untimed warm-up: populates the process-wide pipeline/kernel warm
    # caches (repro.perf.warmcache) so both timed runs measure the
    # engine, not one-time template compilation -- and so run order
    # cannot favour whichever side runs second.
    run_scenario(spec)
    start = time.perf_counter()
    ref = ReferenceScenarioEngine(spec).run()
    reference_s = time.perf_counter() - start
    start = time.perf_counter()
    vec = run_scenario(spec)
    vectorized_s = time.perf_counter() - start
    repeat = run_scenario(spec)
    deterministic = (
        json.dumps(vec.to_dict(), sort_keys=True)
        == json.dumps(repeat.to_dict(), sort_keys=True)
    )
    ref_avg, ref_p99 = ref.iteration_stats()
    vec_avg, vec_p99 = vec.iteration_stats()
    rel_err = max(
        abs(ref_avg - vec_avg) / max(abs(ref_avg), 1e-300),
        abs(ref_p99 - vec_p99) / max(abs(ref_p99), 1e-300),
    )
    return _record(
        reference_s,
        vectorized_s,
        jobs=num_jobs,
        iterations=iterations,
        deterministic=bool(deterministic),
        iteration_rel_err=float(rel_err),
    )


def _trace_scenario(
    name: str, n: int, jobs: int, interarrival_s: float,
    max_sim_time_s: float,
):
    """``n`` best-fit TopoOpt servers ingesting ``jobs`` trace jobs.

    The production trace (section 2.2 population) with wall-clock
    durations, fast-forwarded through steady-state iterations.
    """
    from repro.cluster import ArrivalSpec, JobTemplateSpec, ScenarioSpec
    from repro.cluster.spec import SchedulerSpec
    from repro.api.spec import ClusterSpec, FabricSpec

    return ScenarioSpec(
        name=name,
        cluster=ClusterSpec(servers=n, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(
            process="trace", count=jobs, mean_interarrival_s=interarrival_s,
            max_servers=16, durations="wallclock",
        ),
        jobs=tuple(JobTemplateSpec(model=m, servers=8) for m in MODELS),
        scheduler=SchedulerSpec(policy="best-fit"),
        max_sim_time_s=max_sim_time_s,
        fast_forward=True,
    )


def bench_scenario_fleet(n: int = 1000) -> Dict:
    """Fleet-scale trace scenario: months of cluster time, one number.

    ``n`` servers ingest ``n`` production-trace jobs (section 2.2
    population) with *wall-clock* durations -- the trace's
    ``duration_hours`` field, median ~20 h -- arriving over weeks, on
    best-fit optical shards with analytic fast-forward through
    steady-state iterations.  There is no reference side: the seed
    engine stepped every iteration of every job individually, which at
    this scale is billions of events; the entry records absolute wall
    time and the simulated-to-wall ratio instead of a speedup.
    """
    from repro.cluster.engine import run_scenario

    spec = _trace_scenario(f"bench-fleet-n{n}", n, n, 7200.0, 4e7)
    start = time.perf_counter()
    result = run_scenario(spec)
    wall_s = time.perf_counter() - start
    makespan_days = result.makespan_s / 86400.0
    return {
        "wall_s": round(wall_s, 3),
        "servers": n,
        "jobs_submitted": n,
        "jobs_completed": len(result.jobs),
        "makespan_days": round(makespan_days, 2),
        "sim_days_per_wall_s": round(
            makespan_days / max(wall_s, 1e-12), 2
        ),
        "mean_utilization": round(result.mean_utilization(), 4),
    }


def bench_scheduler_sweep(n: int = 64) -> Dict:
    """Policy plane drain gate: 100 trace jobs x every queue policy.

    ``n`` servers ingest a 100-job production trace (section 2.2
    population, wall-clock durations) under each queue discipline --
    FCFS, EASY backfill, conservative backfill -- plus the EASY run
    repeated with an identical (spec, seed) as the determinism probe.
    The record says whether every policy drained the full trace, the
    repeat was byte-identical, and backfill strictly beat FCFS on
    mean queueing delay on a canonical head-of-line-blocking trace
    (the golden scheduler scenario, where a 24-server job blocks two
    8-server jobs behind a long-running 16-server one).
    """
    from repro.cluster.engine import run_scenario
    from repro.cluster.invariants import golden_scenario_spec
    from repro.cluster.spec import QUEUE_POLICIES

    jobs = 100
    # ~20 h median durations x ~12 servers / 4 h interarrival is near
    # saturation on 64 servers: the queue backs up (policies actually
    # differ) without a standing backlog that would make the
    # conservative O(queue) walk the benchmark instead of the policy.
    spec = _trace_scenario(
        f"bench-scheduler-sweep-n{n}", n, jobs, 14400.0, 4e7
    )
    record: Dict = {"servers": n, "jobs": jobs}
    drained = True
    start_all = time.perf_counter()
    for queue in QUEUE_POLICIES:
        policy_spec = spec.with_overrides({"queue": queue})
        start = time.perf_counter()
        result = run_scenario(policy_spec)
        record[f"{queue}_wall_s"] = round(
            time.perf_counter() - start, 3
        )
        record[f"{queue}_queueing_avg_s"] = round(
            result.metrics()["queueing_avg_s"], 3
        )
        drained = drained and len(result.jobs) == jobs
        if queue == "easy":
            repeat = run_scenario(policy_spec)
            record["deterministic"] = (
                json.dumps(result.to_dict(), sort_keys=True)
                == json.dumps(repeat.to_dict(), sort_keys=True)
            )
    record["drained"] = bool(drained)
    fcfs_hol = run_scenario(golden_scenario_spec("fcfs"))
    easy_hol = run_scenario(golden_scenario_spec("easy"))
    record["backfill_beats_fcfs"] = bool(
        easy_hol.metrics()["queueing_avg_s"]
        < fcfs_hol.metrics()["queueing_avg_s"]
    )
    record["wall_s"] = round(time.perf_counter() - start_all, 3)
    return record


def bench_scenario_storm(n: int = 64) -> Dict:
    """Failure-storm drain gate: correlated faults x recovery policies.

    ``n`` servers ingest the 100-job wall-clock trace from
    :func:`bench_scheduler_sweep` while a declared fault schedule
    (:class:`repro.cluster.faults.FaultScheduleSpec`) lands correlated
    storms -- host deaths plus ring-link cuts inside a rack-sized
    region -- across the busy part of the timeline.  Each recovery
    policy (detour / reoptimize / checkpoint-restart) must drain the
    full trace with zero invariant violations (which includes the
    checkpoint lost-work bound), the storm schedule must actually bite
    (>= 20 applied fault events under at least one policy), and the
    detour run repeated with identical (spec, seed) must be
    byte-identical JSON.
    """
    from repro.cluster.engine import run_scenario
    from repro.cluster.invariants import check_scenario_invariants
    from repro.cluster.faults import RECOVERY_POLICIES

    jobs = 100
    spec = _trace_scenario(
        f"bench-scenario-storm-n{n}", n, jobs, 14400.0, 2e8
    )
    # Storms over the first ~23 simulated days: arrivals span ~17 days
    # (100 x 4 h), so every storm lands while the cluster is busy.
    spec = spec.with_overrides({
        "storms": 8,
        "storm_window_s": 2e6,
        "storm_region_size": 8,
        "storm_servers": 2,
        "storm_links": 2,
        "mean_repair_s": 2e4,
        "checkpoint_interval_s": 1800.0,
    })
    record: Dict = {"servers": n, "jobs": jobs}
    drained = True
    violations = 0
    max_fault_events = 0
    start_all = time.perf_counter()
    for policy in RECOVERY_POLICIES:
        policy_spec = spec.with_overrides({"recovery_policy": policy})
        start = time.perf_counter()
        result = run_scenario(policy_spec)
        key = policy.replace("-", "_")
        record[f"{key}_wall_s"] = round(time.perf_counter() - start, 3)
        fault = result.fault_metrics()
        record[f"{key}_fault_events"] = fault["fault_events"]
        record[f"{key}_lost_work_s"] = round(fault["lost_work_s"], 3)
        max_fault_events = max(max_fault_events, fault["fault_events"])
        drained = drained and (
            len(result.jobs) == jobs and not result.unfinished_jobs
        )
        violations += len(check_scenario_invariants(result))
        if policy == "detour":
            repeat = run_scenario(policy_spec)
            record["deterministic"] = (
                json.dumps(result.to_dict(), sort_keys=True)
                == json.dumps(repeat.to_dict(), sort_keys=True)
            )
    record["drained"] = bool(drained)
    record["invariant_violations"] = violations
    record["fault_events"] = max_fault_events
    record["storm_bites"] = bool(max_fault_events >= 20)
    record["wall_s"] = round(time.perf_counter() - start_all, 3)
    return record


def bench_service_throughput(n: int = 16) -> Dict:
    """Serving-loop throughput gate: Zipf request mix, cold vs warm.

    Models the optimization-as-a-service workload (``docs/service.md``):
    a fixed universe of 8 cheap experiment specs (fixed-strategy, no
    baselines, ``n`` servers) receives 64 requests drawn
    Zipf-distributed over popularity rank (weight of rank ``r`` is
    ``1/r^1.1``, seeded ``default_rng`` -- deterministic), the mix real
    request streams show: a few hot specs dominate, a long tail stays
    cold.  The **cold** drain starts from an empty
    :class:`~repro.service.store.ResultStore` (thread pool, in-flight
    dedup does the coalescing); the **warm** drain replays the same 64
    requests against the now-populated store.

    Three fields carry gates (:data:`BENCH_ENTRIES`): ``warm_speedup``
    (warm specs/sec over cold), ``dedup_exact`` (the cold drain
    launched exactly one computation per *unique* spec -- the dedup
    counter's proof obligation), and ``byte_identical`` (a store-served
    result's JSON equals a freshly computed one's, byte for byte).
    """
    from repro.api.runner import run_experiment
    from repro.api.spec import (
        ClusterSpec, ExperimentSpec, FabricSpec, OptimizerSpec,
        WorkloadSpec,
    )
    from repro.service import BatchExecutor, ResultStore

    universe_size, request_count, zipf_s = 8, 64, 1.1
    universe = [
        ExperimentSpec(
            name=f"bench-service-{i}",
            seed=i,
            workload=WorkloadSpec(
                model=MODELS[i % len(MODELS)], scale="testbed"
            ),
            cluster=ClusterSpec(servers=n, degree=4, bandwidth_gbps=100.0),
            fabric=FabricSpec(kind="fattree"),
            optimizer=OptimizerSpec(strategy="auto"),
            baselines=(),
        )
        for i in range(universe_size)
    ]
    ranks = np.arange(1, universe_size + 1, dtype=float)
    weights = 1.0 / ranks ** zipf_s
    weights /= weights.sum()
    rng = np.random.default_rng(7)
    draws = rng.choice(universe_size, size=request_count, p=weights)
    requests = [universe[i] for i in draws]
    unique = len(set(draws.tolist()))

    store = ResultStore()
    start = time.perf_counter()
    with BatchExecutor(
        store=store, executor="thread", max_workers=8
    ) as service:
        service.drain(requests)
        cold_wall = time.perf_counter() - start
        cold = service.report(wall_s=cold_wall)
    start = time.perf_counter()
    with BatchExecutor(
        store=store, executor="thread", max_workers=8
    ) as service:
        service.drain(requests)
        warm_wall = time.perf_counter() - start
        warm = service.report(wall_s=warm_wall)

    probe = requests[0]
    byte_identical = (
        json.dumps(store.get(probe).to_dict(), sort_keys=True)
        == json.dumps(run_experiment(probe).to_dict(), sort_keys=True)
    )
    return {
        "servers": n,
        "universe": universe_size,
        "requests": request_count,
        "unique_requested": unique,
        "computed": cold.computed,
        "deduplicated": cold.deduplicated,
        "cold_store_hits": cold.store_hits,
        "dedup_exact": bool(
            cold.computed == unique and cold.errors == 0
        ),
        "byte_identical": bool(byte_identical),
        "cold_specs_per_s": cold.specs_per_s,
        "warm_specs_per_s": warm.specs_per_s,
        "cold_p99_ms": cold.latency_p99_ms,
        "warm_p99_ms": warm.latency_p99_ms,
        "warm_speedup": round(
            warm.specs_per_s / max(cold.specs_per_s, 1e-12), 2
        ),
        "wall_s": round(cold_wall + warm_wall, 3),
    }


def bench_obs_overhead(n: int = 64, iterations: int = 4,
                       pairs: int = 40) -> Dict:
    """Observability overhead gate: the scenario engine, tracing off vs on.

    Runs a shared Fat-tree scenario (one 16-server shard per job, as
    many jobs as fit ``n`` servers) with the observability plane
    disabled and again under a live
    :class:`repro.obs.TraceRecorder` -- engine-step spans, pipeline
    spans, scheduler counters, and per-link utilization timelines all
    recording.

    The enabled side measures the *hot path* under an ambient recorder
    (tracing left on in development): building an ObsReport or an
    export from the recorder is a separate step, not charged against
    the per-event budget.  Overhead is estimated from ``pairs`` adjacent
    disabled/enabled run pairs -- order flipped every pair so periodic
    background load cannot alias onto one side -- as the *median of
    the paired differences*: pairing cancels CPU-frequency drift, and
    a median over many short pairs resolves sub-noise overheads that a
    min-vs-min comparison of a few long runs cannot (single-run
    scheduler jitter here is routinely larger than the overhead being
    measured).  The ``noise_floor_s`` record field -- the median
    absolute difference between *consecutive disabled* runs -- says
    what resolution the estimate actually had.

    Two fields carry gates (:data:`BENCH_ENTRIES`): ``byte_identical``
    -- the traced run's result JSON must equal the untraced run's byte
    for byte (instrumentation must never perturb simulation state, RNG
    draws, or serialization) -- and ``overhead_pct`` (the spans and
    counters on the hot path must stay cheap enough to leave on in
    development).
    """
    from repro.cluster.engine import run_scenario
    from repro.obs import TRACER, TraceRecorder

    num_jobs = max(n // 16, 2)
    spec = _fattree_scenario(f"bench-obs-n{n}", n, num_jobs, 16, iterations)
    run_scenario(spec)  # warm-up: pipeline/kernel caches off the clock
    # GC pauses would land disproportionately on the enabled side
    # (spans and snapshots are allocations), so collection is off for
    # the whole measurement.
    import gc

    recorder = TraceRecorder()
    baseline = traced = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        def run_disabled() -> float:
            nonlocal baseline
            start = time.perf_counter()
            baseline = run_scenario(spec)
            return time.perf_counter() - start

        def run_enabled() -> float:
            nonlocal recorder, traced
            recorder = TraceRecorder()
            with TRACER.recording(recorder):
                start = time.perf_counter()
                traced = run_scenario(spec)
                return time.perf_counter() - start

        diffs: List[float] = []
        offs: List[float] = []
        nulls: List[float] = []
        prev_off = None
        for k in range(pairs):
            if k % 2 == 0:
                off_s = run_disabled()
                on_s = run_enabled()
            else:
                on_s = run_enabled()
                off_s = run_disabled()
            offs.append(off_s)
            diffs.append(on_s - off_s)
            if prev_off is not None:
                nulls.append(abs(off_s - prev_off))
            prev_off = off_s
    finally:
        if gc_was_enabled:
            gc.enable()
    byte_identical = (
        json.dumps(baseline.to_dict(), sort_keys=True)
        == json.dumps(traced.to_dict(), sort_keys=True)
    )
    recorder.flush()  # deferred producers (e.g. utilization timelines)
    median = statistics.median
    disabled_s = median(offs)
    overhead_s = median(diffs)
    return {
        "servers": n,
        "jobs": num_jobs,
        "pairs": pairs,
        "disabled_s": round(disabled_s, 6),
        "enabled_s": round(disabled_s + overhead_s, 6),
        "noise_floor_s": round(median(nulls), 6),
        "overhead_pct": round(
            overhead_s / max(disabled_s, 1e-12) * 100.0, 2
        ),
        "byte_identical": bool(byte_identical),
        "spans": len(recorder.spans),
        "counters": len(recorder.counters),
        "timelines": len(recorder.timelines),
    }


_COMPARE = {
    ">=": operator.ge, "<": operator.lt, "<=": operator.le, "==": operator.eq,
}


@dataclass(frozen=True)
class Gate:
    """One gate row: ``record[field] <op> bound`` must hold.

    ``record`` is the entry's result at ``n=size``.  ``op`` states the
    passing condition, so a NaN fails every numeric row.  ``bound`` is
    a constant or, as a string, another field of the same record.  The
    failure ``message`` is formatted with the record's fields and the
    whole record as ``record``.  A row applies at every scale that runs
    its size, or only at ``scale`` when one is given.
    """

    size: int
    field: str
    op: str
    bound: Any
    message: str
    scale: Optional[str] = None

    def passes(self, record: Dict) -> bool:
        bound = self.bound
        if isinstance(bound, str):
            bound = record[bound]
        return _COMPARE[self.op](record[self.field], bound)


@dataclass(frozen=True)
class BenchEntry:
    """A bench entry: its runner, its sizes at each scale, its gates."""

    run: Callable[[int], Dict]
    sizes: Dict[str, Tuple[int, ...]]
    gates: Tuple[Gate, ...]

    def gates_at(self, scale: str) -> List[Gate]:
        """The rows that apply at ``scale``."""
        return [
            gate for gate in self.gates
            if gate.size in self.sizes[scale] and gate.scale in (None, scale)
        ]


def _not_slower(name: str, scale: Optional[str] = None) -> Gate:
    return Gate(
        64, "speedup", ">=", 1.0,
        f"PERF REGRESSION: {name} slower than the seed implementation "
        f"at n=64",
        scale,
    )


#: Every benchmark entry, by name: what it runs, at which sizes, and
#: the gates its records must pass.  :func:`run_benchmarks`,
#: :func:`gate_failures` and the ``repro bench`` CLI all read it.
BENCH_ENTRIES: Dict[str, BenchEntry] = {
    # n=64 is the phase-simulation acceptance target.
    "phase_sim": BenchEntry(
        bench_phase_sim, {"smoke": (16, 64), "full": (16, 64, 128)}, (
            _not_slower("phase_sim", "smoke"),
            Gate(64, "speedup", ">=", 5.0,
                 "phase_sim n=64 speedup {speedup}x < 5x", "full"),
            Gate(64, "makespan_rel_err", "<", 1e-6,
                 "EQUIVALENCE REGRESSION: phase_sim makespan drifted from "
                 "the seed event loop"),
        ),
    ),
    # n=128 is the routing-construction acceptance target.
    "routing": BenchEntry(
        bench_routing, {"smoke": (16, 64), "full": (16, 64, 128)}, (
            _not_slower("routing"),
            Gate(64, "hop_counts_match", "==", True,
                 "EQUIVALENCE REGRESSION: batched ECMP hop counts differ "
                 "from the seed per-pair BFS"),
            Gate(128, "speedup", ">=", 5.0,
                 "routing n=128 speedup {speedup}x < 5x"),
        ),
    ),
    # No speedup row: below DENSE_ASSEMBLY_MAX_VARS variables the
    # production assembler takes a dense path that tracks the seed at
    # ~1x; the sparse win is memory, not time, until n is large.
    "lp_assembly": BenchEntry(
        bench_lp_assembly, {"smoke": (16, 64), "full": (16, 64, 128)}, (
            Gate(64, "matrices_match", "==", True,
                 "EQUIVALENCE REGRESSION: sparse routing-LP matrices differ "
                 "from the seed dense assembly"),
        ),
    ),
    # The batch baseline is quadratic-ish in events x flows, so n=128
    # would dominate the whole suite without changing the verdict.
    "staggered_phase": BenchEntry(
        bench_staggered_phase, {"smoke": (16, 64), "full": (16, 64)}, (
            _not_slower("staggered_phase", "smoke"),
            Gate(64, "speedup", ">=", 5.0,
                 "staggered_phase n=64 speedup {speedup}x < 5x", "full"),
            Gate(64, "makespan_rel_err", "<", 1e-6,
                 "EQUIVALENCE REGRESSION: staggered_phase makespan drifted "
                 "from the engine that never hands over"),
        ),
    ),
    # The full-rebuild baseline re-routes all n^2 pairs per proposal,
    # so n=128 would dominate the suite without changing the verdict.
    "mcmc_steps": BenchEntry(
        bench_mcmc_steps, {"smoke": (32, 64), "full": (32, 64)}, (
            _not_slower("mcmc_steps", "smoke"),
            Gate(64, "speedup", ">=", 5.0,
                 "mcmc_steps n=64 speedup {speedup}x < 5x", "full"),
            Gate(64, "cost_rel_err", "<", 1e-12,
                 "EQUIVALENCE REGRESSION: incremental MCMC costs drifted "
                 "from the full-rebuild oracle"),
        ),
    ),
    "alternating": BenchEntry(
        bench_alternating, {"smoke": (32, 64), "full": (32, 64)}, (
            _not_slower("alternating"),
            Gate(64, "cost_rel_err", "<", 1e-9,
                 "EQUIVALENCE REGRESSION: alternating optimization cost "
                 "drifted from the full-rebuild search plane"),
        ),
    ),
    # n=256 is where per-event solver rebuilds dominated the seed.
    "scenario": BenchEntry(
        bench_scenario, {"smoke": (16, 64), "full": (16, 64, 256)}, (
            Gate(64, "deterministic", "==", True,
                 "DETERMINISM REGRESSION: same (scenario spec, seed) "
                 "produced different result JSON"),
            Gate(64, "iteration_rel_err", "<", 1e-9,
                 "EQUIVALENCE REGRESSION: scenario kernel allocator drifted "
                 "from the pure-Python reference"),
            Gate(64, "speedup", ">=", 1.5,
                 "PERF REGRESSION: scenario kernel speedup {speedup}x at "
                 "n=64 under the 1.5x floor"),
            Gate(256, "speedup", ">=", 3.0,
                 "scenario n=256 speedup {speedup}x < 3x"),
            Gate(256, "deterministic", "==", True,
                 "scenario lost (spec, seed) determinism"),
            Gate(256, "iteration_rel_err", "==", 0.0,
                 "scenario n=256 iteration_rel_err {iteration_rel_err} != 0 "
                 "against the pure-Python reference"),
        ),
    ),
    # Servers, with jobs 1:1.  The full size is the headline config --
    # a 1000-server cluster ingesting 1000 trace jobs over months of
    # simulated time; the smoke size is the same shape capped for the
    # pre-merge budget.
    "scenario_fleet": BenchEntry(
        bench_scenario_fleet, {"smoke": (200,), "full": (1000,)}, (
            Gate(200, "jobs_completed", ">=", "jobs_submitted",
                 "FLEET REGRESSION: scenario_fleet completed "
                 "{jobs_completed}/{jobs_submitted} jobs (trace did not "
                 "drain)"),
            Gate(1000, "jobs_completed", "==", "jobs_submitted",
                 "fleet scenario stranded jobs: {record}"),
            Gate(1000, "wall_s", "<", 600.0,
                 "fleet scenario took {wall_s}s (> 10 minutes)"),
        ),
    ),
    # The last four entries run one size at both scales: their gates
    # are behavioural, not a scaling curve.
    "scheduler_sweep": BenchEntry(
        bench_scheduler_sweep, {"smoke": (64,), "full": (64,)}, (
            Gate(64, "drained", "==", True,
                 "SCHEDULER REGRESSION: a queue policy failed to drain the "
                 "100-job trace"),
            Gate(64, "deterministic", "==", True,
                 "DETERMINISM REGRESSION: same (spec, seed) under EASY "
                 "backfill produced different result JSON"),
            Gate(64, "backfill_beats_fcfs", "==", True,
                 "SCHEDULER REGRESSION: backfill no longer beats FCFS mean "
                 "queueing delay on the head-of-line-blocking trace"),
            Gate(64, "wall_s", "<=", 60.0,
                 "PERF REGRESSION: scheduler_sweep took {wall_s}s "
                 "(wall-time cap 60 s)"),
        ),
    ),
    "scenario_storm": BenchEntry(
        bench_scenario_storm, {"smoke": (64,), "full": (64,)}, (
            Gate(64, "drained", "==", True,
                 "RESILIENCE REGRESSION: a recovery policy failed to drain "
                 "the 100-job trace through the fault storm"),
            Gate(64, "deterministic", "==", True,
                 "DETERMINISM REGRESSION: same (spec, seed) under the fault "
                 "storm produced different result JSON"),
            Gate(64, "invariant_violations", "==", 0,
                 "RESILIENCE REGRESSION: {invariant_violations} "
                 "scheduler-invariant violations under the fault storm"),
            Gate(64, "storm_bites", "==", True,
                 "RESILIENCE REGRESSION: the storm schedule only landed "
                 "{fault_events} fault events (floor 20) -- the chaos gate "
                 "is no longer exercising recovery"),
        ),
    ),
    "service_throughput": BenchEntry(
        bench_service_throughput, {"smoke": (16,), "full": (16,)}, (
            Gate(16, "dedup_exact", "==", True,
                 "SERVICE REGRESSION: cold drain launched {computed} "
                 "computations for {unique_requested} unique specs "
                 "(in-flight dedup must coalesce duplicates onto one "
                 "computation)"),
            Gate(16, "byte_identical", "==", True,
                 "SERVICE REGRESSION: a store-served result's JSON differs "
                 "from a freshly computed one (content-addressed "
                 "memoization must be byte-identical)"),
            Gate(16, "warm_speedup", ">=", 5.0,
                 "SERVICE REGRESSION: warm drain only {warm_speedup}x cold "
                 "specs/sec (floor 5x) -- the result store is no longer "
                 "paying for itself"),
        ),
    ),
    "obs_overhead": BenchEntry(
        bench_obs_overhead, {"smoke": (64,), "full": (64,)}, (
            Gate(64, "byte_identical", "==", True,
                 "OBSERVABILITY REGRESSION: a traced scenario run's result "
                 "JSON differs from the untraced run's (instrumentation "
                 "must never perturb simulation results)"),
            Gate(64, "overhead_pct", "<", 10.0,
                 "PERF REGRESSION: tracing overhead {overhead_pct}% on the "
                 "scenario engine (cap 10%)"),
        ),
    ),
}


def run_benchmarks(
    scale: str,
    scenarios: Sequence[str] = tuple(BENCH_ENTRIES),
    wall_s: Optional[Dict[str, float]] = None,
) -> Dict:
    """Run the kernel micro-benchmarks at ``scale``; the results tree.

    Each entry runs at the sizes :data:`BENCH_ENTRIES` gives it for
    ``scale``.  ``wall_s``, when given, receives each entry's wall time
    in seconds under ``"<scenario> n=<size>"``.
    """
    results: Dict = {"scale": scale}
    for scenario in scenarios:
        entry = BENCH_ENTRIES[scenario]
        results[scenario] = {}
        for n in entry.sizes[scale]:
            start = time.perf_counter()
            results[scenario][f"n={n}"] = entry.run(n)
            if wall_s is not None:
                wall_s[f"{scenario} n={n}"] = time.perf_counter() - start
    return results


def gate_failures(results: Dict, scale: str) -> List[str]:
    """The message of every gate row of ``scale`` that ``results`` fails.

    ``results`` is a :func:`run_benchmarks` tree of that scale.  Every
    row is evaluated, so a run reports every failure, not the first.
    """
    failures = []
    for name, entry in BENCH_ENTRIES.items():
        for gate in entry.gates_at(scale):
            record = results[name][f"n={gate.size}"]
            if not gate.passes(record):
                failures.append(gate.message.format(record=record, **record))
    return failures


def format_results(results: Dict) -> List[str]:
    lines = ["kernel micro-benchmarks (reference vs vectorized)", ""]
    for scenario, per_size in results.items():
        if scenario == "scale":
            continue
        lines.append(f"{scenario}:")
        for size_key, entry in per_size.items():
            if "reference_s" in entry:
                lines.append(
                    f"  {size_key:>6}: ref {entry['reference_s']:8.4f}s  "
                    f"vec {entry['vectorized_s']:8.4f}s  "
                    f"speedup {entry['speedup']:6.1f}x"
                )
            else:
                # Entries without a reference side (e.g. the fleet
                # scenario) report absolute numbers.
                detail = "  ".join(
                    f"{key}={entry[key]}" for key in sorted(entry)
                )
                lines.append(f"  {size_key:>6}: {detail}")
        lines.append("")
    return lines


def write_results(results: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
