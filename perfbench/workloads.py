"""Request generation and request execution for the three workloads.

Every workload is a list of request lines -- canonical JSON specs --
made from ``(seed, seconds)`` before any timing starts.  ``seconds``
sizes the list through a rate calibrated on a 2-vCPU machine, so a run
does fixed work for a given ``(seed, seconds)`` and ``wall_s`` stays
inverse throughput.  The seed changes every request (spec seeds,
order, popularity), but each list is stratified -- a fixed model x size
grid repeated, a fixed universe shape -- so the work per run varies
little across seeds.

``run_pass`` drives one closed-loop client over the lines: read a line,
parse it, call the public entry point, serialize the response, then
send the next one.  ``check_pass`` verifies the outputs afterwards.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import repro.api.runner as runner
import repro.cluster.engine as engine
from repro.api.spec import (
    ClusterSpec, ExperimentSpec, FabricSpec, OptimizerSpec, WorkloadSpec,
)
from repro.cluster.invariants import check_scenario_invariants
from repro.cluster.spec import (
    ArrivalSpec, JobTemplateSpec, ScenarioSpec, SchedulerSpec,
)
from repro.perf import warmcache
from repro.service import BatchExecutor, ResultStore
from repro.service.executor import ServiceError, spec_from_request

MODELS = ("DLRM", "BERT", "CANDLE", "VGG16")

# Requests one client completes per second on a 2-vCPU machine; they
# turn ``--seconds`` into a fixed request count.
COSEARCH_REQUESTS_PER_S = 12
FLEET_REQUESTS_PER_S = 5
SERVE_REQUESTS_PER_S = 1300

#: cosearch cells and their weights.  DLRM's cost jumps with the server
#: count (26-30 servers take 1.4-3.5 s against 0.3 s at 32), so it keeps
#: sizes whose cost grows smoothly.  The weights put each percentile
#: near the middle of one cell rather than on a cell's slowest request:
#: DLRM at 32 and 24 servers, the costliest cells, are the top ~19% of
#: the requests, and p90 falls near the middle of DLRM at 24 servers.
COSEARCH_CELLS = ((("DLRM", 32), 1), (("DLRM", 24), 8)) + tuple(
    ((model, servers), 3)
    for model, sizes in (
        ("DLRM", (16,)),
        ("BERT", (16, 24, 32, 40)),
        ("CANDLE", (16, 24, 32, 40)),
        ("VGG16", (16, 24, 32, 40)),
    )
    for servers in sizes
)
#: fleet jobs cycle through every model at every shard size.
FLEET_CELLS = tuple((model, size) for model in MODELS for size in (2, 4, 6, 8))
#: fleet scenario size: 128 servers and jobs, ~0.2 s each, so a 25 s
#: run sends 125 scenarios and p90 has twelve samples beyond it.
FLEET_SERVERS = 128
FLEET_STORMS = 4
#: serve experiments: fixed ``auto`` strategy, 2-15 ms to compute.
#: TopoOpt stops at 32 servers and leaves out DLRM: its multi-hop
#: iteration cost 25-90 ms at 64 servers and ~0.5 s for DLRM, and a
#: handful of those set the workload's wall time.
SERVE_EXPERIMENT_CELLS = tuple(
    (model, servers, "fattree")
    for model in MODELS for servers in (16, 32, 64)
) + tuple(
    (model, servers, "topoopt")
    for model in ("BERT", "CANDLE", "VGG16") for servers in (16, 32)
)
# serve: unique specs per 1,000 requests, and the memory tier's share
# of the universe.  Zipf(1.1) then serves ~81% of requests from memory,
# ~16% from disk and computes ~2.4%, which puts p50 inside the memory
# hits and p90 near the middle of the disk hits -- never on a route's
# own tail.
SERVE_UNIVERSE_PER_1K = 24
SERVE_MEMORY_FRACTION = 3
SERVE_ZIPF_S = 1.1


def request_line(spec) -> str:
    """One request line: the spec's canonical JSON."""
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


def cosearch_spec(model: str, servers: int, seed: int,
                  iterations: int = 100, rounds: int = 2) -> ExperimentSpec:
    """One co-optimization request: MCMC x TopologyFinder on TopoOpt,
    timed against the cost-equivalent Fat-tree and OCS-reconfig."""
    return ExperimentSpec(
        name=f"cosearch-{model.lower()}-{servers}",
        seed=seed,
        workload=WorkloadSpec(model=model, scale="shared"),
        cluster=ClusterSpec(servers=servers, degree=4),
        fabric=FabricSpec(kind="topoopt"),
        optimizer=OptimizerSpec(
            strategy="mcmc", rounds=rounds, mcmc_iterations=iterations,
        ),
        baselines=(FabricSpec(kind="fattree"),
                   FabricSpec(kind="ocs-reconfig")),
    )


def fleet_spec(servers: int, seed: int, storms: int) -> ScenarioSpec:
    """A fleet scenario: ``scenario_fleet``'s shape plus a fault storm.

    Servers = jobs, arriving with exponential 2 h gaps, best-fit on
    TopoOpt shards with fast-forward.  The job population is stratified:
    jobs cycle through every model at 2-8-server shards in a seeded
    order, each with a log-normal iteration quota (median 200k).  The
    production-trace population made one scenario's cost hinge on how
    many large DLRM shards it drew -- every fault or repair makes each
    running job step one iteration, and a large DLRM iteration is
    hundreds of events.  Storms land over the first 80% of the arrival
    window, each killing a host and cutting a link; hit jobs are
    re-optimized.
    """
    rng = random.Random(seed)
    cells = [FLEET_CELLS[i % len(FLEET_CELLS)] for i in range(servers)]
    rng.shuffle(cells)
    clock, times, templates = 0.0, [], []
    for model, size in cells:
        clock += rng.expovariate(1.0 / 7200.0)
        times.append(round(clock, 3))
        templates.append(JobTemplateSpec(
            model=model, servers=size,
            iterations=max(1, round(rng.lognormvariate(math.log(2e5), 1.0))),
        ))
    spec = ScenarioSpec(
        name=f"fleet-{servers}",
        seed=seed,
        cluster=ClusterSpec(servers=servers, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(process="explicit", times=tuple(times)),
        jobs=tuple(templates),
        scheduler=SchedulerSpec(policy="best-fit"),
        max_sim_time_s=4e7,
        fast_forward=True,
    )
    if not storms:
        return spec
    return spec.with_overrides({
        "storms": storms,
        "storm_window_s": 0.8 * clock,
        "storm_region_size": 8,
        "storm_servers": 1,
        "storm_links": 1,
        "mean_repair_s": 2e4,
        "recovery_policy": "reoptimize",
    })


def serve_experiment(cell, seed: int, name: str) -> ExperimentSpec:
    """A cheap experiment: fixed ``auto`` strategy, no search."""
    model, servers, fabric = cell
    return ExperimentSpec(
        name=name,
        seed=seed,
        workload=WorkloadSpec(model=model, scale="testbed"),
        cluster=ClusterSpec(servers=servers, degree=4),
        fabric=FabricSpec(kind=fabric),
        optimizer=OptimizerSpec(strategy="auto"),
    )


def serve_scenario(fabric: str, seed: int, name: str) -> ScenarioSpec:
    """A small scenario: four jobs, two iterations each, 32 servers."""
    return ScenarioSpec(
        name=name,
        seed=seed,
        cluster=ClusterSpec(servers=32, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind=fabric),
        arrivals=ArrivalSpec(
            process="poisson", count=4, mean_interarrival_s=30.0,
        ),
        jobs=tuple(
            JobTemplateSpec(model=m, servers=8, iterations=2) for m in MODELS
        ),
    )


def cosearch_requests(seed: int, seconds: int) -> List[str]:
    rng = random.Random(f"cosearch:{seed}")
    weight = sum(w for _, w in COSEARCH_CELLS)
    reps = max(1, round(seconds * COSEARCH_REQUESTS_PER_S / weight))
    cells = [cell for cell, w in COSEARCH_CELLS for _ in range(w * reps)]
    rng.shuffle(cells)
    return [
        request_line(cosearch_spec(model, servers, rng.randrange(2 ** 31)))
        for model, servers in cells
    ]


def fleet_requests(seed: int, seconds: int) -> List[str]:
    rng = random.Random(f"fleet:{seed}")
    count = max(1, round(seconds * FLEET_REQUESTS_PER_S))
    return [
        request_line(fleet_spec(FLEET_SERVERS, rng.randrange(2 ** 31),
                                storms=FLEET_STORMS))
        for _ in range(count)
    ]


def serve_requests(seed: int, seconds: int) -> List[str]:
    """A Zipf(1.1) stream over a universe of cheap specs.

    Popularity rank ``r`` holds a scenario when ``r % 4 == 3`` and an
    experiment otherwise, cycling through the cells in a fixed order,
    so the hot specs are of the same kinds for every seed; the seed
    sets every spec's seed and draws the stream.
    """
    rng = random.Random(f"serve:{seed}")
    requests = seconds * SERVE_REQUESTS_PER_S
    size = max(8, requests * SERVE_UNIVERSE_PER_1K // 1000)
    universe, experiments = [], 0
    for rank in range(size):
        name, spec_seed = f"serve-{rank}", rng.randrange(2 ** 31)
        if rank % 4 == 3:
            fabric = ("topoopt", "fattree")[rank // 4 % 2]
            spec = serve_scenario(fabric, spec_seed, name)
        else:
            cell = SERVE_EXPERIMENT_CELLS[
                experiments % len(SERVE_EXPERIMENT_CELLS)
            ]
            experiments += 1
            spec = serve_experiment(cell, spec_seed, name)
        universe.append(request_line(spec))
    weights = [1.0 / rank ** SERVE_ZIPF_S for rank in range(1, size + 1)]
    return rng.choices(universe, weights=weights, k=requests)


GENERATORS = {
    "cosearch": cosearch_requests,
    "fleet": fleet_requests,
    "serve": serve_requests,
}


def warmup_lines(workload: str, seed: int = 0) -> List[str]:
    """Small fixed requests run before timing.

    They load every code path and fill the process-level caches the
    timed requests reuse -- per-size permutation sets for every
    ``cosearch`` cell, the engine's pipeline for every ``fleet`` job
    template -- so the timed pass measures a warm client, and every
    run's pass starts from the same state.  ``seed`` sets the spec
    seeds of the ``cosearch`` requests.
    """
    if workload == "cosearch":
        return [
            request_line(cosearch_spec(model, servers, seed, iterations=10))
            for (model, servers), _ in COSEARCH_CELLS
        ]
    if workload == "fleet":
        return [request_line(fleet_spec(16, 0, storms=1))]
    warm = [serve_experiment(cell, 0, "warm") for cell in (
        ("BERT", 16, "topoopt"), ("DLRM", 16, "fattree"))]
    warm += [serve_scenario(fabric, 0, "warm")
             for fabric in ("topoopt", "fattree")]
    # The repeated first spec is served from the store.
    return [request_line(spec) for spec in warm + warm[:1]]


def warm_up(workload: str, work_dir: Path) -> None:
    """Run the warm-up requests of ``warmup_lines``.

    ``cosearch`` repeats them with other spec seeds until the
    process-wide cost-model cache is full.  Every co-optimization
    compiles kernels for its new topologies into that bounded cache, so
    a long-lived client runs with it at capacity; a pass that started
    with it part-empty saw the heap, and with it the garbage collector's
    full-collection pauses (40 ms growing to 160 ms), grow over its
    first ~50 requests.
    """
    run_pass(workload, warmup_lines(workload), work_dir)
    if workload != "cosearch":
        return
    for seed in range(1, 9):
        cache = warmcache.stats()["costmodel"]
        if cache["size"] >= cache["maxsize"]:
            return
        run_pass(workload, warmup_lines(workload, seed), work_dir)


# ----------------------------------------------------------------------
# One closed-loop pass
# ----------------------------------------------------------------------

@dataclass
class Pass:
    """What one pass over the request lines produced."""

    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    digest: str = ""
    bytes: int = 0
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Failed output checks, one message each.
    failures: List[str] = field(default_factory=list)
    #: Served bodies kept for the end-of-pass checks, by request index:
    #: cosearch's replay probe, serve's sampled store hits.
    kept: Dict[int, str] = field(default_factory=dict)


def _no_span(name: str, **args):
    return nullcontext()


def serialize(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_pass(workload: str, lines: List[str], work_dir: Path,
             tracer=None) -> Pass:
    """Drive one closed-loop client over ``lines``.

    ``tracer`` (a :class:`layers.Ledger`) wraps the client's own steps
    in spans; ``None`` runs them bare.  The heap is collected first.
    Each response is checked right after it is served, with the clock
    stopped, and then dropped: results held for the whole pass would
    grow the heap and the garbage collector's pauses with it.
    """
    gc.collect()
    out = Pass()
    digest = hashlib.sha256()
    span = tracer.span if tracer is not None else _no_span
    if workload == "serve":
        _serve_pass(lines, work_dir, out, digest, span, tracer)
    else:
        _compute_pass(workload, lines, out, digest, span)
    out.digest = digest.hexdigest()
    return out


def _compute_pass(workload, lines, out, digest, span) -> None:
    cosearch = workload == "cosearch"
    inspect = _inspect_experiment if cosearch else _inspect_scenario
    out.counts = {"requests": len(lines)}
    paused = 0.0
    start = time.perf_counter()
    for index, line in enumerate(lines):
        began = time.perf_counter()
        with span("bench.request", id=index):
            with span("bench.parse"):
                data = json.loads(line)
                spec = (ExperimentSpec.from_dict(data) if cosearch
                        else ScenarioSpec.from_dict(data))
            # Looked up per call so the traced run's wrappers apply.
            result = (runner.run_experiment(spec) if cosearch
                      else engine.run_scenario(spec))
            with span("bench.serialize"):
                body = serialize(result)
        ended = time.perf_counter()
        out.latencies_s.append(ended - began)
        digest.update(body.encode())
        out.bytes += len(body)
        inspect(index, result, out)
        if cosearch and index == len(lines) // 2:
            out.kept[index] = body
        paused += time.perf_counter() - ended
    out.wall_s = time.perf_counter() - start - paused


def _bump(counts: Dict[str, Any], **amounts) -> None:
    for key, amount in amounts.items():
        counts[key] = counts.get(key, 0) + amount


def _inspect_experiment(index: int, result, out: Pass) -> None:
    for timing in (result.fabric,) + tuple(result.baselines):
        if not (math.isfinite(timing.total_s) and timing.total_s > 0):
            out.failures.append(
                f"request {index}: {timing.kind} total_s={timing.total_s!r}"
            )
    optimizer = result.spec.optimizer
    _bump(
        out.counts,
        mcmc_proposals=len(result.search.rounds)
        * optimizer.mcmc_iterations * optimizer.mcmc_restarts,
        fabric_timings=1 + len(result.baselines),
    )


def _inspect_scenario(index: int, result, out: Pass) -> None:
    expected = len(result.spec.arrivals.times)
    if len(result.jobs) != expected or result.unfinished_jobs:
        out.failures.append(
            f"scenario {index}: {len(result.jobs)}/{expected} jobs drained, "
            f"{len(result.unfinished_jobs)} unfinished"
        )
    out.failures.extend(
        f"scenario {index}: {violation}"
        for violation in check_scenario_invariants(result)
    )
    faults = result.fault_metrics()
    if not faults.get("fault_events", 0):
        out.failures.append(f"scenario {index}: the storm landed no fault")
    _bump(
        out.counts,
        jobs=len(result.jobs),
        fault_events=faults.get("fault_events", 0),
        fault_suspensions=faults.get("fault_suspensions", 0),
        sim_days=result.makespan_s / 86400.0,
    )


def _serve_pass(lines, work_dir, out, digest, span, tracer) -> None:
    root = work_dir / "store"
    shutil.rmtree(root, ignore_errors=True)
    store = ResultStore(
        root=root,
        memory_entries=max(1, len(set(lines)) // SERVE_MEMORY_FRACTION),
    )
    handed = tracer.store_proxy(store) if tracer is not None else store
    routes = {"store": 0, "compute": 0, "dedup": 0}
    # Keep one store-served body from each quarter of the stream.
    every = max(1, len(lines) // 4)
    # One request is in flight at a time, so the executor computes in
    # the caller's thread: the thread executor adds two thread hand-offs
    # per miss, whose wake-up latency on a shared 2-vCPU host made p99
    # swing ~2x as much as the wall time did (9.2-11.5 ms against
    # 7.6-8.8 ms over the same five seeds).
    try:
        with BatchExecutor(store=handed, executor="serial") as service:
            start = time.perf_counter()
            for index, line in enumerate(lines):
                began = time.perf_counter()
                with span("bench.request", id=index):
                    with span("bench.parse"):
                        spec = spec_from_request(json.loads(line))
                    request = service.submit(spec)
                    try:
                        result = request.result()
                    except ServiceError as error:
                        out.failures.append(f"request {index}: {error}")
                        result = None
                    with span("bench.serialize"):
                        body = serialize(result) if result is not None else ""
                out.latencies_s.append(time.perf_counter() - began)
                routes[request.route] += 1
                digest.update(body.encode())
                out.bytes += len(body)
                if (request.route == "store"
                        and len(out.kept) < (index + 1) // every):
                    out.kept[index] = body
            out.wall_s = time.perf_counter() - start
            report = service.report(wall_s=out.wall_s)
        stats = store.stats()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out.counts = {
        "requests": len(lines),
        "unique_specs": len(set(lines)),
        "routes": routes,
        "computed": report.computed,
        "service_errors": report.errors,
        "store": {key: stats[key] for key in (
            "memory_hits", "disk_hits", "misses", "puts", "evictions")},
    }


def _fresh(spec):
    if isinstance(spec, ScenarioSpec):
        return serialize(engine.run_scenario(spec))
    return serialize(runner.run_experiment(spec))


def check_pass(workload: str, lines: List[str], done: Pass) -> List[str]:
    """Every failed output check of a pass, one message each.

    Per-response checks ran during the pass; this adds the end-of-pass
    ones: cosearch replays one request and serve recomputes its sampled
    store hits, both of which must match the served bytes exactly.
    """
    failures = list(done.failures)
    if workload == "serve":
        counts = done.counts
        if counts["service_errors"]:
            failures.append(f"{counts['service_errors']} request errors")
        if counts["computed"] != counts["unique_specs"]:
            failures.append(
                f"computed {counts['computed']} != unique specs "
                f"{counts['unique_specs']}"
            )
        if not done.kept:
            failures.append("no store-served response was sampled")
    for index, body in done.kept.items():
        if _fresh(spec_from_request(json.loads(lines[index]))) != body:
            failures.append(
                f"request {index}: a fresh compute differs from the served "
                f"JSON"
            )
    return failures
