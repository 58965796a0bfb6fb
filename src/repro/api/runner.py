"""Run experiments: spec in, typed result out, plus the sweep engine.

:func:`run_experiment` drives the full TopoOpt pipeline for one
:class:`~repro.api.spec.ExperimentSpec`:

1. build the workload model (workload registry),
2. choose the parallelization strategy -- a fixed builder from the
   strategy registry, or the MCMC search (joint alternating optimization
   when the primary fabric is ``topoopt``),
3. extract traffic and build the primary fabric (fabric registry),
4. simulate one training iteration on the primary fabric and on every
   baseline fabric, and
5. return an :class:`~repro.api.results.ExperimentResult`.

:func:`run_sweep` expands a parameter grid over a base spec and runs
each point through :class:`repro.service.BatchExecutor` with a
deterministic per-point seed; :func:`compare_fabrics` times one
prepared experiment on a set of fabrics (the evaluation-harness
primitive behind ``repro compare`` and the ``bench_fig*`` drivers).
"""

from __future__ import annotations

import itertools
import json
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.api.registry import (
    STRATEGIES,
    FabricBuildContext,
    build_fabric,
    build_strategy,
    build_workload,
    fabric_entry,
    validate_fabric_options,
)
from repro.api.results import (
    ExperimentResult,
    FabricTiming,
    SearchSummary,
    StrategySummary,
    SweepPoint,
    SweepResult,
    TopologySummary,
    TrafficStats,
    WorkloadSummary,
)
from repro.api.spec import ExperimentSpec, FabricSpec
from repro.models.compute import compute_time_seconds
from repro.network.cost import architecture_cost
from repro.obs import TRACER
from repro.parallel.traffic import extract_traffic


@dataclass
class PreparedExperiment:
    """The mid-point of :func:`run_experiment`: strategy + traffic + fabric.

    Useful on its own when a driver needs the live objects (the traffic
    matrix for a ratio, the fabric for routing queries) rather than the
    serialized result -- the benchmark harness does.
    """

    spec: ExperimentSpec
    model: object
    batch_per_gpu: int
    compute_s: float
    strategy: object
    traffic: object
    fabric: object
    topology_result: Optional[object] = None
    search: Optional[SearchSummary] = None

    @property
    def context(self) -> FabricBuildContext:
        """A build context for additional fabrics on the same traffic.

        ``topology_result`` is exposed only when the primary fabric was
        a plain ``topoopt`` at the cluster's own dimensions with no
        options -- otherwise a fabric built from this context (which
        advertises the *cluster* dimensions) would silently reuse a
        topology computed at the primary's overridden degree/options.
        """
        spec = self.spec
        topology_result = self.topology_result
        if (
            spec.fabric.kind != "topoopt"
            or spec.fabric.options
            or (
                spec.fabric.degree is not None
                and spec.fabric.degree != spec.cluster.degree
            )
        ):
            topology_result = None
        return FabricBuildContext(
            num_servers=spec.cluster.servers,
            degree=spec.cluster.degree,
            link_bandwidth_bps=spec.cluster.link_bandwidth_bps,
            traffic=self.traffic,
            topology_result=topology_result,
            seed=spec.seed,
            options={"primes_only": spec.optimizer.primes_only},
        )


def time_fabric(
    fabric,
    traffic,
    compute_s: float,
    kind: str,
    bandwidth_gbps: Optional[float] = None,
    degree: Optional[int] = None,
    collect_link_bytes: bool = False,
) -> FabricTiming:
    """Simulate one iteration on ``fabric`` and price its interconnect.

    Fabrics exposing ``capacities()`` run through the max-min fluid
    simulator with a full phase breakdown; reconfigurable fabrics
    (``iteration_time``) report only a total.  The cost model is priced
    at the fabric's *own* degree/bandwidth attributes (so the
    cost-equivalent Fat-tree is priced as built -- one NIC at the
    equivalent bandwidth -- not as a full-bandwidth Fat-tree);
    ``degree``/``bandwidth_gbps`` only fill the gaps for fabrics that
    do not expose those attributes (``topoopt``).
    """
    from repro.sim.network_sim import simulate_iteration

    entry = fabric_entry(kind)
    link_bytes = None
    if entry.simulates_itself:
        total_s = fabric.iteration_time(
            traffic.mp_matrix.copy(),
            traffic.allreduce_matrix().copy(),
            compute_s,
        )
        mp_s = allreduce_s = None
    else:
        breakdown = simulate_iteration(
            fabric, traffic, compute_s,
            collect_link_bytes=collect_link_bytes,
        )
        total_s = breakdown.total_s
        mp_s = breakdown.mp_s
        allreduce_s = breakdown.allreduce_s
        if collect_link_bytes:
            link_bytes = tuple(
                (src, dst, volume)
                for (src, dst), volume in sorted(
                    breakdown.link_bytes.items()
                )
            )
    cost_usd = None
    if entry.cost_name is not None:
        n = fabric.num_servers
        d = getattr(fabric, "degree", None)
        if d is None:
            d = degree
        link_bps = getattr(fabric, "link_bandwidth_bps", None)
        gbps = link_bps / 1e9 if link_bps else bandwidth_gbps
        if d is not None and gbps is not None:
            cost_usd = architecture_cost(entry.cost_name, n, d, gbps)
    return FabricTiming(
        kind=kind,
        name=getattr(fabric, "name", kind),
        compute_s=compute_s,
        mp_s=mp_s,
        allreduce_s=allreduce_s,
        total_s=total_s,
        cost_usd=cost_usd,
        link_bytes=link_bytes,
    )


def _time_fabric_spec(
    fabric_spec: FabricSpec, prepared: PreparedExperiment
) -> FabricTiming:
    """Build one fabric spec against the prepared traffic and time it."""
    spec = prepared.spec
    cluster = spec.cluster
    degree = fabric_spec.degree or cluster.degree
    gbps = (
        fabric_spec.bandwidth_gbps
        if fabric_spec.bandwidth_gbps is not None
        else cluster.bandwidth_gbps
    )
    if fabric_spec == spec.fabric and prepared.fabric is not None:
        fabric = prepared.fabric
    else:
        fabric = build_fabric(fabric_spec, prepared.context)
    return time_fabric(
        fabric,
        prepared.traffic,
        prepared.compute_s,
        fabric_spec.kind,
        bandwidth_gbps=gbps,
        degree=degree,
        collect_link_bytes=spec.sim.collect_link_bytes,
    )


def prepare(spec: ExperimentSpec) -> PreparedExperiment:
    """Run the optimization pipeline; stop before the simulation.

    For ``optimizer.strategy == "mcmc"`` this runs the search: the
    joint alternating optimization (strategy <-> topology) when the
    primary fabric is ``topoopt``, otherwise one MCMC search against the
    fixed primary fabric.  Fixed strategies skip the search entirely.
    """
    from repro.parallel.mcmc import MCMCSearch

    cluster = spec.cluster
    optimizer = spec.optimizer
    # Reject typo'd fabric options up front: the mcmc+topoopt path
    # builds its fabric inside the alternating optimizer, where the
    # registry's own option validation would never run.
    validate_fabric_options(spec.fabric)
    for baseline in spec.baselines:
        validate_fabric_options(baseline)
    model = build_workload(spec.workload)
    batch = spec.workload.batch_per_gpu or model.default_batch_per_gpu
    fabric_degree = spec.fabric.degree or cluster.degree
    fabric_bps = (
        spec.fabric.bandwidth_gbps * 1e9
        if spec.fabric.bandwidth_gbps is not None
        else cluster.link_bandwidth_bps
    )

    entry = STRATEGIES.get(optimizer.strategy)
    if not entry.search:
        strategy = build_strategy(
            optimizer.strategy,
            model,
            cluster.servers,
            batch_per_gpu=batch,
            gpus_per_server=cluster.gpus_per_server,
        )
        traffic = extract_traffic(
            model, strategy, batch, cluster.gpus_per_server
        )
        compute_s = compute_time_seconds(
            model, batch, cluster.gpus_per_server
        )
        ctx = FabricBuildContext(
            num_servers=cluster.servers,
            degree=cluster.degree,
            link_bandwidth_bps=cluster.link_bandwidth_bps,
            traffic=traffic,
            seed=spec.seed,
            options={"primes_only": optimizer.primes_only},
        )
        fabric = build_fabric(spec.fabric, ctx)
        return PreparedExperiment(
            spec=spec,
            model=model,
            batch_per_gpu=batch,
            compute_s=compute_s,
            strategy=strategy,
            traffic=traffic,
            fabric=fabric,
            topology_result=getattr(fabric, "result", None),
        )

    search = MCMCSearch(
        model,
        num_servers=cluster.servers,
        batch_per_gpu=batch,
        gpus_per_server=cluster.gpus_per_server,
        seed=spec.seed,
    )
    if spec.fabric.kind == "topoopt":
        from repro.core.alternating import AlternatingOptimizer

        alternating = AlternatingOptimizer(
            num_servers=cluster.servers,
            degree=fabric_degree,
            link_bandwidth_bps=fabric_bps,
            search=search,
            max_rounds=optimizer.rounds,
            mcmc_iterations=optimizer.mcmc_iterations,
            mcmc_restarts=optimizer.mcmc_restarts,
            primes_only=(
                optimizer.primes_only
                or spec.fabric.options.get("primes_only", False)
            ),
        )
        best = alternating.run(seed=spec.seed)
        return PreparedExperiment(
            spec=spec,
            model=model,
            batch_per_gpu=batch,
            compute_s=search.compute_s,
            strategy=best.strategy,
            traffic=best.traffic,
            fabric=best.fabric,
            topology_result=best.topology_result,
            search=SearchSummary(
                estimated_cost_s=best.cost_s,
                rounds=tuple(
                    {
                        "round_index": r.round_index,
                        "cost_s": r.cost_s,
                        "allreduce_bytes": r.allreduce_bytes,
                        "mp_bytes": r.mp_bytes,
                    }
                    for r in best.rounds
                ),
            ),
        )

    # MCMC on a fixed, non-TopoOpt fabric: build the fabric first (from
    # the initial strategy's traffic when the fabric is traffic-shaped),
    # then search the best strategy for it.
    initial = search.initial_strategy()
    initial_traffic = extract_traffic(
        model, initial, batch, cluster.gpus_per_server
    )
    ctx = FabricBuildContext(
        num_servers=cluster.servers,
        degree=cluster.degree,
        link_bandwidth_bps=cluster.link_bandwidth_bps,
        traffic=initial_traffic,
        seed=spec.seed,
    )
    fabric = build_fabric(spec.fabric, ctx)
    if fabric_entry(spec.fabric.kind).simulates_itself:
        raise ValueError(
            f"optimizer.strategy='mcmc' cannot search on fabric "
            f"{spec.fabric.kind!r} (it has no routed-path cost model); "
            f"use a fixed strategy such as 'auto'"
        )
    result = search.search(
        fabric,
        iterations=optimizer.mcmc_iterations,
        restarts=optimizer.mcmc_restarts,
    )
    return PreparedExperiment(
        spec=spec,
        model=model,
        batch_per_gpu=batch,
        compute_s=search.compute_s,
        strategy=result.strategy,
        traffic=result.traffic,
        fabric=fabric,
        topology_result=getattr(fabric, "tor_result", None),
        search=SearchSummary(
            estimated_cost_s=result.cost_s,
            accepted_moves=result.accepted_moves,
            proposed_moves=result.proposed_moves,
            chains=result.chains,
        ),
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one experiment end to end; see the module docstring.

    Under a recorder (``with TRACER.recording() as rec:``) the
    pipeline spans (MCMC chains, TopologyFinder solves, LP assembly)
    and the experiment-level phases land in ``rec``.  The result is
    byte-identical with or without one -- instrumentation never
    touches the optimization state.
    """
    started = time.perf_counter()
    with TRACER.span("experiment.prepare", cat="experiment"):
        prepared = prepare(spec)
    with TRACER.span(
        "experiment.time_fabric", cat="experiment", kind=spec.fabric.kind
    ):
        primary = _time_fabric_spec(spec.fabric, prepared)
    baselines = tuple(
        _time_fabric_spec(baseline, prepared)
        for baseline in spec.baselines
    )
    topology = None
    if prepared.topology_result is not None:
        topology = TopologySummary.from_result(prepared.topology_result)
    return ExperimentResult(
        spec=spec,
        workload=WorkloadSummary(
            model=spec.workload.model,
            scale=spec.workload.scale,
            params_bytes=prepared.model.total_params_bytes,
            embedding_tables=len(prepared.model.embedding_layers),
            batch_per_gpu=prepared.batch_per_gpu,
            compute_s=prepared.compute_s,
        ),
        strategy=StrategySummary.from_strategy(prepared.strategy),
        traffic=TrafficStats.from_traffic(prepared.traffic),
        fabric=primary,
        baselines=baselines,
        topology=topology,
        search=prepared.search,
        wall_time_s=time.perf_counter() - started,
    )


def compare_fabrics(
    spec: ExperimentSpec,
    fabrics: Mapping[str, FabricSpec],
    prepared: Optional[PreparedExperiment] = None,
) -> Dict[str, FabricTiming]:
    """Time one experiment's traffic on several fabrics.

    ``fabrics`` maps display labels to fabric specs; the returned dict
    uses the same labels.  The strategy (searched or fixed) comes from
    ``spec`` and is shared across fabrics, so the comparison isolates
    the interconnect.  Pass a ``prepared`` experiment to reuse an
    earlier pipeline run.
    """
    if prepared is None:
        prepared = prepare(spec)
    return {
        label: _time_fabric_spec(fabric_spec, prepared)
        for label, fabric_spec in fabrics.items()
    }


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def point_seed(base_seed: int, overrides: Mapping[str, Any]) -> int:
    """Deterministic per-point seed: a pure function of the overrides.

    Stable across runs, processes, and grid orderings (keys are
    sorted), and decorrelated between points (CRC-32 of the canonical
    override JSON, offset by the base seed).
    """
    canonical = json.dumps(
        sorted((str(k), str(v)) for k, v in overrides.items())
    )
    return (base_seed + zlib.crc32(canonical.encode())) % (2 ** 31)


def expand_grid(
    grid: Mapping[str, Sequence[Any]]
) -> List[Dict[str, Any]]:
    """Cartesian product of a ``{key: [values...]}`` grid, in key order."""
    if not grid:
        return []
    keys = list(grid)
    for key in keys:
        if not isinstance(grid[key], (list, tuple)) or not grid[key]:
            raise ValueError(
                f"grid key {key!r} needs a non-empty list of values, "
                f"got {grid[key]!r}"
            )
    return [
        dict(zip(keys, values))
        for values in itertools.product(*(grid[k] for k in keys))
    ]


def run_sweep(
    base_spec: ExperimentSpec,
    grid: Mapping[str, Sequence[Any]],
    max_workers: Optional[int] = None,
    executor: str = "thread",
    point_timeout_s: Optional[float] = None,
    retries: int = 1,
    store=None,
) -> SweepResult:
    """Run every point of ``grid`` over ``base_spec`` concurrently.

    ``base_spec`` is an :class:`ExperimentSpec` *or* a
    :class:`repro.cluster.spec.ScenarioSpec` -- scenario points run
    through :func:`repro.cluster.engine.run_scenario` and their rows
    carry scenario metrics (JCT, queueing delay, iteration tails).
    ``grid`` maps override keys (dotted paths or shorthands, as in
    :meth:`ExperimentSpec.with_overrides`) to value lists; the sweep is
    their Cartesian product.  Each point gets a deterministic seed from
    :func:`point_seed` -- unless ``"seed"`` is itself a grid axis, in
    which case the axis value is used verbatim (seed-replication
    sweeps).

    The sweep is a client of :class:`repro.service.BatchExecutor`
    (``executor``: ``"thread"``, ``"process"``, or ``"serial"``): every
    point's spec is built here -- a spec that fails to build is an
    error row -- and submitted, and rows come back in grid order.  The
    executor supplies the rest:

    * an exception inside a point becomes an error row; a worker that
      *crashes* or overruns ``point_timeout_s`` is resubmitted -- same
      spec, same seed -- up to ``retries`` more times, and only then
      becomes an error row.  Rows that needed more than one submission
      carry ``attempts``.  (``point_timeout_s`` needs a pool executor;
      the serial path runs inline and cannot time out.)
    * points whose specs are identical while one of them is in flight
      compute once and share the result.
    * a :class:`repro.service.store.ResultStore` passed as ``store`` is
      consulted first -- hits become ``cache_hit`` rows -- and every
      fresh result is written back, so an identical second sweep
      recomputes nothing.
    """
    from repro.service.executor import BatchExecutor

    points = expand_grid(grid)
    if not points:
        raise ValueError("run_sweep needs a non-empty grid")
    rows: List[Optional[SweepPoint]] = [None] * len(points)
    seeds: List[int] = []
    specs: Dict[int, Any] = {}
    for index, overrides in enumerate(points):
        seed = (
            overrides["seed"] if "seed" in overrides
            else point_seed(base_spec.seed, overrides)
        )
        seeds.append(seed)
        try:
            specs[index] = base_spec.with_overrides(
                {**overrides, "seed": seed}
            )
        except Exception as error:  # a bad point is a row, not a crash
            rows[index] = SweepPoint(
                overrides=overrides,
                seed=seed,
                error=f"{type(error).__name__}: {error}",
            )
    with BatchExecutor(
        store=store,
        max_workers=max_workers or min(len(specs), 8),
        executor=executor,
        point_timeout_s=point_timeout_s,
        retries=retries,
    ) as service:
        requests = service.drain(list(specs.values()))
    for index, request in zip(specs, requests):
        error = request.future.exception()
        rows[index] = SweepPoint(
            overrides=points[index],
            seed=seeds[index],
            result=request.future.result() if error is None else None,
            error=str(error) if error is not None else None,
            attempts=max(request.attempts, 1),
            cache_hit=request.route == "store",
        )
    return SweepResult(
        base_spec=base_spec,
        grid={k: list(v) for k, v in grid.items()},
        points=tuple(rows),
    )
