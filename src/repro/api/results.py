"""Typed, JSON-serializable experiment results.

:class:`ExperimentResult` is what :func:`repro.api.runner.run_experiment`
returns: strategy summary, traffic volumes, topology statistics,
per-fabric iteration timings, interconnect costs, and seed provenance.
``to_dict()`` is **deterministic for a given spec and seed** -- wall
time lives only on the in-memory object (``wall_time_s``), never in the
JSON -- which is what makes the CLI's preset-equivalence guarantee
testable byte for byte.

:class:`SweepResult` wraps one :class:`SweepPoint` per grid point and
flattens into row-per-run dicts (:meth:`SweepResult.rows`) that the
``analysis/`` layer and any dataframe library consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.spec import ExperimentSpec


def _opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(value)


def _result_from_dict(data: Mapping[str, Any]):
    """Rebuild a point result, dispatching on the serialized type.

    Scenario results mark themselves with ``"type": "scenario"``
    (:meth:`repro.cluster.results.ScenarioResult.to_dict`); everything
    else is an :class:`ExperimentResult`.
    """
    if data.get("type") == "scenario":
        from repro.cluster.results import ScenarioResult

        return ScenarioResult.from_dict(data)
    return ExperimentResult.from_dict(data)


def _spec_from_dict(data: Mapping[str, Any]):
    """Rebuild a sweep base spec (experiment or scenario)."""
    if "arrivals" in data:  # only ScenarioSpec has an arrival process
        from repro.cluster.spec import ScenarioSpec

        return ScenarioSpec.from_dict(data)
    return ExperimentSpec.from_dict(data)


@dataclass(frozen=True)
class WorkloadSummary:
    """The built model, as numbers: size, layer mix, batch."""

    model: str
    scale: str
    params_bytes: float
    embedding_tables: int
    batch_per_gpu: int
    compute_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "scale": self.scale,
            "params_bytes": self.params_bytes,
            "embedding_tables": self.embedding_tables,
            "batch_per_gpu": self.batch_per_gpu,
            "compute_s": self.compute_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSummary":
        return cls(**dict(data))


@dataclass(frozen=True)
class StrategySummary:
    """Per-kind placement counts plus the full placement map."""

    num_layers: int
    data_parallel: int
    model_parallel: int
    sharded: int
    placements: Dict[str, Dict[str, Any]]

    @classmethod
    def from_strategy(cls, strategy) -> "StrategySummary":
        from repro.parallel.strategy import PlacementKind

        placements = {
            name: {
                "kind": placement.kind.value,
                "servers": list(placement.servers),
            }
            for name, placement in sorted(strategy.placements.items())
        }
        kinds = [p.kind for p in strategy.placements.values()]
        return cls(
            num_layers=len(kinds),
            data_parallel=sum(
                1 for k in kinds if k == PlacementKind.DATA_PARALLEL
            ),
            model_parallel=sum(
                1 for k in kinds if k == PlacementKind.MODEL_PARALLEL
            ),
            sharded=sum(1 for k in kinds if k == PlacementKind.SHARDED),
            placements=placements,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_layers": self.num_layers,
            "data_parallel": self.data_parallel,
            "model_parallel": self.model_parallel,
            "sharded": self.sharded,
            "placements": self.placements,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StrategySummary":
        return cls(**dict(data))


@dataclass(frozen=True)
class TrafficStats:
    """Per-iteration communication volumes of the chosen strategy."""

    allreduce_bytes: float
    mp_bytes: float
    max_transfer_bytes: float

    @classmethod
    def from_traffic(cls, traffic) -> "TrafficStats":
        return cls(
            allreduce_bytes=traffic.total_allreduce_bytes,
            mp_bytes=traffic.total_mp_bytes,
            max_transfer_bytes=traffic.max_transfer_bytes(),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "allreduce_bytes": self.allreduce_bytes,
            "mp_bytes": self.mp_bytes,
            "max_transfer_bytes": self.max_transfer_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficStats":
        return cls(**dict(data))


@dataclass(frozen=True)
class TopologySummary:
    """TopologyFinder output, as numbers (TopoOpt-family fabrics only)."""

    num_links: int
    diameter: int
    allreduce_degree: int
    mp_degree: int
    groups: Tuple[Dict[str, Any], ...]

    @classmethod
    def from_result(cls, result) -> "TopologySummary":
        return cls(
            num_links=result.topology.num_links(),
            diameter=result.topology.diameter(),
            allreduce_degree=result.allreduce_degree,
            mp_degree=result.mp_degree,
            groups=tuple(
                {"size": plan.group.size, "strides": list(plan.strides)}
                for plan in result.group_plans
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_links": self.num_links,
            "diameter": self.diameter,
            "allreduce_degree": self.allreduce_degree,
            "mp_degree": self.mp_degree,
            "groups": [dict(g) for g in self.groups],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySummary":
        kwargs = dict(data)
        kwargs["groups"] = tuple(dict(g) for g in kwargs.get("groups", ()))
        return cls(**kwargs)


@dataclass(frozen=True)
class FabricTiming:
    """One fabric's simulated iteration, plus its interconnect cost.

    ``mp_s``/``allreduce_s`` are ``None`` for fabrics that simulate
    themselves end to end (``sipml``, ``ocs-reconfig``) and only report
    a total; ``cost_usd`` is ``None`` when the paper's cost model does
    not cover the fabric.  ``link_bytes`` holds sorted
    ``(src, dst, bytes)`` triples when the spec asked for
    ``sim.collect_link_bytes`` (``None`` otherwise).
    """

    kind: str
    name: str
    compute_s: float
    mp_s: Optional[float]
    allreduce_s: Optional[float]
    total_s: float
    cost_usd: Optional[float] = None
    link_bytes: Optional[Tuple[Tuple[int, int, float], ...]] = None

    @property
    def network_s(self) -> float:
        return self.total_s - self.compute_s

    @property
    def network_overhead_fraction(self) -> float:
        return self.network_s / self.total_s if self.total_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "compute_s": self.compute_s,
            "mp_s": _opt(self.mp_s),
            "allreduce_s": _opt(self.allreduce_s),
            "total_s": self.total_s,
            "cost_usd": _opt(self.cost_usd),
            "link_bytes": (
                [list(entry) for entry in self.link_bytes]
                if self.link_bytes is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FabricTiming":
        kwargs = dict(data)
        if kwargs.get("link_bytes") is not None:
            kwargs["link_bytes"] = tuple(
                (int(src), int(dst), float(volume))
                for src, dst, volume in kwargs["link_bytes"]
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class SearchSummary:
    """What the MCMC / alternating search did (when it ran)."""

    estimated_cost_s: float
    rounds: Tuple[Dict[str, Any], ...] = ()
    accepted_moves: int = 0
    proposed_moves: int = 0
    chains: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "estimated_cost_s": self.estimated_cost_s,
            "rounds": [dict(r) for r in self.rounds],
            "accepted_moves": self.accepted_moves,
            "proposed_moves": self.proposed_moves,
            "chains": self.chains,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSummary":
        kwargs = dict(data)
        kwargs["rounds"] = tuple(dict(r) for r in kwargs.get("rounds", ()))
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced, JSON-serializable.

    ``wall_time_s`` is measured, not derived from the spec, so
    :meth:`to_dict` deliberately omits it: the JSON of a result is a
    pure function of (spec, seed), which the CLI preset-equivalence
    test relies on.
    """

    spec: ExperimentSpec
    workload: WorkloadSummary
    strategy: StrategySummary
    traffic: TrafficStats
    fabric: FabricTiming
    baselines: Tuple[FabricTiming, ...] = ()
    topology: Optional[TopologySummary] = None
    search: Optional[SearchSummary] = None
    wall_time_s: Optional[float] = field(default=None, compare=False)

    @property
    def timings(self) -> Tuple[FabricTiming, ...]:
        """Primary fabric first, then the baselines."""
        return (self.fabric,) + self.baselines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "workload": self.workload.to_dict(),
            "strategy": self.strategy.to_dict(),
            "traffic": self.traffic.to_dict(),
            "fabric": self.fabric.to_dict(),
            "baselines": [b.to_dict() for b in self.baselines],
            "topology": (
                self.topology.to_dict() if self.topology else None
            ),
            "search": self.search.to_dict() if self.search else None,
            "provenance": {"seed": self.spec.seed},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            workload=WorkloadSummary.from_dict(data["workload"]),
            strategy=StrategySummary.from_dict(data["strategy"]),
            traffic=TrafficStats.from_dict(data["traffic"]),
            fabric=FabricTiming.from_dict(data["fabric"]),
            baselines=tuple(
                FabricTiming.from_dict(b) for b in data.get("baselines", ())
            ),
            topology=(
                TopologySummary.from_dict(data["topology"])
                if data.get("topology")
                else None
            ),
            search=(
                SearchSummary.from_dict(data["search"])
                if data.get("search")
                else None
            ),
        )


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: its overrides, derived seed, and outcome.

    ``result`` is an :class:`ExperimentResult` or, for scenario sweeps,
    a :class:`repro.cluster.results.ScenarioResult`.
    """

    overrides: Dict[str, Any]
    seed: int
    result: Optional[object] = None
    error: Optional[str] = None
    #: How many pool submissions this point took.  1 (the default, and
    #: omitted from the JSON) means it ran clean; >1 means a crashed or
    #: hung worker was retried with the same derived seed.
    attempts: int = 1
    #: True when the result came from a content-addressed
    #: :class:`repro.service.store.ResultStore` instead of a fresh
    #: pipeline run (omitted from the JSON when False).
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "overrides": dict(self.overrides),
            "seed": self.seed,
            "result": self.result.to_dict() if self.result else None,
            "error": self.error,
        }
        if self.attempts > 1:
            data["attempts"] = int(self.attempts)
        if self.cache_hit:
            data["cache_hit"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPoint":
        return cls(
            overrides=dict(data["overrides"]),
            seed=data["seed"],
            result=(
                _result_from_dict(data["result"])
                if data.get("result")
                else None
            ),
            error=data.get("error"),
            attempts=int(data.get("attempts", 1)),
            cache_hit=bool(data.get("cache_hit", False)),
        )


#: Metric columns of an experiment row (kept stable across failures).
_EXPERIMENT_COLUMNS = (
    "model", "fabric_kind", "servers", "degree", "bandwidth_gbps",
    "compute_s", "mp_s", "allreduce_s", "total_s", "network_fraction",
    "cost_usd",
)

#: Metric columns of a scenario row.
_SCENARIO_COLUMNS = (
    "fabric_kind", "servers", "policy", "jobs_completed", "makespan_s",
    "iteration_avg_s", "iteration_p99_s", "jct_avg_s", "jct_p99_s",
    "queueing_avg_s", "queueing_p99_s", "mean_utilization",
    "peak_fragmentation", "preemptions", "resizes",
)


@dataclass(frozen=True)
class SweepResult:
    """All points of one sweep, in grid-expansion order.

    ``base_spec`` is the swept :class:`ExperimentSpec` or
    :class:`repro.cluster.spec.ScenarioSpec`; the row schema follows it.
    """

    base_spec: object
    grid: Dict[str, List[Any]]
    points: Tuple[SweepPoint, ...]

    @property
    def ok(self) -> bool:
        return all(point.ok for point in self.points)

    @property
    def _is_scenario(self) -> bool:
        return hasattr(self.base_spec, "arrivals")

    def rows(self) -> List[Dict[str, Any]]:
        """One flat dict per point -- the tidy row-per-run table.

        Columns: every grid key (override value), then the identifying
        and timing fields of the point's result -- experiment timings
        for :class:`ExperimentSpec` sweeps, cluster-level metrics (JCT,
        queueing, iteration tails, utilization) for scenario sweeps.
        Failed points carry their error string and ``None`` metrics, so
        a sweep's shape is stable regardless of per-point failures.
        """
        columns = (
            _SCENARIO_COLUMNS if self._is_scenario else _EXPERIMENT_COLUMNS
        )
        rows = []
        for point in self.points:
            row: Dict[str, Any] = dict(point.overrides)
            row["seed"] = point.seed
            if point.result is not None and self._is_scenario:
                r = point.result
                row.update(
                    fabric_kind=r.spec.fabric.kind,
                    servers=r.spec.cluster.servers,
                    policy=r.spec.scheduler.policy,
                    error=None,
                    **r.metrics(),
                )
            elif point.result is not None:
                r = point.result
                row.update(
                    model=r.workload.model,
                    fabric_kind=r.fabric.kind,
                    servers=r.spec.cluster.servers,
                    degree=r.spec.cluster.degree,
                    bandwidth_gbps=r.spec.cluster.bandwidth_gbps,
                    compute_s=r.fabric.compute_s,
                    mp_s=r.fabric.mp_s,
                    allreduce_s=r.fabric.allreduce_s,
                    total_s=r.fabric.total_s,
                    network_fraction=r.fabric.network_overhead_fraction,
                    cost_usd=r.fabric.cost_usd,
                    error=None,
                )
            else:
                # Fill the metric columns without clobbering override
                # columns of the same name (e.g. a "servers" grid axis
                # must keep identifying the failed point).
                for key in columns:
                    row.setdefault(key, None)
                row["error"] = point.error
            rows.append(row)
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base_spec": self.base_spec.to_dict(),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        return cls(
            base_spec=_spec_from_dict(data["base_spec"]),
            grid={k: list(v) for k, v in data["grid"].items()},
            points=tuple(
                SweepPoint.from_dict(p) for p in data["points"]
            ),
        )
