"""Shared harness for the per-figure/table benchmarks.

Every bench prints the same rows/series the paper reports and also
writes them to ``benchmarks/results/<bench>.txt`` so the tables survive
pytest's stdout capture.  ``REPRO_SCALE=full`` in the environment runs
the paper-scale configuration; the default is a reduced-but-
representative scale whose result *shapes* match (both sets of
dimensions are in :func:`scale_config`).

Since the declarative API landed, workloads, strategies, and fabrics
resolve through the :mod:`repro.api` registries: a paper architecture
is a :class:`repro.api.FabricSpec` in :data:`ARCHITECTURE_FABRICS`, and
:func:`dedicated_iteration_times` is a thin wrapper over
:func:`repro.api.time_fabric`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.api import (
    ClusterSpec,
    ExperimentSpec,
    FabricBuildContext,
    FabricSpec,
    OptimizerSpec,
    WorkloadSpec,
    build_fabric,
    build_strategy,
    build_workload,
    time_fabric,
)
from repro.models import compute_time_seconds
from repro.network.topoopt import TopoOptFabric
from repro.parallel.traffic import TrafficSummary, extract_traffic

GBPS = 1e9
RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    return os.environ.get("REPRO_SCALE", "").lower() == "full"


@dataclass
class ScaleConfig:
    """Experiment dimensions at the active scale."""

    dedicated_servers: int
    shared_servers: int
    servers_per_job: int
    bandwidths_gbps: Sequence[float]
    mcmc_iterations: int
    alternating_rounds: int
    model_scale: str


def scale_config() -> ScaleConfig:
    if full_scale():
        return ScaleConfig(
            dedicated_servers=128,
            shared_servers=432,
            servers_per_job=16,
            bandwidths_gbps=(10, 25, 40, 100, 200),
            mcmc_iterations=400,
            alternating_rounds=4,
            model_scale="simulation",
        )
    return ScaleConfig(
        dedicated_servers=32,
        shared_servers=48,
        servers_per_job=8,
        bandwidths_gbps=(10, 25, 100),
        mcmc_iterations=80,
        alternating_rounds=2,
        model_scale="shared",
    )


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------

def emit(bench_name: str, lines: List[str]) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{bench_name}.txt").write_text(text + "\n")


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> List[str]:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
        )
    return lines


# ----------------------------------------------------------------------
# Workload construction (via the declarative API)
# ----------------------------------------------------------------------

def experiment_spec(
    model_name: str,
    n: int,
    model_scale: Optional[str] = None,
    strategy: str = "auto",
    degree: int = 4,
    link_gbps: float = 100.0,
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` for one benchmark configuration."""
    cfg = scale_config()
    return ExperimentSpec(
        name=f"bench-{model_name.lower()}-{n}",
        workload=WorkloadSpec(
            model=model_name, scale=model_scale or cfg.model_scale
        ),
        cluster=ClusterSpec(
            servers=n, degree=degree, bandwidth_gbps=link_gbps
        ),
        fabric=FabricSpec(kind="topoopt"),
        optimizer=OptimizerSpec(
            strategy=strategy,
            rounds=cfg.alternating_rounds,
            mcmc_iterations=cfg.mcmc_iterations,
        ),
    )


def workload(model_name: str, n: int, model_scale: Optional[str] = None):
    """(model, strategy, traffic, compute_s) for a model on n servers."""
    cfg = scale_config()
    model = build_workload(
        WorkloadSpec(
            model=model_name, scale=model_scale or cfg.model_scale
        )
    )
    strategy = build_strategy("auto", model, n)
    traffic = extract_traffic(model, strategy)
    compute_s = compute_time_seconds(model, model.default_batch_per_gpu)
    return model, strategy, traffic, compute_s


def topoopt_fabric_for(
    traffic: TrafficSummary, n: int, d: int, link_gbps: float
) -> TopoOptFabric:
    return build_fabric(
        FabricSpec(kind="topoopt"),
        FabricBuildContext(
            num_servers=n,
            degree=d,
            link_bandwidth_bps=link_gbps * GBPS,
            traffic=traffic,
        ),
    )


#: The architectures of Figure 11, as registry-addressable fabric specs
#: (paper display name -> FabricSpec).
ARCHITECTURE_FABRICS: Dict[str, FabricSpec] = {
    "TopoOpt": FabricSpec(kind="topoopt"),
    "Ideal Switch": FabricSpec(kind="ideal-switch"),
    "Fat-tree": FabricSpec(kind="fattree"),
    "Oversub Fat-tree": FabricSpec(kind="oversubscribed-fattree"),
    "Expander": FabricSpec(kind="expander"),
    "OCS-reconfig": FabricSpec(kind="ocs-reconfig"),
    "SiP-ML": FabricSpec(kind="sipml"),
}


def dedicated_iteration_times(
    traffic: TrafficSummary,
    compute_s: float,
    n: int,
    d: int,
    link_gbps: float,
    architectures: Sequence[str] = (
        "TopoOpt",
        "Ideal Switch",
        "Fat-tree",
        "Expander",
        "OCS-reconfig",
        "SiP-ML",
    ),
    seed: int = 0,
) -> Dict[str, float]:
    """Iteration time of one workload on each architecture (Figure 11)."""
    ctx = FabricBuildContext(
        num_servers=n,
        degree=d,
        link_bandwidth_bps=link_gbps * GBPS,
        traffic=traffic,
        seed=seed,
    )
    times: Dict[str, float] = {}
    for arch in architectures:
        if arch not in ARCHITECTURE_FABRICS:
            raise ValueError(
                f"unknown architecture {arch!r}; "
                f"known: {sorted(ARCHITECTURE_FABRICS)}"
            )
        fabric_spec = ARCHITECTURE_FABRICS[arch]
        fabric = build_fabric(fabric_spec, ctx)
        timing = time_fabric(
            fabric, traffic, compute_s, fabric_spec.kind,
            bandwidth_gbps=link_gbps, degree=d,
        )
        times[arch] = timing.total_s
    return times


def speedup_vs(times: Dict[str, float], baseline: str) -> Dict[str, float]:
    base = times[baseline]
    return {arch: base / t for arch, t in times.items()}
