"""Shared harness for the per-figure/table benchmarks.

Every bench prints the same rows/series the paper reports and also
writes them to ``benchmarks/results/<bench>.txt`` so the tables survive
pytest's stdout capture.  ``REPRO_SCALE=full`` in the environment runs
the paper-scale configuration; the default is a reduced-but-
representative scale whose result *shapes* match (both sets of
dimensions are in :func:`scale_config`).

Benches build their jobs through the :mod:`repro.api` pipeline: an
:class:`repro.api.ExperimentSpec` from :func:`experiment_spec` goes
through :func:`repro.api.prepare`, a paper architecture is a
:class:`repro.api.FabricSpec` in :data:`ARCHITECTURE_FABRICS`, and
:func:`bandwidth_sweep` times architectures with
:func:`repro.api.compare_fabrics`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api import (
    ClusterSpec,
    ExperimentSpec,
    FabricSpec,
    OptimizerSpec,
    WorkloadSpec,
    compare_fabrics,
    prepare,
)

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


def bandwidth_sweep(
    spec: ExperimentSpec,
    fabrics: Dict[str, FabricSpec],
    bandwidths_gbps: Iterable[float],
) -> Dict[float, Dict[str, float]]:
    """Iteration time of one job on each fabric at each link bandwidth.

    The workload, strategy, traffic and TopoOpt topology are all
    bandwidth-independent: the job is prepared once and retimed per
    bandwidth.  Returns bandwidth -> fabric label -> seconds.
    """
    prepared = prepare(spec)
    sweep = {}
    for gbps in bandwidths_gbps:
        spec_b = spec.with_overrides({"bandwidth_gbps": gbps})
        prepared_b = replace(prepared, spec=spec_b, fabric=None)
        timings = compare_fabrics(spec_b, fabrics, prepared_b)
        sweep[gbps] = {
            label: timing.total_s for label, timing in timings.items()
        }
    return sweep


def speedup_vs(times: Dict[str, float], baseline: str) -> Dict[str, float]:
    base = times[baseline]
    return {arch: base / t for arch, t in times.items()}
