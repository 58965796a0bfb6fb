"""The declarative experiment API: spec -> registry -> runner -> result.

This package is the repo's front door.  Describe an experiment as data
(:class:`ExperimentSpec`), run it (:func:`run_experiment`), sweep a
parameter grid over it (:func:`run_sweep`), and consume typed,
JSON-serializable results (:class:`ExperimentResult`,
:class:`SweepResult`).  See ``docs/api.md`` for the schema, the registry
names, and the flag-CLI migration table.

Quick start::

    from repro.api import ExperimentSpec, run_experiment

    spec = ExperimentSpec.preset("testbed")          # paper's 12-node rig
    result = run_experiment(spec)
    print(result.fabric.total_s, result.to_dict()["topology"])
"""

import os

from repro.api.registry import (
    FABRICS,
    STRATEGIES,
    FabricBuildContext,
    RegistryError,
    build_fabric,
    build_strategy,
    build_workload,
    fabric_entry,
    workload_names,
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
from repro.api.runner import (
    PreparedExperiment,
    compare_fabrics,
    expand_grid,
    point_seed,
    prepare,
    run_experiment,
    run_sweep,
    time_fabric,
)
from repro.api.spec import (
    EXPERIMENT_PRESETS,
    ClusterSpec,
    ExperimentSpec,
    FabricSpec,
    OptimizerSpec,
    SimSpec,
    SpecError,
    WorkloadSpec,
    parse_overrides,
    parse_scalar,
)


def smoke_scale() -> bool:
    """True when ``REPRO_SMOKE`` is set: examples shrink their budgets.

    ``repro check-examples`` exports it so every example finishes within
    the wall-time cap while still exercising the full API surface.
    """
    return os.environ.get("REPRO_SMOKE", "") not in ("", "0")


__all__ = [
    "EXPERIMENT_PRESETS",
    "ClusterSpec",
    "ExperimentSpec",
    "FabricSpec",
    "OptimizerSpec",
    "SimSpec",
    "SpecError",
    "WorkloadSpec",
    "parse_overrides",
    "parse_scalar",
    "FABRICS",
    "STRATEGIES",
    "FabricBuildContext",
    "RegistryError",
    "build_fabric",
    "build_strategy",
    "build_workload",
    "fabric_entry",
    "workload_names",
    "ExperimentResult",
    "FabricTiming",
    "SearchSummary",
    "StrategySummary",
    "SweepPoint",
    "SweepResult",
    "TopologySummary",
    "TrafficStats",
    "WorkloadSummary",
    "PreparedExperiment",
    "compare_fabrics",
    "expand_grid",
    "point_seed",
    "prepare",
    "run_experiment",
    "run_sweep",
    "time_fabric",
    "smoke_scale",
]
