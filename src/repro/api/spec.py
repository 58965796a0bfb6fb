"""Declarative experiment specifications: the repo's front door.

An :class:`ExperimentSpec` describes one TopoOpt experiment end to end
-- workload, cluster, fabric, optimizer, simulator -- as frozen,
JSON-serializable data.  It is the input of
:func:`repro.api.runner.run_experiment` and the unit the sweep engine
expands; the CLI (``repro run --spec exp.json`` or ``--preset``)
constructs one.

Invariants, all enforced by the shared codec (:mod:`repro.codec`):

* **Exact round-trip**: ``Spec.from_dict(spec.to_dict()) == spec`` for
  every spec, and ``to_dict`` emits only JSON-native types, so specs
  survive ``json.dumps``/``loads`` unchanged.
* **Unknown keys are rejected**: ``from_dict`` raises :class:`SpecError`
  naming the offending key and the allowed set, so typos in a spec file
  fail loudly instead of silently running the defaults.
* **Validation is actionable**: every error names the field, the bad
  value, and the accepted values.  Types and bounds are checked when a
  spec is built, so a constructor call and ``from_dict`` fail alike.

Doctest tour::

    >>> from repro.api.spec import ExperimentSpec, FabricSpec
    >>> spec = ExperimentSpec.preset("testbed")
    >>> (spec.cluster.servers, spec.cluster.degree, spec.workload.scale)
    (12, 4, 'testbed')
    >>> ExperimentSpec.from_dict(spec.to_dict()) == spec
    True
    >>> FabricSpec(kind="topoopt", degree=4, bandwidth_gbps=100).kind
    'topoopt'
    >>> swept = spec.with_overrides({"servers": 16, "fabric.kind": "expander"})
    >>> (swept.cluster.servers, swept.fabric.kind)
    (16, 'expander')
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.codec import Spec, SpecError, field
from repro.codec import apply_overrides, canonical_json  # noqa: F401
from repro.models.configs import CONFIG_FAMILIES, MODEL_BUILDERS

#: Shorthand override keys accepted by ``with_overrides`` (and hence the
#: CLI's ``--set``) mapped to their full dotted spec paths.
OVERRIDE_SHORTHANDS: Dict[str, str] = {
    "model": "workload.model",
    "scale": "workload.scale",
    "batch_per_gpu": "workload.batch_per_gpu",
    "servers": "cluster.servers",
    "degree": "cluster.degree",
    "bandwidth_gbps": "cluster.bandwidth_gbps",
    "gpus_per_server": "cluster.gpus_per_server",
    "fabric": "fabric.kind",
    "strategy": "optimizer.strategy",
    "rounds": "optimizer.rounds",
    "mcmc_iterations": "optimizer.mcmc_iterations",
    "mcmc_restarts": "optimizer.mcmc_restarts",
    "primes_only": "optimizer.primes_only",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class WorkloadSpec(Spec, path="workload"):
    """Which DNN workload to train.

    ``scale`` names one of the paper's preset families
    (:data:`repro.models.configs.CONFIG_FAMILIES`) or ``"custom"``;
    ``options`` are keyword arguments merged over the preset's builder
    kwargs (for ``"custom"`` they are the full builder kwargs).
    """

    model: str = "DLRM"
    scale: str = "shared"
    batch_per_gpu: Optional[int] = field(default=None, ge=1)
    options: Dict[str, Any] = field(default_factory=dict)

    def _validate(self):
        families = sorted(CONFIG_FAMILIES) + ["custom"]
        _require(
            self.scale in families,
            f"workload.scale: unknown preset family {self.scale!r}; "
            f"use one of {families}",
        )
        if self.scale == "custom":
            _require(
                self.model in MODEL_BUILDERS,
                f"workload.model: no builder for {self.model!r}; "
                f"known models: {sorted(MODEL_BUILDERS)}",
            )
        else:
            table = CONFIG_FAMILIES[self.scale]
            _require(
                self.model in table,
                f"workload.model: no {self.scale!r} preset for "
                f"{self.model!r}; known: {sorted(table)}",
            )


@dataclass(frozen=True)
class ClusterSpec(Spec, path="cluster"):
    """The machines: servers, NIC fan-out, per-interface bandwidth."""

    servers: int = field(default=16, ge=2)
    degree: int = field(default=4, ge=1)
    bandwidth_gbps: float = field(default=100.0, gt=0)
    gpus_per_server: int = field(default=4, ge=1)

    @property
    def link_bandwidth_bps(self) -> float:
        return self.bandwidth_gbps * 1e9


#: The paper's cluster setups, keyed by preset family -- the single
#: source behind :meth:`ExperimentSpec.preset` and the CLI's
#: ``--preset`` choices.
EXPERIMENT_PRESETS: Dict[str, ClusterSpec] = {
    "testbed": ClusterSpec(
        servers=12, degree=4, bandwidth_gbps=25.0, gpus_per_server=1
    ),
    "shared": ClusterSpec(
        servers=16, degree=4, bandwidth_gbps=100.0, gpus_per_server=4
    ),
    "simulation": ClusterSpec(
        servers=128, degree=4, bandwidth_gbps=100.0, gpus_per_server=4
    ),
}


@dataclass(frozen=True)
class FabricSpec(Spec, path="fabric"):
    """One interconnect, addressable by registry name.

    ``degree``/``bandwidth_gbps`` default to the cluster's values when
    ``None``; ``options`` are fabric-specific knobs forwarded to the
    registered builder (e.g. ``servers_per_rack`` for ``leaf-spine``,
    ``reconfiguration_latency_s`` for ``ocs-reconfig``).
    """

    kind: str = "topoopt"
    degree: Optional[int] = field(default=None, ge=1)
    bandwidth_gbps: Optional[float] = field(default=None, gt=0)
    options: Dict[str, Any] = field(default_factory=dict)

    def _validate(self):
        _require(bool(self.kind), "fabric.kind must be a non-empty name")

    def validate_kind(self) -> None:
        """Check ``kind`` against the fabric registry (actionable error)."""
        from repro.api.registry import FABRICS

        if self.kind not in FABRICS.names():
            raise SpecError(
                f"fabric.kind: unknown fabric {self.kind!r}; "
                f"registered: {sorted(FABRICS.names())}"
            )


@dataclass(frozen=True)
class OptimizerSpec(Spec, path="optimizer"):
    """How to choose the parallelization strategy (and topology).

    ``strategy="mcmc"`` runs the search: joint alternating optimization
    when the fabric is ``topoopt`` (topology co-evolves), a single MCMC
    search on the fixed fabric otherwise.  Any other name selects a
    fixed strategy from the strategy registry and skips the search.
    """

    strategy: str = "mcmc"
    rounds: int = field(default=3, ge=1)
    mcmc_iterations: int = field(default=150, ge=1)
    mcmc_restarts: int = field(default=1, ge=1)
    primes_only: bool = False

    def _validate(self):
        from repro.api import registry as _registry_mod  # lazy, cycle-free

        known = tuple(_registry_mod.STRATEGIES.names())
        _require(
            self.strategy in known,
            f"optimizer.strategy: unknown strategy {self.strategy!r}; "
            f"registered: {sorted(known)}",
        )


@dataclass(frozen=True)
class SimSpec(Spec, path="sim"):
    """Flow-simulation options for the iteration-time measurement.

    ``collect_link_bytes`` records the bytes each link carries over the
    iteration (Figure 15's CDF).  The OCS-reconfig and SiP-ML fabrics
    simulate themselves and ignore it.
    """

    collect_link_bytes: bool = False


@dataclass(frozen=True)
class ExperimentSpec(Spec, path="", shorthands=OVERRIDE_SHORTHANDS):
    """One complete experiment: spec in, typed result out.

    Composes the five sub-specs plus a ``seed`` (all randomness -- MCMC
    proposals, expander wiring -- derives from it) and optional
    ``baselines``: extra fabrics simulated on the same traffic for
    side-by-side comparison.  Serialization, the content hash
    (:meth:`content_hash`) and overrides (:meth:`with_overrides`, keys
    from :data:`OVERRIDE_SHORTHANDS` or dotted paths) come from
    :mod:`repro.codec`:

    >>> a = ExperimentSpec.preset("testbed")
    >>> b = ExperimentSpec.from_dict(a.to_dict())
    >>> a.content_hash() == b.content_hash()
    True
    >>> a.content_hash() == a.with_overrides({"seed": 1}).content_hash()
    False
    """

    name: str = ""
    seed: int = field(default=0, ge=0)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    fabric: FabricSpec = field(default_factory=FabricSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    sim: SimSpec = field(default_factory=SimSpec)
    baselines: Tuple[FabricSpec, ...] = ()

    def _validate(self):
        self.fabric.validate_kind()
        for baseline in self.baselines:
            baseline.validate_kind()

    @classmethod
    def preset(cls, family: str, model: str = "DLRM") -> "ExperimentSpec":
        """A ready-to-run spec matching one of the paper's setups.

        ``"testbed"`` is the 12-node prototype (section 6, 4 x 25 Gbps
        NIC breakout, one GPU per server); ``"shared"`` a 16-server
        slice of the shared cluster (section 5.6); ``"simulation"`` the
        dedicated 128-server cluster (section 5.3).
        """
        if family not in EXPERIMENT_PRESETS:
            raise SpecError(
                f"unknown preset family {family!r}; "
                f"use one of {sorted(EXPERIMENT_PRESETS)}"
            )
        return cls(
            name=f"{model.lower()}-{family}",
            workload=WorkloadSpec(model=model, scale=family),
            cluster=EXPERIMENT_PRESETS[family],
            baselines=(
                FabricSpec(kind="ideal-switch"),
                FabricSpec(kind="fattree"),
            ),
        )


def parse_scalar(text: str) -> Any:
    """Parse one ``--set`` value: int, float, bool, null, or string.

    >>> [parse_scalar(s) for s in ("32", "2.5", "true", "null", "dlrm")]
    [32, 2.5, True, None, 'dlrm']
    """
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def parse_overrides(pairs) -> Dict[str, Any]:
    """Parse CLI ``--set key=value`` pairs into an override mapping."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SpecError(
                f"--set expects key=value, got {pair!r}"
            )
        overrides[key] = parse_scalar(value)
    return overrides
