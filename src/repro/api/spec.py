"""Declarative experiment specifications: the repo's front door.

An :class:`ExperimentSpec` describes one TopoOpt experiment end to end
-- workload, cluster, fabric, optimizer, simulator -- as frozen,
JSON-serializable data.  It is the input of
:func:`repro.api.runner.run_experiment` and the unit the sweep engine
expands; the CLI (``repro run --spec exp.json`` or ``--preset``)
constructs one.

Invariants:

* **Exact round-trip**: ``Spec.from_dict(spec.to_dict()) == spec`` for
  every spec, and ``to_dict`` emits only JSON-native types, so specs
  survive ``json.dumps``/``loads`` unchanged.
* **Unknown keys are rejected**: ``from_dict`` raises :class:`SpecError`
  naming the offending key and the allowed set, so typos in a spec file
  fail loudly instead of silently running the defaults.
* **Validation is actionable**: every error names the field, the bad
  value, and the accepted values.

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

import copy
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

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
    "solver": "sim.solver",
}


class SpecError(ValueError):
    """A spec failed validation or deserialization."""


def canonical_json(data: Any) -> str:
    """The canonical JSON encoding content hashes are computed over.

    Sorted keys and compact separators, so the encoding is a pure
    function of the *content* -- dict insertion order, whitespace, and
    construction path all wash out.

    >>> canonical_json({"b": 1, "a": [2, 3]})
    '{"a":[2,3],"b":1}'
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def spec_content_hash(spec) -> str:
    """SHA-256 hex digest of ``canonical_json(spec.to_dict())``.

    The content address of a (spec, seed) pair: every field of the spec
    -- including ``seed``, which all randomness derives from -- feeds
    the digest, and nothing else does.  Stable across processes,
    Python versions, and dict-key orderings, which is what lets the
    result store (:mod:`repro.service.store`) share entries between
    runs and machines.
    """
    payload = canonical_json(spec.to_dict()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _jsonify(value: Any) -> Any:
    """Normalize to JSON-native types (tuples -> lists, recursively)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


def _check_keys(cls_name: str, data: Mapping[str, Any], allowed) -> None:
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{cls_name}: expected a JSON object, got {type(data).__name__}"
        )
    unknown = set(data) - set(allowed)
    if unknown:
        raise SpecError(
            f"{cls_name}: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _descend(node: Any, part: str, key: str, path) -> Any:
    """One step of a dotted override path (dict key or list index)."""
    if isinstance(node, list):
        try:
            index = int(part)
        except ValueError:
            index = -1
        if not 0 <= index < len(node):
            raise SpecError(
                f"override {key!r}: no spec field {'.'.join(path)!r}"
            )
        return node[index]
    if isinstance(node, Mapping) and part in node:
        return node[part]
    raise SpecError(
        f"override {key!r}: no spec field {'.'.join(path)!r}"
    )


def apply_overrides(
    data: Dict[str, Any],
    overrides: Mapping[str, Any],
    shorthands: Mapping[str, str],
) -> Dict[str, Any]:
    """Apply dotted-path (or shorthand) overrides to a spec dict in place.

    Keys are full dotted paths into the spec dict
    (``"cluster.servers"``, ``"jobs.0.model"`` -- numeric parts index
    into lists) or entries of ``shorthands``.  Unknown leaves are
    rejected except under an ``options`` mapping, whose keys are
    open-ended.  Shared by every spec type's ``with_overrides``.
    """
    for key, value in overrides.items():
        path = shorthands.get(key, key).split(".")
        node = data
        for part in path[:-1]:
            node = _descend(node, part, key, path)
        leaf = path[-1]
        if isinstance(node, list):
            _descend(node, leaf, key, path)  # bounds check
            node[int(leaf)] = value
            continue
        in_options = len(path) >= 2 and path[-2] == "options"
        if not isinstance(node, dict) or (
            leaf not in node and not in_options
        ):
            raise SpecError(
                f"override {key!r}: no spec field {'.'.join(path)!r}"
            )
        node[leaf] = value
    return data


@dataclass(frozen=True)
class WorkloadSpec:
    """Which DNN workload to train.

    ``scale`` names one of the paper's preset families
    (:data:`repro.models.configs.CONFIG_FAMILIES`) or ``"custom"``;
    ``options`` are keyword arguments merged over the preset's builder
    kwargs (for ``"custom"`` they are the full builder kwargs).
    """

    model: str = "DLRM"
    scale: str = "shared"
    batch_per_gpu: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "options", _jsonify(self.options or {}))
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
        _require(
            self.batch_per_gpu is None or self.batch_per_gpu >= 1,
            f"workload.batch_per_gpu must be >= 1, got {self.batch_per_gpu}",
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "scale": self.scale,
            "batch_per_gpu": self.batch_per_gpu,
            "options": copy.deepcopy(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _check_keys("WorkloadSpec", data, cls._field_names())
        return cls(**dict(data))

    @classmethod
    def _field_names(cls):
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class ClusterSpec:
    """The machines: servers, NIC fan-out, per-interface bandwidth."""

    servers: int = 16
    degree: int = 4
    bandwidth_gbps: float = 100.0
    gpus_per_server: int = 4

    def __post_init__(self):
        _require(self.servers >= 2,
                 f"cluster.servers must be >= 2, got {self.servers}")
        _require(self.degree >= 1,
                 f"cluster.degree must be >= 1, got {self.degree}")
        _require(self.bandwidth_gbps > 0,
                 f"cluster.bandwidth_gbps must be > 0, "
                 f"got {self.bandwidth_gbps}")
        _require(self.gpus_per_server >= 1,
                 f"cluster.gpus_per_server must be >= 1, "
                 f"got {self.gpus_per_server}")

    @property
    def link_bandwidth_bps(self) -> float:
        return self.bandwidth_gbps * 1e9

    def to_dict(self) -> Dict[str, Any]:
        return {
            "servers": self.servers,
            "degree": self.degree,
            "bandwidth_gbps": self.bandwidth_gbps,
            "gpus_per_server": self.gpus_per_server,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        _check_keys("ClusterSpec", data, (f.name for f in fields(cls)))
        return cls(**dict(data))


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
class FabricSpec:
    """One interconnect, addressable by registry name.

    ``degree``/``bandwidth_gbps`` default to the cluster's values when
    ``None``; ``options`` are fabric-specific knobs forwarded to the
    registered builder (e.g. ``servers_per_rack`` for ``leaf-spine``,
    ``reconfiguration_latency_s`` for ``ocs-reconfig``).
    """

    kind: str = "topoopt"
    degree: Optional[int] = None
    bandwidth_gbps: Optional[float] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "options", _jsonify(self.options or {}))
        _require(bool(self.kind), "fabric.kind must be a non-empty name")
        _require(
            self.degree is None or self.degree >= 1,
            f"fabric.degree must be >= 1, got {self.degree}",
        )
        _require(
            self.bandwidth_gbps is None or self.bandwidth_gbps > 0,
            f"fabric.bandwidth_gbps must be > 0, got {self.bandwidth_gbps}",
        )

    def validate_kind(self) -> None:
        """Check ``kind`` against the fabric registry (actionable error)."""
        from repro.api.registry import FABRICS

        if self.kind not in FABRICS.names():
            raise SpecError(
                f"fabric.kind: unknown fabric {self.kind!r}; "
                f"registered: {sorted(FABRICS.names())}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "bandwidth_gbps": self.bandwidth_gbps,
            "options": copy.deepcopy(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FabricSpec":
        _check_keys("FabricSpec", data, (f.name for f in fields(cls)))
        return cls(**dict(data))


@dataclass(frozen=True)
class OptimizerSpec:
    """How to choose the parallelization strategy (and topology).

    ``strategy="mcmc"`` runs the search: joint alternating optimization
    when the fabric is ``topoopt`` (topology co-evolves), a single MCMC
    search on the fixed fabric otherwise.  Any other name selects a
    fixed strategy from the strategy registry and skips the search.
    """

    strategy: str = "mcmc"
    rounds: int = 3
    mcmc_iterations: int = 150
    mcmc_restarts: int = 1
    primes_only: bool = False
    incremental: bool = True

    def __post_init__(self):
        from repro.api import registry as _registry_mod  # lazy, cycle-free

        known = tuple(_registry_mod.STRATEGIES.names())
        _require(
            self.strategy in known,
            f"optimizer.strategy: unknown strategy {self.strategy!r}; "
            f"registered: {sorted(known)}",
        )
        _require(self.rounds >= 1,
                 f"optimizer.rounds must be >= 1, got {self.rounds}")
        _require(self.mcmc_iterations >= 1,
                 f"optimizer.mcmc_iterations must be >= 1, "
                 f"got {self.mcmc_iterations}")
        _require(self.mcmc_restarts >= 1,
                 f"optimizer.mcmc_restarts must be >= 1, "
                 f"got {self.mcmc_restarts}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "rounds": self.rounds,
            "mcmc_iterations": self.mcmc_iterations,
            "mcmc_restarts": self.mcmc_restarts,
            "primes_only": self.primes_only,
            "incremental": self.incremental,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizerSpec":
        _check_keys("OptimizerSpec", data, (f.name for f in fields(cls)))
        return cls(**dict(data))


@dataclass(frozen=True)
class SimSpec:
    """Flow-simulation knobs for the iteration-time measurement.

    ``solver`` is the event engine's solve mode
    (:class:`repro.sim.events.FlowEventEngine`): ``"incremental"``
    (default) re-solves max-min rates per event batch and hands a phase
    over to the incremental solver once its completions come one flow
    at a time; ``"batch"`` re-solves per event batch throughout, the
    equivalence oracle.  The OCS-reconfig and SiP-ML fabrics simulate
    themselves and ignore it.
    """

    solver: str = "incremental"
    collect_link_bytes: bool = False

    def __post_init__(self):
        _require(
            self.solver in ("incremental", "batch"),
            f"sim.solver: unknown solver {self.solver!r}; "
            f"use 'incremental' or 'batch'",
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "solver": self.solver,
            "collect_link_bytes": self.collect_link_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimSpec":
        _check_keys("SimSpec", data, (f.name for f in fields(cls)))
        return cls(**dict(data))


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete experiment: spec in, typed result out.

    Composes the five sub-specs plus a ``seed`` (all randomness -- MCMC
    proposals, expander wiring -- derives from it) and optional
    ``baselines``: extra fabrics simulated on the same traffic for
    side-by-side comparison.
    """

    name: str = ""
    seed: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    fabric: FabricSpec = field(default_factory=FabricSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    sim: SimSpec = field(default_factory=SimSpec)
    baselines: Tuple[FabricSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "baselines", tuple(self.baselines))
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        self.fabric.validate_kind()
        for baseline in self.baselines:
            baseline.validate_kind()

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dict; exact inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "seed": self.seed,
            "workload": self.workload.to_dict(),
            "cluster": self.cluster.to_dict(),
            "fabric": self.fabric.to_dict(),
            "optimizer": self.optimizer.to_dict(),
            "sim": self.sim.to_dict(),
            "baselines": [b.to_dict() for b in self.baselines],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _check_keys("ExperimentSpec", data, (f.name for f in fields(cls)))
        kwargs: Dict[str, Any] = dict(data)
        for key, sub in (
            ("workload", WorkloadSpec),
            ("cluster", ClusterSpec),
            ("fabric", FabricSpec),
            ("optimizer", OptimizerSpec),
            ("sim", SimSpec),
        ):
            if key in kwargs and not isinstance(kwargs[key], sub):
                kwargs[key] = sub.from_dict(kwargs[key])
        if "baselines" in kwargs:
            kwargs["baselines"] = tuple(
                b if isinstance(b, FabricSpec) else FabricSpec.from_dict(b)
                for b in (kwargs["baselines"] or ())
            )
        return cls(**kwargs)

    # -- presets -------------------------------------------------------
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

    # -- content addressing --------------------------------------------
    def content_hash(self) -> str:
        """SHA-256 of the canonical (spec, seed) JSON -- the store key.

        Equal specs hash equal regardless of how they were built
        (constructor, ``from_dict``, overrides), and any field change
        -- including ``seed`` -- changes the hash.

        >>> a = ExperimentSpec.preset("testbed")
        >>> b = ExperimentSpec.from_dict(a.to_dict())
        >>> a.content_hash() == b.content_hash()
        True
        >>> a.content_hash() == a.with_overrides({"seed": 1}).content_hash()
        False
        """
        return spec_content_hash(self)

    # -- overrides -----------------------------------------------------
    def with_overrides(
        self, overrides: Mapping[str, Any]
    ) -> "ExperimentSpec":
        """A copy with dotted-path (or shorthand) fields replaced.

        Keys are either full dotted paths into the spec dict
        (``"cluster.servers"``, ``"fabric.options.servers_per_rack"``)
        or the shorthands of :data:`OVERRIDE_SHORTHANDS`
        (``"servers"``, ``"model"``, ...).  The result is re-validated.
        """
        data = apply_overrides(
            self.to_dict(), overrides, OVERRIDE_SHORTHANDS
        )
        return ExperimentSpec.from_dict(data)


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
