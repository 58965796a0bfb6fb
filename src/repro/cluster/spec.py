"""Declarative shared-cluster scenario specifications.

A :class:`ScenarioSpec` describes the *life of a cluster* rather than a
single experiment: an arrival process drawing training jobs from a mix
of templates, a scheduler admitting them onto a shardable TopoOpt
fabric (or a contended shared switch fabric), and a duration.  It is
the input of :func:`repro.cluster.engine.run_scenario` and a first-class
citizen of the PR-4 declarative API: exact JSON round-trip, unknown-key
rejection, registry-validated knobs (fabrics, strategies, workloads,
scheduler policies, arrival processes), dotted-path overrides, and
sweepability through :func:`repro.api.runner.run_sweep`.

Doctest tour::

    >>> from repro.cluster.spec import ScenarioSpec
    >>> spec = ScenarioSpec.preset("shared")
    >>> (spec.cluster.servers, spec.fabric.kind, spec.scheduler.policy)
    (32, 'topoopt', 'first-fit')
    >>> ScenarioSpec.from_dict(spec.to_dict()) == spec
    True
    >>> swept = spec.with_overrides(
    ...     {"fabric.kind": "fattree", "jobs.0.iterations": 2}
    ... )
    >>> (swept.fabric.kind, swept.jobs[0].iterations)
    ('fattree', 2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api.spec import (
    ClusterSpec,
    FabricSpec,
    OptimizerSpec,
    SpecError,
    _require,
)
from repro.cluster.faults import (
    RECOVERY_POLICIES,
    FaultScheduleSpec,
    RecoverySpec,
)
from repro.codec import Spec, field
from repro.models.configs import CONFIG_FAMILIES, MODEL_BUILDERS

#: Arrival processes the engine understands.
ARRIVAL_PROCESSES = ("explicit", "poisson", "trace")

#: How a job's lifetime is bounded: a fixed iteration quota from its
#: template, or the trace generator's wall-clock duration field.
DURATION_MODES = ("iterations", "wallclock")

#: Shard-allocation policies of :class:`repro.cluster.scheduler.ShardAllocator`.
SCHEDULER_POLICIES = ("first-fit", "best-fit", "random")

#: Queue disciplines of :class:`repro.cluster.scheduler.JobScheduler`:
#: plain FCFS with head-of-line blocking, EASY backfill (only the head
#: of the queue holds a reservation), or conservative backfill (every
#: queued job holds one).
QUEUE_POLICIES = ("fcfs", "easy", "conservative")

#: Preemption modes: ``"none"`` (jobs run to completion) or
#: ``"priority"`` (a queued job may evict strictly-lower-priority
#: running jobs, which requeue and later resume with their completed
#: iterations conserved, paying ``checkpoint_s + restart_s``).
PREEMPTION_MODES = ("none", "priority")

#: How per-admission optical reconfiguration latency is charged:
#: ``"flat"`` pays ``admission_latency_s`` on every admission;
#: ``"lookahead"`` lets the :class:`repro.cluster.scheduler.ShardManager`
#: start provisioning a job's topology once it reaches the queue head,
#: so waiting time is credited against the latency (Appendix C's
#: look-ahead provisioning).
PROVISIONING_MODES = ("flat", "lookahead")

#: Trace job families (``traces.generator.WORKLOAD_MIX``) mapped onto
#: the workload registry's model names.
FAMILY_MODELS: Dict[str, str] = {
    "Recommendation": "DLRM",
    "Natural Language Proc.": "BERT",
    "Image Recognition": "VGG16",
    "Object Tracking": "CANDLE",
}

#: Shorthand override keys accepted by ``ScenarioSpec.with_overrides``
#: (and hence ``repro scenario --set``).
SCENARIO_SHORTHANDS: Dict[str, str] = {
    "servers": "cluster.servers",
    "degree": "cluster.degree",
    "bandwidth_gbps": "cluster.bandwidth_gbps",
    "gpus_per_server": "cluster.gpus_per_server",
    "fabric": "fabric.kind",
    "policy": "scheduler.policy",
    "admission_latency_s": "scheduler.admission_latency_s",
    "process": "arrivals.process",
    "count": "arrivals.count",
    "mean_interarrival_s": "arrivals.mean_interarrival_s",
    "max_servers": "arrivals.max_servers",
    "strategy": "optimizer.strategy",
    "rounds": "optimizer.rounds",
    "mcmc_iterations": "optimizer.mcmc_iterations",
    "durations": "arrivals.durations",
    "fast_forward": "fast_forward",
    "queue": "scheduler.queue",
    "preemption": "scheduler.preemption",
    "checkpoint_s": "scheduler.checkpoint_s",
    "restart_s": "scheduler.restart_s",
    "elastic": "scheduler.elastic",
    "resize_latency_s": "scheduler.resize_latency_s",
    "provisioning": "scheduler.provisioning",
    "storms": "faults.storms",
    "storm_window_s": "faults.storm_window_s",
    "storm_region_size": "faults.storm_region_size",
    "storm_servers": "faults.storm_servers",
    "storm_links": "faults.storm_links",
    "mean_repair_s": "faults.mean_repair_s",
    "recovery_policy": "recovery.policy",
    "degradation_threshold": "recovery.degradation_threshold",
    "reoptimize_latency_s": "recovery.reoptimize_latency_s",
    "checkpoint_interval_s": "recovery.checkpoint_interval_s",
    "recovery_restart_s": "recovery.restart_s",
}


@dataclass(frozen=True)
class JobTemplateSpec(Spec, path="job"):
    """One entry of the job mix: what an arriving job trains and needs.

    ``strategy`` names a strategy-registry entry (``"mcmc"`` runs the
    per-job MCMC x TopologyFinder co-optimization on the allocated
    shard); ``None`` falls back to the scenario's
    ``optimizer.strategy``.  ``weight`` biases the weighted draw used by
    the ``poisson`` arrival process (``explicit`` cycles the templates
    in order; ``trace`` matches templates by model name).

    ``priority`` orders the queue and gates preemption when the
    scenario's scheduler runs ``preemption="priority"`` (higher wins;
    only strictly lower-priority running jobs can be evicted).
    ``min_servers`` / ``max_servers`` declare an **elastic** shard
    range around the preferred ``servers`` (both default to ``servers``
    = inelastic): with ``scheduler.elastic`` on, an arriving job
    shrinks down to ``min_servers`` to fit a fragmented cluster, and an
    idle cluster grows it toward ``max_servers``, re-running the
    strategy x topology pipeline at the new shard size.
    """

    model: str = "DLRM"
    scale: str = "shared"
    servers: int = field(default=8, ge=2)
    iterations: int = field(default=4, ge=1)
    weight: float = field(default=1.0, gt=0)
    strategy: Optional[str] = None
    batch_per_gpu: Optional[int] = field(default=None, ge=1)
    priority: int = 0
    min_servers: Optional[int] = None
    max_servers: Optional[int] = None

    def _validate(self):
        families = sorted(CONFIG_FAMILIES) + ["custom"]
        _require(
            self.scale in families,
            f"job.scale: unknown preset family {self.scale!r}; "
            f"use one of {families}",
        )
        if self.scale == "custom":
            _require(
                self.model in MODEL_BUILDERS,
                f"job.model: no builder for {self.model!r}; "
                f"known models: {sorted(MODEL_BUILDERS)}",
            )
        else:
            table = CONFIG_FAMILIES[self.scale]
            _require(
                self.model in table,
                f"job.model: no {self.scale!r} preset for {self.model!r}; "
                f"known: {sorted(table)}",
            )
        if self.min_servers is not None:
            _require(
                2 <= self.min_servers <= self.servers,
                f"job.min_servers must be in [2, servers={self.servers}], "
                f"got {self.min_servers}",
            )
        if self.max_servers is not None:
            _require(
                self.max_servers >= self.servers,
                f"job.max_servers must be >= servers={self.servers}, "
                f"got {self.max_servers}",
            )
        if self.strategy is not None:
            from repro.api.registry import STRATEGIES

            _require(
                self.strategy in STRATEGIES.names(),
                f"job.strategy: unknown strategy {self.strategy!r}; "
                f"registered: {sorted(STRATEGIES.names())}",
            )

    def elastic_range(self) -> Tuple[int, int]:
        """The (min, max) shard sizes this template may run at."""
        lo = self.servers if self.min_servers is None else self.min_servers
        hi = self.servers if self.max_servers is None else self.max_servers
        return lo, hi


@dataclass(frozen=True)
class ArrivalSpec(Spec, path="arrivals"):
    """When jobs show up.

    * ``"explicit"`` -- jobs arrive at exactly ``times`` (seconds),
      ``times[i]`` paired with template ``i % len(jobs)``; ``count``
      and ``mean_interarrival_s`` are ignored.  Fully deterministic.
    * ``"poisson"`` -- ``count`` jobs with exponential interarrival
      gaps of mean ``mean_interarrival_s``; templates drawn by weight.
    * ``"trace"`` -- ``count`` jobs sampled from
      :class:`repro.traces.generator.ProductionTraceGenerator` (the
      paper's section 2.2 population): worker counts set the shard size
      (clamped to ``max_servers``), families map to models via
      :data:`FAMILY_MODELS`, interarrival gaps are exponential.

    ``max_servers = 0`` means "auto": half the cluster, capped at 16.

    ``durations`` selects how long each job runs: ``"iterations"``
    (the template's fixed quota) or ``"wallclock"`` (the trace
    generator's per-job ``duration_hours`` field -- the job departs at
    the first iteration boundary at or past its deadline).  Wall-clock
    durations only exist in the trace population, so ``"wallclock"``
    requires ``process == "trace"``.
    """

    process: str = "poisson"
    count: int = field(default=8, ge=1)
    mean_interarrival_s: float = field(default=30.0, gt=0)
    times: Tuple[float, ...] = ()
    max_servers: int = field(default=0, ge=0)
    durations: str = "iterations"

    def _validate(self):
        _require(
            self.process in ARRIVAL_PROCESSES,
            f"arrivals.process: unknown process {self.process!r}; "
            f"registered: {sorted(ARRIVAL_PROCESSES)}",
        )
        _require(
            self.durations in DURATION_MODES,
            f"arrivals.durations: unknown mode {self.durations!r}; "
            f"use one of {sorted(DURATION_MODES)}",
        )
        _require(
            self.durations == "iterations" or self.process == "trace",
            "arrivals.durations='wallclock' needs process='trace' "
            "(only the trace population carries duration_hours)",
        )
        if self.process == "explicit":
            _require(
                len(self.times) > 0,
                "arrivals.times must be non-empty for process='explicit'",
            )
            _require(
                all(t >= 0 for t in self.times),
                "arrivals.times must all be >= 0",
            )


@dataclass(frozen=True)
class SchedulerSpec(Spec, path="scheduler"):
    """How queued jobs are placed onto free servers.

    ``policy`` picks the contiguous-block allocation rule
    (:data:`SCHEDULER_POLICIES`).  ``queue`` picks the discipline
    (:data:`QUEUE_POLICIES`): plain FCFS head-of-line blocking, EASY
    backfill, or conservative backfill -- both backfills reserve
    (time x block) windows from the engine's wall-clock duration
    estimates.  ``admission_latency_s`` models the optical
    reconfiguration paid per admission (Appendix C: ~1 ms with
    look-ahead provisioning, minutes for a cold patch-panel run);
    ``provisioning="lookahead"`` turns on the :class:`ShardManager`
    that starts provisioning once a job reaches the queue head,
    crediting its waiting time against that latency.

    ``preemption="priority"`` lets a blocked queued job evict
    strictly-lower-priority running jobs; an evicted job requeues with
    its completed iterations conserved and pays ``checkpoint_s`` (state
    save at eviction) plus ``restart_s`` (reload at resume) as extra
    start latency.  ``elastic=True`` activates the templates'
    ``min_servers``/``max_servers`` ranges: arrivals shrink to fit,
    idle capacity grows running jobs, and each resize pays
    ``resize_latency_s`` while the strategy x topology pipeline re-runs
    at the new size.
    """

    policy: str = "first-fit"
    admission_latency_s: float = field(default=0.0, ge=0)
    queue: str = "fcfs"
    preemption: str = "none"
    checkpoint_s: float = field(default=0.0, ge=0)
    restart_s: float = field(default=0.0, ge=0)
    elastic: bool = False
    resize_latency_s: float = field(default=0.0, ge=0)
    provisioning: str = "flat"

    def _validate(self):
        _require(
            self.policy in SCHEDULER_POLICIES,
            f"scheduler.policy: unknown policy {self.policy!r}; "
            f"registered: {sorted(SCHEDULER_POLICIES)}",
        )
        _require(
            self.queue in QUEUE_POLICIES,
            f"scheduler.queue: unknown discipline {self.queue!r}; "
            f"registered: {sorted(QUEUE_POLICIES)}",
        )
        _require(
            self.preemption in PREEMPTION_MODES,
            f"scheduler.preemption: unknown mode {self.preemption!r}; "
            f"registered: {sorted(PREEMPTION_MODES)}",
        )
        _require(
            self.provisioning in PROVISIONING_MODES,
            f"scheduler.provisioning: unknown mode {self.provisioning!r}; "
            f"registered: {sorted(PROVISIONING_MODES)}",
        )


@dataclass(frozen=True)
class ScenarioSpec(Spec, path="", shorthands=SCENARIO_SHORTHANDS):
    """One complete shared-cluster scenario: spec in, typed result out.

    ``fabric.kind == "topoopt"`` selects the shardable mode: every
    admitted job gets a physically isolated optical shard (its own
    TopologyFinder topology and fluid network).  Any other registered
    switch fabric is built once at cluster scale and *shared*: all
    jobs' flows contend on it.  Fabrics that simulate themselves
    (``sipml``, ``ocs-reconfig``) or that need per-job traffic at build
    time (``hierarchical``) cannot serve as the shared substrate.

    Serialization, the content hash and overrides come from
    :mod:`repro.codec`.  ``faults`` and ``recovery`` stay out of the
    JSON, and so out of the hash, at their defaults:

    >>> spec = ScenarioSpec.preset("shared")
    >>> spec.content_hash() == spec.with_overrides(
    ...     {"faults.events": []}).content_hash()
    True
    >>> spec.content_hash() == spec.with_overrides({"seed": 1}).content_hash()
    False
    """

    name: str = ""
    seed: int = field(default=0, ge=0)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    fabric: FabricSpec = field(default_factory=FabricSpec)
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    jobs: Tuple[JobTemplateSpec, ...] = (JobTemplateSpec(),)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    optimizer: OptimizerSpec = field(
        default_factory=lambda: OptimizerSpec(strategy="auto")
    )
    max_sim_time_s: float = field(default=3600.0, gt=0)
    #: Fault schedule (link cuts, host failures, correlated storms);
    #: ``None`` = no faults.  An empty schedule normalizes to ``None``
    #: and both serialize identically (the key is omitted), so
    #: pre-fault-plane results stay byte-identical.
    faults: Optional[FaultScheduleSpec] = field(
        default=None, omit_default=True
    )
    #: How the engine recovers from faults (detour / reoptimize /
    #: checkpoint-restart); the default serializes to nothing.
    recovery: RecoverySpec = field(
        default_factory=RecoverySpec, omit_default=True
    )
    #: Skip steady-state iterations analytically: once a job on an
    #: isolated shard completes a simulated iteration, every following
    #: iteration is identical until its routing changes, so the engine
    #: can account ``K`` iterations in O(1) and jump to the earliest of
    #: departure / next failure / next repair.  Off by default -- the
    #: analytic clock accumulates float error differently from the
    #: step-by-step one, so results are equivalent but not bit-identical
    #: to a full simulation.  Requires the shardable ``topoopt`` fabric
    #: (shared-fabric jobs contend, so no steady state exists).
    fast_forward: bool = False

    def _validate(self):
        if self.faults is not None and self.faults.is_empty:
            object.__setattr__(self, "faults", None)
        if self.faults is not None:
            for event in self.faults.events:
                if event.kind == "server":
                    _require(
                        event.server < self.cluster.servers,
                        f"fault targets server {event.server} but the "
                        f"cluster has only {self.cluster.servers}",
                    )
                elif event.kind == "storm":
                    _require(
                        event.region_start < self.cluster.servers,
                        f"storm region starts at server "
                        f"{event.region_start} but the cluster has only "
                        f"{self.cluster.servers}",
                    )
        _require(len(self.jobs) >= 1, "jobs needs at least one template")
        _require(
            not self.fast_forward or self.fabric.kind == "topoopt",
            "fast_forward requires the shardable 'topoopt' fabric: jobs "
            "on a shared substrate contend and have no steady state",
        )
        self.fabric.validate_kind()
        if self.fabric.kind != "topoopt":
            from repro.api.registry import fabric_entry

            entry = fabric_entry(self.fabric.kind)
            _require(
                not entry.simulates_itself,
                f"fabric.kind: {self.fabric.kind!r} simulates itself and "
                f"cannot serve as a shared fluid substrate; use a switch "
                f"fabric (fattree, ideal-switch, oversubscribed-fattree, "
                f"leaf-spine, expander) or 'topoopt' shards",
            )
            _require(
                self.fabric.kind != "hierarchical",
                "fabric.kind: 'hierarchical' needs per-job traffic at "
                "build time and cannot serve as a shared substrate",
            )
        for template in self.jobs:
            _require(
                template.servers <= self.cluster.servers,
                f"job template needs {template.servers} servers but the "
                f"cluster has only {self.cluster.servers}",
            )
            _require(
                template.elastic_range()[1] <= self.cluster.servers,
                f"job template's max_servers {template.max_servers} "
                f"exceeds the cluster's {self.cluster.servers}",
            )

    # -- presets -------------------------------------------------------
    @classmethod
    def preset(cls, family: str) -> "ScenarioSpec":
        """A ready-to-run scenario matching one of the paper's stories.

        ``"shared"`` is the section 5.6 / Figure 16 setup: the paper's
        DLRM/BERT/CANDLE/VGG16 job mix arriving together onto a
        32-server cluster of 8-server shards.  ``"lifetime"`` is a
        trace-driven cluster life: production-trace jobs (section 2.2
        statistics) arriving over time, queueing for best-fit shards.
        """
        if family not in SCENARIO_PRESETS:
            raise SpecError(
                f"unknown scenario preset {family!r}; "
                f"use one of {sorted(SCENARIO_PRESETS)}"
            )
        return SCENARIO_PRESETS[family]


#: The canonical scenario setups behind :meth:`ScenarioSpec.preset` and
#: the CLI's ``repro scenario --preset`` choices.
SCENARIO_PRESETS: Dict[str, ScenarioSpec] = {
    "shared": ScenarioSpec(
        name="figure16-shared-cluster",
        cluster=ClusterSpec(
            servers=32, degree=4, bandwidth_gbps=100.0, gpus_per_server=4
        ),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(process="explicit", times=(0.0, 0.0, 0.0, 0.0)),
        jobs=(
            JobTemplateSpec(model="DLRM", servers=8),
            JobTemplateSpec(model="BERT", servers=8),
            JobTemplateSpec(model="CANDLE", servers=8),
            JobTemplateSpec(model="VGG16", servers=8),
        ),
        scheduler=SchedulerSpec(policy="first-fit"),
    ),
    "lifetime": ScenarioSpec(
        name="trace-driven-lifetime",
        cluster=ClusterSpec(
            servers=48, degree=4, bandwidth_gbps=100.0, gpus_per_server=4
        ),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(
            process="trace", count=10, mean_interarrival_s=20.0,
            max_servers=12,
        ),
        jobs=(
            JobTemplateSpec(model="DLRM", servers=8, iterations=3),
            JobTemplateSpec(model="BERT", servers=8, iterations=3),
            JobTemplateSpec(model="CANDLE", servers=8, iterations=3),
            JobTemplateSpec(model="VGG16", servers=8, iterations=3),
        ),
        scheduler=SchedulerSpec(policy="best-fit"),
    ),
}
