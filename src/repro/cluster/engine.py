"""The trace-driven shared-cluster scenario engine.

:func:`run_scenario` turns a :class:`~repro.cluster.spec.ScenarioSpec`
into a :class:`~repro.cluster.results.ScenarioResult` by simulating the
cluster's life as a discrete-event loop.  :class:`ScenarioEngine` holds
the run's state (pending arrivals, the queue, running segments, the
substrates' cached next-event times, the timelines) and
:meth:`ScenarioEngine.run` hands each instant's events to one handler
per kind, in this order:

1. **Substrate completions**: each substrate with an event due advances;
   jobs whose iteration quota (or wall-clock budget) is met depart --
   ports freed, fragmentation sampled -- and the others may
   fast-forward.  Departures go first so that the servers they free
   count for everything else decided at this instant.
2. **Analytic departures** of fast-forwarded jobs.
3. **Fault-plane events** (``spec.faults``), one handler per tag.
4. **Arrivals**, drawn from the spec's arrival process (explicit times,
   Poisson, or the section 2.2 production-trace generator), join the
   queue.
5. **Control**, when one of the above freed servers or changed the
   queue or routing: the :class:`~repro.cluster.scheduler.JobScheduler`
   picks admissions, preemptions and elastic grows under its queue
   policy and the :class:`~repro.cluster.scheduler.ShardAllocator`'s
   contiguous blocks.  An admitted job's pipeline runs -- workload
   build, strategy (a fixed registry builder or the MCMC x
   TopologyFinder co-optimization on the allocated shard), traffic
   extraction -- and its flows are handed to the
   :class:`repro.sim.cluster.SharedClusterSimulator` state machine: a
   physically isolated per-shard fluid network when the fabric is
   ``topoopt``, the one contended cluster-wide network otherwise.

Determinism: every random draw derives from the spec seed through
:func:`repro.api.runner.point_seed` streams, the fluid simulation is
seedless (stagger disabled), and all reductions are insertion-ordered,
so ``run_scenario(spec).to_dict()`` is a pure function of (spec, seed).

Strategy parity across fabrics: the per-job pipeline always optimizes
at shard-local scale, so a ``fattree`` scenario offers *exactly* the
traffic its ``topoopt`` twin does -- the comparison isolates the
interconnect, which is what makes the Figure 16 series meaningful.

Faults (section 7) come from the spec's fault plane
(``spec.faults``, see :mod:`repro.cluster.faults`): a cut shard link
is patched through :class:`repro.sim.failures.FailureManager`
(transient MP detour, then an optional permanent port swap) or handled
per ``spec.recovery``, and subsequent iterations ride the repaired
paths.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import (
    FabricBuildContext,
    build_fabric,
    build_strategy,
    build_workload,
)
from repro.api.runner import point_seed
from repro.api.spec import (
    ClusterSpec,
    ExperimentSpec,
    FabricSpec,
    WorkloadSpec,
)
from repro.cluster.faults import FaultEventSpec, FaultPlane
from repro.cluster.results import JobResult, ScenarioResult
from repro.cluster.scheduler import (
    JobScheduler,
    QueuedJob,
    RunningJob,
    ShardAllocator,
    ShardManager,
)
from repro.cluster.spec import FAMILY_MODELS, ScenarioSpec
from repro.models.compute import compute_time_seconds
from repro.models.configs import CONFIG_FAMILIES
from repro.obs import TRACER, ObsReport, TraceRecorder
from repro.parallel.traffic import extract_traffic
from repro.sim.cluster import FlowSet, JobSpec, SharedClusterSimulator

_TIME_EPS = 1e-9


class ScenarioError(RuntimeError):
    """A scenario could not run to completion."""


@dataclass
class _JobPlan:
    """One drawn arrival, fully resolved against its template."""

    index: int
    name: str
    model: str
    scale: str
    servers: int
    iterations: int
    strategy: Optional[str]
    batch_per_gpu: Optional[int]
    arrival_s: float
    seed: int
    #: Wall-clock budget (``arrivals.durations='wallclock'``); ``None``
    #: keeps the template's iteration quota.
    duration_s: Optional[float] = None
    #: Scheduling priority (``preemption="priority"``): higher wins.
    priority: int = 0
    #: Effective elastic shard-size range (collapses to ``servers`` for
    #: inelastic templates; only consulted when ``scheduler.elastic``).
    min_servers: int = 0
    max_servers: int = 0


@dataclass
class _Prepared:
    """The per-job pipeline output (cached across identical templates)."""

    traffic: object
    compute_s: float
    strategy_name: str
    fabric: Optional[object] = None  # local-id TopoOptFabric (shard mode)
    #: Lazily measured uncontended iteration wall time (the backfill
    #: disciplines' reservation currency); exact on isolated shards.
    est_iteration_s: Optional[float] = None
    #: Lazily compiled shard flow set, shared by every admission of
    #: this template (shard mode only; see :meth:`ScenarioEngine._place`).
    flows: Optional[FlowSet] = None


@dataclass
class _JobLife:
    """Cross-segment accounting of one job's whole life.

    Preemption and elastic resize split a job into *segments* (one
    per :class:`_Running` incarnation); everything that must survive a
    segment boundary -- completed iterations, the sealed RLE iteration
    log, wall-clock service time, costs owed at the next start -- lives
    here.  A job that is never preempted or resized has exactly one
    segment and this reduces to the old single-entry bookkeeping.
    """

    plan: _JobPlan
    #: First admission time (queueing delay is measured to here).
    admitted_s: Optional[float] = None
    #: Iterations completed in *sealed* (past) segments.
    done: int = 0
    #: RLE iteration log of sealed segments.
    log: List[Tuple[float, int]] = field(default_factory=list)
    #: Wall-clock service time accumulated in sealed segments
    #: (wall-clock-duration jobs stop their budget clock while evicted).
    served_s: float = 0.0
    preemptions: int = 0
    resizes: int = 0
    #: Checkpoint/restart debt charged at the next segment start.
    pending_overhead_s: float = 0.0
    #: When the job was last evicted (None = not currently evicted).
    requeued_s: Optional[float] = None
    #: Total time spent requeued between eviction and re-admission.
    preempted_wait_s: float = 0.0
    #: Fault-plane accounting: crash-suspensions suffered, progress
    #: they destroyed, time spent fault-requeued, and re-optimizations.
    #: ``fault_requeued`` flags whether the *current* eviction was a
    #: fault (its wait lands in ``fault_wait_s``, not the scheduler's
    #: ``preempted_wait_s``).
    fault_suspensions: int = 0
    lost_iterations: int = 0
    lost_work_s: float = 0.0
    fault_wait_s: float = 0.0
    reoptimizations: int = 0
    fault_requeued: bool = False


@dataclass
class _Running:
    """One segment of a running job: where it runs and what it did there.

    Every placement builds a fresh entry (:meth:`ScenarioEngine._attach`),
    so nothing of a previous shard -- its fault manager included --
    survives a re-placement.
    """

    plan: _JobPlan
    prepared: _Prepared
    servers: Tuple[int, ...]
    substrate: SharedClusterSimulator
    state: object
    life: _JobLife
    #: When this segment's first compute phase starts (admission time
    #: plus provisioning latency and any checkpoint/restart debt).
    start_s: float
    #: First iteration boundary at or past this absolute time ends the
    #: job (wall-clock durations); ``None`` means quota mode.
    deadline_s: Optional[float] = None
    failure_manager: Optional[object] = None
    #: Run-length-encoded iteration record, built lazily the first time
    #: fast-forward accounts iterations analytically (``None`` = every
    #: iteration was simulated and ``state.stats`` is the full record).
    log: Optional[List[Tuple[float, int]]] = None
    #: How many simulated iterations are already flushed into ``log``.
    logged_upto: int = 0
    #: Iterations accounted analytically (never simulated).
    ff_count: int = 0
    #: Fast-forwarded straight to departure: the job left its substrate
    #: early and only awaits its scheduled analytic departure time.
    detached: bool = False
    #: Exact analytic departure time of a detached job.
    analytic_finish_s: Optional[float] = None

    def flush_log(self) -> List[Tuple[float, int]]:
        """Bring the RLE log up to date with the simulated record."""
        if self.log is None:
            self.log = []
        recorded = self.state.stats.iteration_times
        self.log.extend((t, 1) for t in recorded[self.logged_upto:])
        self.logged_upto = len(recorded)
        return self.log

    def segment_done(self) -> int:
        """Iterations completed in this segment, simulated or not."""
        return len(self.state.stats.iteration_times) + self.ff_count

    def total_done(self) -> int:
        return self.life.done + self.segment_done()

    def iterations(self):
        """The job's whole iteration record: ``(times, counts)``."""
        sealed = list(self.life.log)
        if self.log is None and not sealed:
            return tuple(self.state.stats.iteration_times), None
        sealed.extend(self.flush_log())
        return tuple(t for t, _ in sealed), tuple(c for _, c in sealed)

    def seal(self, now: float) -> None:
        """Fold the segment into the job's lifetime record."""
        life = self.life
        life.done += self.segment_done()
        life.log.extend(self.flush_log())
        life.served_s += max(0.0, now - self.start_s)


def checkpoint_rollback(
    log: Sequence[Tuple[float, int]],
    elapsed_s: float,
    interval_s: Optional[float],
) -> Tuple[List[Tuple[float, int]], int, float, float]:
    """What of a crashed segment survives its last checkpoint.

    ``log`` is the segment's run-length-encoded iteration record of
    ``(duration, count)`` runs and ``elapsed_s`` its service time;
    checkpoints are taken every ``interval_s`` of service (``None``:
    never).  Returns ``(kept_log, kept_iterations, kept_work_s,
    checkpoint_s)``: the longest prefix of the log, its last run
    possibly shortened, that fits in the checkpointed time
    ``checkpoint_s``.  Everything after it is lost.

    Both roundings forgive float error at a boundary: service a hair
    short of an interval multiple reached that checkpoint (taken at
    ``elapsed_s``, never later), and an iteration ending within
    ``_TIME_EPS`` past the checkpoint made it in.
    """
    kept: List[Tuple[float, int]] = []
    kept_iters = 0
    kept_work = 0.0
    if interval_s is None:
        return kept, kept_iters, kept_work, 0.0
    checkpoint = min(
        math.floor(elapsed_s / interval_s + _TIME_EPS) * interval_s,
        elapsed_s,
    )
    budget = checkpoint
    for t, c in log:
        if t <= 0:
            kept.append((t, c))
            kept_iters += c
            continue
        fit = min(c, int((budget + _TIME_EPS) // t))
        if fit > 0:
            kept.append((t, fit))
            kept_iters += fit
            kept_work += t * fit
            budget -= t * fit
        if fit < c:
            break
    return kept, kept_iters, kept_work, checkpoint


class ScenarioEngine:
    """Drives one scenario; most callers want :func:`run_scenario`."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.shardable = spec.fabric.kind == "topoopt"
        self._allocator = ShardAllocator(
            spec.cluster.servers,
            spec.scheduler.policy,
            random.Random(point_seed(spec.seed, {"stream": "allocator"})),
        )
        self.scheduler = JobScheduler(spec.scheduler, self._allocator)
        self.manager = ShardManager(spec.scheduler)
        #: ``(now, key, t_res, start, count)`` head-of-queue reservation
        #: snapshots from every backfill pass (in-memory only; the
        #: invariant harness checks "backfill never delays the head"
        #: against these).
        self.reservation_trace: List[Tuple[float, int, float, int, int]] = []
        #: JSON-native admit/preempt/resize/depart event record; lands
        #: on the result as ``scheduler_log`` so occupancy can be
        #: reconstructed and invariant-checked after the fact.
        self.scheduler_log: List[Dict[str, Any]] = []
        # Per-template pipeline outputs live in the process-wide warm
        # cache (repro.perf.warmcache.PIPELINE_CACHE): repeated
        # admissions of one template -- and repeated scenarios over the
        # same templates -- skip the workload/strategy/TopologyFinder
        # pipeline entirely.
        self._substrates: List[SharedClusterSimulator] = []
        self._shared_fabric = None
        if not self.shardable:
            ctx = FabricBuildContext(
                num_servers=spec.cluster.servers,
                degree=spec.cluster.degree,
                link_bandwidth_bps=spec.cluster.link_bandwidth_bps,
                seed=spec.seed,
            )
            self._shared_fabric = build_fabric(spec.fabric, ctx)
            self._substrates.append(
                SharedClusterSimulator(
                    self._shared_fabric.capacities(),
                    seed=0,
                    stagger=False,
                    solver=spec.solver,
                )
            )
        self.failure_log: List[Dict[str, Any]] = []
        #: The declarative fault plane (``spec.faults``), resolved into
        #: a runtime event heap; ``None`` for fault-free scenarios so
        #: their event loop stays byte-for-byte on the historical path.
        self.fault_plane: Optional[FaultPlane] = None
        if spec.faults is not None:
            self.fault_plane = FaultPlane(
                spec.faults, spec.seed, spec.cluster.servers
            )
        # -- run state: what the event handlers share --------------------
        #: Drawn arrivals not yet due, in arrival order.
        self.pending: Deque[_JobPlan] = deque(self._draw_jobs())
        #: Jobs waiting for a block, in arrival-index order.
        self.queue: List[_JobLife] = []
        #: Every arrived job's lifetime record, by arrival index.
        self.lives: Dict[int, _JobLife] = {}
        #: The live segment of every placed job, by arrival index.
        self.running: Dict[int, _Running] = {}
        #: id(state) -> entry: O(1) owner lookup when a substrate
        #: reports iterated states (the per-event scan over ``running``
        #: dominated large scenarios).
        self.by_state: Dict[int, _Running] = {}
        self.finished: List[JobResult] = []
        self.utilization: List[Tuple[float, int]] = [(0.0, 0)]
        self.fragmentation: List[Tuple[float, float]] = []
        #: (departure time, job index) heap of fast-forwarded jobs that
        #: already left their substrates.
        self.analytic: List[Tuple[float, int]] = []
        #: Cached absolute next-event time per substrate.  A substrate's
        #: schedule only changes when the loop touches it (advance, job
        #: add/remove/defer), so untouched substrates are not re-queried
        #: -- and not re-solved -- on every event.
        self.event_cache: Dict[int, Optional[float]] = {}
        #: Substrates touched since the last refresh of ``event_cache``.
        self.dirty: set = set()
        self.makespan = 0.0
        #: Arrival indices of jobs the fault plane left unplaceable.
        self.unfinished: List[int] = []

    # -- arrival drawing -----------------------------------------------
    def _plan(self, index, template, arrival_s, model=None, servers=None,
              duration_s=None):
        model = model or template.model
        scale = template.scale
        if model != template.model and model not in CONFIG_FAMILIES.get(
            scale, {}
        ):
            scale = "shared"  # trace fallback: every family model has one
        resolved_servers = servers or template.servers
        lo, hi = template.elastic_range()
        lo = min(lo, resolved_servers)
        hi = min(max(hi, resolved_servers), self.spec.cluster.servers)
        return _JobPlan(
            index=index,
            name=f"{model}-{index}",
            model=model,
            scale=scale,
            servers=resolved_servers,
            iterations=template.iterations,
            strategy=template.strategy,
            batch_per_gpu=template.batch_per_gpu,
            arrival_s=arrival_s,
            seed=point_seed(self.spec.seed, {"job": index}),
            duration_s=duration_s,
            priority=template.priority,
            min_servers=lo,
            max_servers=hi,
        )

    def _draw_jobs(self) -> List[_JobPlan]:
        spec = self.spec
        arrivals = spec.arrivals
        templates = spec.jobs
        rng = random.Random(point_seed(spec.seed, {"stream": "arrivals"}))
        plans: List[_JobPlan] = []
        if arrivals.process == "explicit":
            # Pair times[i] with templates[i % len] in the order the
            # user wrote them (so "jobs.0.*" overrides target the job
            # arriving at times[0]), then order the plans by arrival
            # for the event loop.
            for index, arrival in enumerate(arrivals.times):
                template = templates[index % len(templates)]
                plans.append(self._plan(index, template, float(arrival)))
            plans.sort(key=lambda plan: (plan.arrival_s, plan.index))
            return plans
        clock = 0.0
        if arrivals.process == "poisson":
            weights = [template.weight for template in templates]
            for index in range(arrivals.count):
                clock += rng.expovariate(1.0 / arrivals.mean_interarrival_s)
                template = rng.choices(templates, weights=weights, k=1)[0]
                plans.append(self._plan(index, template, clock))
            return plans
        # trace: the section 2.2 production population sets model family
        # and worker count; templates contribute iteration quotas and
        # strategy choices (matched by model name, first template as the
        # default).
        from repro.traces.generator import ProductionTraceGenerator

        generator = ProductionTraceGenerator(
            seed=point_seed(spec.seed, {"stream": "trace"})
        )
        records = generator.sample_population(arrivals.count)
        cap = arrivals.max_servers or max(
            2, min(spec.cluster.servers // 2, 16)
        )
        cap = min(cap, spec.cluster.servers)
        by_model = {}
        for template in templates:
            by_model.setdefault(template.model, template)
        wallclock = arrivals.durations == "wallclock"
        for index, record in enumerate(records):
            clock += rng.expovariate(1.0 / arrivals.mean_interarrival_s)
            model = FAMILY_MODELS[record.family]
            template = by_model.get(model, templates[0])
            servers = max(
                2,
                min(
                    record.num_workers // spec.cluster.gpus_per_server, cap
                ),
            )
            plans.append(
                self._plan(
                    index, template, clock, model=model, servers=servers,
                    duration_s=(
                        record.duration_hours * 3600.0 if wallclock
                        else None
                    ),
                )
            )
        return plans

    # -- per-job pipeline ----------------------------------------------
    def _prepare(self, plan: _JobPlan) -> _Prepared:
        from repro.perf.warmcache import PIPELINE_CACHE

        spec = self.spec
        resolved = plan.strategy or spec.optimizer.strategy
        # Every input the pipeline consumes is in the key, so a warm
        # hit is guaranteed to return what a cold build would have.
        key = (
            plan.model, plan.scale, plan.servers, resolved,
            plan.batch_per_gpu,
            plan.seed if resolved == "mcmc" else None,
            spec.cluster.degree, spec.cluster.bandwidth_gbps,
            spec.cluster.gpus_per_server, self.shardable,
            tuple(sorted(spec.optimizer.to_dict().items())),
        )
        def build() -> _Prepared:
            # Only cache misses pay the pipeline, so only misses get a
            # span; warm hits stay O(dict lookup).
            with TRACER.span("engine.pipeline_build", cat="engine",
                             model=plan.model, servers=plan.servers,
                             strategy=resolved):
                return self._build_pipeline(plan, resolved)

        return PIPELINE_CACHE.get_or_build(key, build)

    def _build_pipeline(self, plan: _JobPlan, resolved: str) -> _Prepared:
        spec = self.spec
        if resolved == "mcmc":
            # The full co-optimization (MCMC x TopologyFinder) at shard
            # scale, via the experiment runner's pipeline.
            from repro.api.runner import prepare as prepare_experiment

            experiment = ExperimentSpec(
                name=plan.name,
                seed=plan.seed,
                workload=WorkloadSpec(
                    model=plan.model,
                    scale=plan.scale,
                    batch_per_gpu=plan.batch_per_gpu,
                ),
                cluster=ClusterSpec(
                    servers=plan.servers,
                    degree=spec.cluster.degree,
                    bandwidth_gbps=spec.cluster.bandwidth_gbps,
                    gpus_per_server=spec.cluster.gpus_per_server,
                ),
                fabric=FabricSpec(kind="topoopt"),
                optimizer=replace(spec.optimizer, strategy="mcmc"),
            )
            pipeline = prepare_experiment(experiment)
            prepared = _Prepared(
                traffic=pipeline.traffic,
                compute_s=pipeline.compute_s,
                strategy_name="mcmc",
                fabric=pipeline.fabric if self.shardable else None,
            )
        else:
            model = build_workload(
                WorkloadSpec(
                    model=plan.model,
                    scale=plan.scale,
                    batch_per_gpu=plan.batch_per_gpu,
                )
            )
            batch = plan.batch_per_gpu or model.default_batch_per_gpu
            strategy = build_strategy(
                resolved,
                model,
                plan.servers,
                batch_per_gpu=batch,
                gpus_per_server=spec.cluster.gpus_per_server,
            )
            traffic = extract_traffic(
                model, strategy, batch, spec.cluster.gpus_per_server
            )
            compute_s = compute_time_seconds(
                model, batch, spec.cluster.gpus_per_server
            )
            fabric = None
            if self.shardable:
                from repro.core.topology_finder import topology_finder
                from repro.network.topoopt import TopoOptFabric

                result = topology_finder(
                    plan.servers,
                    spec.cluster.degree,
                    traffic.allreduce_groups,
                    traffic.mp_matrix,
                    primes_only=spec.optimizer.primes_only,
                )
                fabric = TopoOptFabric(
                    result, spec.cluster.link_bandwidth_bps
                )
            prepared = _Prepared(
                traffic=traffic,
                compute_s=compute_s,
                strategy_name=resolved,
                fabric=fabric,
            )
        return prepared

    # -- duration estimates --------------------------------------------
    def _est_iteration(self, prepared: _Prepared, servers: int) -> float:
        """Uncontended wall time of one iteration of this pipeline.

        The backfill disciplines' reservation currency.  Measured by
        running a single-job, single-iteration simulation on the job's
        own shard-local fabric -- on an isolated ``topoopt`` shard
        every real iteration repeats this one exactly (relabeling
        preserves capacities), so the estimate is *exact* there.  On a
        shared substrate the local build ignores contention, making the
        estimate a lower bound, as user-supplied runtime estimates are
        in real clusters.  Cached on the (warm-cache-shared) pipeline
        output, so each template pays for one estimate per shard size.
        """
        if prepared.est_iteration_s is not None:
            return prepared.est_iteration_s
        fabric = prepared.fabric
        flows = None
        if fabric is None:
            ctx = FabricBuildContext(
                num_servers=servers,
                degree=self.spec.cluster.degree,
                link_bandwidth_bps=self.spec.cluster.link_bandwidth_bps,
                seed=self.spec.seed,
            )
            try:
                fabric = build_fabric(self.spec.fabric, ctx)
            except (ValueError, RuntimeError):
                # Some fabrics cannot build at every shard size (an
                # expander needs an even servers x degree and more
                # servers than its degree); fall back to a crude
                # compute-bound guess rather than failing the scenario
                # over an estimate.
                fabric = None
        else:
            flows = self._shard_flows(prepared)
        estimate = 2.0 * prepared.compute_s
        if fabric is not None:
            sim = SharedClusterSimulator(
                fabric.capacities(),
                seed=0,
                stagger=False,
                solver=self.spec.solver,
            )
            state = sim.add_job(
                JobSpec(
                    name="estimate",
                    traffic=prepared.traffic,
                    compute_s=prepared.compute_s,
                    fabric=fabric,
                    flows=flows,
                ),
                start=0.0,
            )
            for _ in range(10000):
                if state.stats.iteration_times:
                    break
                target = sim.next_event_time()
                if target is None:
                    break
                sim.advance_to(target)
            if state.stats.iteration_times:
                estimate = float(state.stats.iteration_times[0])
        prepared.est_iteration_s = max(estimate, _TIME_EPS)
        return prepared.est_iteration_s

    # -- placement -----------------------------------------------------
    @staticmethod
    def _shard_flows(prepared: _Prepared) -> FlowSet:
        """The template's shard flow set, compiled on first use.

        Compiled on the shard-local fabric: every admission's relabeled
        fabric keeps its link order, and shards are contiguous blocks,
        so the set is the one a per-job build would produce.
        """
        if prepared.flows is None:
            fabric = prepared.fabric
            prepared.flows = FlowSet.compile(
                fabric.capacities(), fabric, prepared.traffic
            )
        return prepared.flows

    def _place(
        self, name: str, prepared: _Prepared, servers: Sequence[int]
    ) -> Tuple[SharedClusterSimulator, JobSpec]:
        """The substrate a job runs on and its job spec there.

        On ``topoopt`` every segment gets a fresh isolated shard
        substrate (appended to the engine's list) carrying the
        template's flow set; otherwise the one shared substrate, whose
        kernel compiles the job's flows itself.  The spec keeps the
        template's local-id traffic plus the block as ``server_map``:
        only a flow build ever needs the global-id view.
        """
        servers = list(servers)
        if not self.shardable:
            return self._substrates[0], JobSpec(
                name=name,
                traffic=prepared.traffic,
                compute_s=prepared.compute_s,
                fabric=self._shared_fabric,
                server_map=servers,
            )
        fabric = prepared.fabric.relabel(servers)
        substrate = SharedClusterSimulator(
            fabric.capacities(),
            seed=0,
            stagger=False,
            solver=self.spec.solver,
        )
        self._substrates.append(substrate)
        return substrate, JobSpec(
            name=name,
            traffic=prepared.traffic,
            compute_s=prepared.compute_s,
            fabric=fabric,
            flows=self._shard_flows(prepared),
            server_map=servers,
        )

    # -- the event loop ------------------------------------------------
    def run(self) -> ScenarioResult:
        """Step the cluster from event to event until every job is done.

        Each step takes the earliest pending instant and handles, in
        this order, everything due at it: substrate completions (then
        the departures they made due), analytic departures, fault-plane
        events, arrivals, and -- when one of those freed servers or
        changed the queue -- the scheduler's control pass.
        """
        spec = self.spec
        plane = self.fault_plane
        pending, queue, running = self.pending, self.queue, self.running
        analytic, event_cache, dirty = (
            self.analytic, self.event_cache, self.dirty
        )
        # One reusable batching span for the per-event step: hot enough
        # that allocating a live span per event would blow the
        # obs_overhead budget; a shared no-op when tracing is off.
        step_span = TRACER.batch_span("engine.step", cat="engine")
        while pending or queue or running:
            candidates: List[float] = []
            if pending:
                candidates.append(pending[0].arrival_s)
            if plane is not None and math.isfinite(plane.next_time()):
                candidates.append(plane.next_time())
            if analytic:
                candidates.append(analytic[0][0])
            # Refresh only substrates the previous event touched; the
            # rest keep their cached next-event times.
            for substrate in self._substrates:
                sid = id(substrate)
                if sid in dirty or sid not in event_cache:
                    event_cache[sid] = substrate.next_event_time()
            dirty.clear()
            substrate_events = [
                (substrate, event_cache[id(substrate)])
                for substrate in self._substrates
            ]
            candidates.extend(
                event for _, event in substrate_events if event is not None
            )
            if not candidates:
                self._strand_queue()
                break
            now = min(candidates)
            if now > spec.max_sim_time_s:
                left = len(queue) + len(running) + len(pending)
                raise ScenarioError(
                    f"scenario exceeded max_sim_time_s="
                    f"{spec.max_sim_time_s:g} with {left} job(s) "
                    f"unfinished; raise the cap or shrink the workload"
                )
            due = now + _TIME_EPS
            with step_span:
                TRACER.gauge("engine.sim_now_s", now)
                departures: List[_Running] = []
                for substrate, event in substrate_events:
                    if event is not None and event <= due:
                        departures.extend(
                            self._on_substrate_event(substrate, now)
                        )
                for entry in departures:
                    self._depart(entry, now)
                #: Whether this event can change a scheduling decision.
                #: Admission/backfill/preemption/growth opportunities only
                #: improve when servers free up, the queue changes, or
                #: routing changes -- never from time passing alone (a
                #: backfill window only shrinks as ``now`` approaches the
                #: head's reservation), so plain iteration completions
                #: skip the control pass.  This keeps the O(queue)
                #: reservation walk off the per-iteration hot path.
                control_due = bool(departures)
                while analytic and analytic[0][0] <= due:
                    self._on_analytic_departure(
                        heapq.heappop(analytic)[1], now
                    )
                    control_due = True
                if plane is not None and plane.next_time() <= due:
                    for tag, payload in plane.pop_due(now, _TIME_EPS):
                        with TRACER.span("engine.fault", cat="engine",
                                         kind=tag):
                            self._FAULT_HANDLERS[tag](self, payload, now)
                    control_due = True
                while pending and pending[0].arrival_s <= due:
                    self._on_arrival(pending.popleft())
                    control_due = True
                if control_due:
                    with TRACER.span("engine.control", cat="engine"):
                        self._on_control(now)

        # Faults scheduled past the last departure never fired; record
        # them so the log accounts for every requested one.
        if plane is not None:
            for when, tag, _payload in plane.drain():
                self.failure_log.append(
                    {
                        "time_s": when,
                        "kind": "skipped",
                        "reason": f"scenario ended before {tag} time",
                    }
                )
        return ScenarioResult(
            spec=spec,
            jobs=tuple(sorted(self.finished, key=attrgetter("index"))),
            makespan_s=self.makespan,
            utilization_timeline=tuple(self.utilization),
            fragmentation_timeline=tuple(self.fragmentation),
            failure_log=tuple(self.failure_log),
            scheduler_log=tuple(self.scheduler_log),
            unfinished_jobs=tuple(self.unfinished),
        )

    def _strand_queue(self) -> None:
        """Nothing is left to happen but jobs still wait.

        When the fault plane made the queue unplaceable (hosts dead for
        good, or a suspended job that can never be re-admitted), degrade
        gracefully: report the survivors as unfinished.  Anything else
        is a stall.
        """
        if not self.queue or (
            self.fault_plane is None
            and not any(life.fault_suspensions for life in self.lives.values())
        ):
            stuck = [life.plan.name for life in self.queue]
            raise ScenarioError(f"scenario stalled with jobs queued: {stuck}")
        self.unfinished.extend(sorted(life.plan.index for life in self.queue))
        for life in self.queue:
            self._log(self.makespan, "unfinished", life.plan.index, [])
        self.queue.clear()

    # -- bookkeeping ---------------------------------------------------
    def _sample(self, now: float) -> None:
        busy = self._allocator.busy_count
        self.utilization.append((now, busy))
        self.fragmentation.append((now, self._allocator.fragmentation()))
        TRACER.sample("cluster.busy_servers", now, busy)

    def _log(self, now: float, event: str, index: int, servers, **extra):
        record: Dict[str, Any] = {
            "time_s": float(now),
            "event": event,
            "job_index": int(index),
            "servers": [int(s) for s in servers],
        }
        record.update(extra)
        self.scheduler_log.append(record)
        TRACER.count(f"scheduler.{event}")

    def _requeue(self, life: _JobLife) -> None:
        """Reinsert an evicted job, keeping arrival-index order."""
        keys = [item.plan.index for item in self.queue]
        self.queue.insert(bisect.bisect_left(keys, life.plan.index), life)

    # -- attach and detach ---------------------------------------------
    def _attach(
        self, life: _JobLife, servers: Tuple[int, ...], start: float
    ) -> _Running:
        """Start a job's next segment on ``servers`` at ``start``.

        The one place-and-start path (admission, elastic resize,
        re-optimization): the pipeline runs at the block's size
        (warm-cached per template and size), the job joins its
        substrate, and a fresh entry records the segment.  A wall-clock
        job's deadline is whatever is left of its budget.
        """
        plan = life.plan
        size = len(servers)
        seg_plan = plan if size == plan.servers else replace(
            plan, servers=size
        )
        prepared = self._prepare(seg_plan)
        substrate, job = self._place(plan.name, prepared, servers)
        state = substrate.add_job(job, start=start)
        entry = _Running(
            plan=seg_plan,
            prepared=prepared,
            servers=tuple(servers),
            substrate=substrate,
            state=state,
            life=life,
            start_s=start,
            deadline_s=(
                start + (plan.duration_s - life.served_s)
                if plan.duration_s is not None else None
            ),
        )
        self.running[plan.index] = entry
        self.by_state[id(state)] = entry
        self.dirty.add(id(substrate))
        return entry

    def _detach(self, entry: _Running) -> None:
        """Take a job's segment off its substrate.

        Its compute timer and in-flight flows go at once, returning
        their bandwidth to the survivors; work in a partial iteration
        is lost.  An isolated shard substrate goes with its job.
        """
        substrate = entry.substrate
        substrate.remove_job(entry.state)
        if self.shardable:
            self._substrates.remove(substrate)
            self.event_cache.pop(id(substrate), None)
            self.dirty.discard(id(substrate))
        else:
            self.dirty.add(id(substrate))
        self.by_state.pop(id(entry.state), None)

    # -- event handlers ------------------------------------------------
    def _on_arrival(self, plan: _JobPlan) -> None:
        life = _JobLife(plan=plan)
        self.lives[plan.index] = life
        self.queue.append(life)

    def _on_substrate_event(
        self, substrate: SharedClusterSimulator, now: float
    ) -> List[_Running]:
        """Advance one substrate to ``now``; return the jobs now done.

        A job whose iteration ended without finishing it may
        fast-forward instead.
        """
        done: List[_Running] = []
        # No span here: ``flow.solve`` inside the advance already
        # captures the expensive part, and a third span per event
        # would eat the overhead budget.
        iterated = substrate.advance_to(now)
        self.dirty.add(id(substrate))
        for state in iterated:
            entry = self.by_state.get(id(state))
            if entry is None:
                continue
            if entry.deadline_s is not None:
                due = now + _TIME_EPS >= entry.deadline_s
            else:
                due = entry.total_done() >= entry.plan.iterations
            if due:
                done.append(entry)
            elif self.spec.fast_forward and self.shardable:
                self._fast_forward(entry, now)
        return done

    def _on_analytic_departure(self, index: int, now: float) -> None:
        self._depart(self.running[index], now)

    def _on_control(self, now: float) -> None:
        """Drain the scheduler's action stream at this instant."""
        scheduler = self.scheduler
        if not (self.queue or (self.spec.scheduler.elastic and self.running)):
            return
        for _ in range(100000):
            qviews = [self._queued_view(life) for life in self.queue]
            if qviews:
                self.manager.note_head(scheduler.ordered(qviews)[0].key, now)
            rviews = (
                [self._running_view(e) for e in self.running.values()]
                if scheduler.needs_running else ()
            )
            scheduler.last_head_reservation = None
            action = scheduler.next_action(now, qviews, rviews)
            if scheduler.last_head_reservation is not None:
                self.reservation_trace.append(
                    (now,) + scheduler.last_head_reservation
                )
            if action is None:
                return
            if action.kind == "admit":
                life = self.lives[action.key]
                self.queue.remove(life)
                self._admit(life, action.servers, now, action.backfilled)
            elif action.kind == "preempt":
                for key in action.victims:
                    self._preempt(self.running[key], now)
            else:  # grow
                self._resize(self.running[action.key], action.servers, now)
        raise ScenarioError("scheduler control loop did not converge")

    # -- the job lifecycle ---------------------------------------------
    def _fast_forward(self, entry: _Running, now: float) -> None:
        """Account steady-state iterations analytically.

        On an isolated shard every iteration repeats the last simulated
        one exactly (same fabric, same flows), so ``K`` of them are one
        RLE entry.  The jump is capped at the next pending fault event:
        the job either departs analytically or lands on the last
        boundary before the horizon and resumes simulating.  Fault
        events resolve their victims only at fire time (a storm picks
        whoever overlaps its region), so *any* pending one caps every
        job: no fast-forward may step over a fault, and no job may
        detach while one is still due.
        """
        d = entry.state.stats.iteration_times[-1]
        if d <= 0:
            return
        if entry.deadline_s is not None:
            remaining = math.ceil((entry.deadline_s - now) / d - _TIME_EPS)
        else:
            remaining = entry.plan.iterations - entry.total_done()
        if remaining < 1:
            return
        plane = self.fault_plane
        horizon = plane.next_time() if plane is not None else math.inf
        finish = now + remaining * d
        if finish <= horizon:
            entry.flush_log().append((d, remaining))
            entry.ff_count += remaining
            self._detach(entry)
            entry.detached = True
            entry.analytic_finish_s = finish
            heapq.heappush(self.analytic, (finish, entry.plan.index))
            return
        skip = int((horizon - now) / d)
        if skip < 1:
            return
        entry.flush_log().append((d, skip))
        entry.ff_count += skip
        entry.substrate.defer_job(entry.state, now + skip * d)
        self.dirty.add(id(entry.substrate))

    def _est_finish(self, entry: _Running) -> float:
        """When this running job releases its block (estimate).

        Detached fast-forwarded jobs have an exact booked departure;
        attached jobs project iteration boundaries from the segment
        start (exact on isolated shards, a bound under contention).
        """
        if entry.detached:
            return entry.analytic_finish_s
        d = self._est_iteration(entry.prepared, len(entry.servers))
        if entry.deadline_s is not None:
            k = max(
                1,
                math.ceil((entry.deadline_s - entry.start_s) / d - _TIME_EPS),
            )
            return entry.start_s + k * d
        remaining = max(entry.plan.iterations - entry.life.done, 0)
        return entry.start_s + remaining * d

    def _queued_view(self, life: _JobLife) -> QueuedJob:
        plan = life.plan
        if self.scheduler.needs_estimates:
            d = self._est_iteration(self._prepare(plan), plan.servers)
            if plan.duration_s is not None:
                left = max(plan.duration_s - life.served_s, 0.0)
                run_s = d * max(1, math.ceil(left / d - _TIME_EPS))
            else:
                run_s = d * max(plan.iterations - life.done, 0)
            estimate = (
                life.pending_overhead_s
                + self.spec.scheduler.admission_latency_s
                + run_s
            )
        else:
            estimate = math.inf
        return QueuedJob(
            key=plan.index,
            servers=plan.servers,
            min_servers=plan.min_servers,
            max_servers=plan.max_servers,
            priority=plan.priority,
            est_duration_s=estimate,
        )

    def _running_view(self, entry: _Running) -> RunningJob:
        plan = entry.life.plan
        return RunningJob(
            key=plan.index,
            servers=entry.servers,
            priority=plan.priority,
            est_finish_s=(
                self._est_finish(entry)
                if self.scheduler.needs_estimates else math.inf
            ),
            preemptible=not entry.detached,
            resizable=not entry.detached,
            max_servers=plan.max_servers,
        )

    def _admit(
        self,
        life: _JobLife,
        servers: Tuple[int, ...],
        now: float,
        backfilled: bool,
    ) -> None:
        index = life.plan.index
        start = (
            now
            + life.pending_overhead_s
            + self.manager.admission_latency(index, now)
        )
        life.pending_overhead_s = 0.0
        self.manager.forget(index)
        self._attach(life, servers, start)
        if life.admitted_s is None:
            life.admitted_s = now
        if life.requeued_s is not None:
            wait = now - life.requeued_s
            if life.fault_requeued:
                life.fault_wait_s += wait
                life.fault_requeued = False
            else:
                life.preempted_wait_s += wait
            life.requeued_s = None
        self._log(now, "admit", index, servers, backfilled=backfilled)
        TRACER.count("engine.admission_latency_s", start - now)
        self._sample(now)

    def _preempt(self, entry: _Running, now: float) -> None:
        """Evict a running job (its block is already freed).

        The scheduler freed the allocator block before returning the
        ``preempt`` action; this applies the simulator half --
        checkpoint the job out of its substrate -- and requeues it with
        its completed iterations conserved and the checkpoint/restart
        debt booked for its next start.
        """
        sched_spec = self.spec.scheduler
        life = entry.life
        entry.seal(now)
        self._detach(entry)
        del self.running[life.plan.index]
        life.preemptions += 1
        overhead = sched_spec.checkpoint_s + sched_spec.restart_s
        life.pending_overhead_s += overhead
        life.requeued_s = now
        self.manager.forget(life.plan.index)
        self._requeue(life)
        self._log(now, "preempt", life.plan.index, entry.servers)
        TRACER.count("engine.preemption_overhead_s", overhead)
        self._sample(now)

    def _resize(
        self, entry: _Running, block: Tuple[int, ...], now: float
    ) -> None:
        """Elastic grow: move the job onto its new (larger) block.

        The allocator side already happened in the scheduler; here the
        old segment is sealed, the pipeline re-runs at the new shard
        size, and the job restarts ``resize_latency_s`` later on the new
        block -- with a fresh shard, so a later link cut acts on it.
        """
        latency = self.spec.scheduler.resize_latency_s
        life = entry.life
        entry.seal(now)
        self._detach(entry)
        self._attach(life, block, now + latency)
        life.resizes += 1
        self._log(now, "resize", life.plan.index, block)
        TRACER.count("engine.resize_latency_s", latency)
        self._sample(now)

    def _depart(self, entry: _Running, now: float) -> None:
        if not entry.detached:
            self._detach(entry)
        life = entry.life
        plan = life.plan
        del self.running[plan.index]
        self._allocator.free(entry.servers)
        times, counts = entry.iterations()
        self.finished.append(
            JobResult(
                index=plan.index,
                name=plan.name,
                model=plan.model,
                scale=plan.scale,
                strategy=entry.prepared.strategy_name,
                servers=entry.servers,
                arrival_s=plan.arrival_s,
                admitted_s=life.admitted_s,
                completed_s=now,
                compute_s=entry.prepared.compute_s,
                iteration_times=times,
                iteration_counts=counts,
                duration_s=plan.duration_s,
                preemptions=life.preemptions,
                resizes=life.resizes,
                preempted_wait_s=life.preempted_wait_s,
                fault_suspensions=life.fault_suspensions,
                lost_iterations=life.lost_iterations,
                lost_work_s=life.lost_work_s,
                fault_wait_s=life.fault_wait_s,
                reoptimizations=life.reoptimizations,
            )
        )
        self._log(now, "depart", plan.index, entry.servers)
        self._sample(now)
        self.makespan = max(self.makespan, now)

    # -- fault handling ------------------------------------------------
    def _ensure_manager(self, entry: _Running):
        """The job's private FailureManager (copy-on-write).

        The prepared fabric is shared by every job of the template
        (pipeline cache) and the manager patches routing tables in
        place, so the job gets its own topology result and fabric: the
        damage stays on its shard.
        """
        if entry.failure_manager is None:
            import copy

            from repro.network.topoopt import TopoOptFabric
            from repro.sim.failures import FailureManager

            isolated = copy.deepcopy(entry.prepared.fabric.result)
            fabric = TopoOptFabric(
                isolated, entry.prepared.fabric.link_bandwidth_bps
            )
            entry.state.spec.fabric = fabric.relabel(list(entry.servers))
            entry.failure_manager = FailureManager(isolated)
        return entry.failure_manager

    def _crash_suspend(
        self, entry: _Running, now: float, reason: str
    ) -> Dict[str, Any]:
        """Fault-evict a running job, losing uncheckpointed work.

        Unlike a scheduler preemption (which checkpoints cleanly and
        whose block the scheduler already freed), a crash arrives
        unannounced: the engine frees the block itself and the live
        segment only survives up to the last periodic checkpoint --
        which exists only under the ``checkpoint-restart`` policy.
        Returns the lost-work accounting for the failure log (the chaos
        harness checks ``lost_work_s <= since_checkpoint_s + step_s``).
        """
        recovery = self.spec.recovery
        life = entry.life
        plan = life.plan
        segment_log = list(entry.flush_log())
        seg_work = sum(t * c for t, c in segment_log)
        elapsed = max(0.0, now - entry.start_s)
        # The roll-back slack: one iteration may straddle the
        # checkpoint boundary, so up to the *longest* iteration of the
        # segment is lost on top of the interval remainder.
        step = (
            max(t for t, _ in segment_log) if segment_log
            else self._est_iteration(entry.prepared, len(entry.servers))
        )
        kept_log, kept_iters, kept_work, checkpoint = checkpoint_rollback(
            segment_log,
            elapsed,
            recovery.checkpoint_interval_s
            if recovery.policy == "checkpoint-restart" else None,
        )
        lost_iters = entry.segment_done() - kept_iters
        lost_work = seg_work - kept_work
        life.log.extend(kept_log)
        life.done += kept_iters
        life.served_s += kept_work
        self._detach(entry)
        del self.running[plan.index]
        self._allocator.free(entry.servers)
        life.fault_suspensions += 1
        life.lost_iterations += lost_iters
        life.lost_work_s += lost_work
        life.pending_overhead_s += recovery.restart_s
        life.requeued_s = now
        life.fault_requeued = True
        self.manager.forget(plan.index)
        self._requeue(life)
        self._log(now, "suspend", plan.index, entry.servers, reason=reason)
        TRACER.count("engine.fault_lost_work_s", lost_work)
        TRACER.count("engine.fault_restart_latency_s", recovery.restart_s)
        self._sample(now)
        return {
            "lost_iterations": int(lost_iters),
            "lost_work_s": float(lost_work),
            "since_checkpoint_s": float(elapsed - checkpoint),
            "step_s": float(step),
        }

    def _reoptimize(self, entry: _Running, now: float) -> None:
        """Rewire a degraded job's shard on the surviving fabric.

        The healthy pipeline re-runs for the job's template (a warm
        cache hit after the first time), the shard's optical links are
        re-provisioned, and the job resumes on the *same* server block
        ``reoptimize_latency_s`` later -- the OCS port-retrain price.
        No iterations are lost: the segment is sealed exactly like an
        elastic resize.
        """
        latency = self.spec.recovery.reoptimize_latency_s
        life = entry.life
        entry.seal(now)
        self._detach(entry)
        self._attach(life, entry.servers, now + latency)
        life.reoptimizations += 1
        self._log(now, "recover", life.plan.index, entry.servers,
                  policy="reoptimize")
        self.failure_log.append(
            {
                "time_s": now,
                "job_index": life.plan.index,
                "kind": "reoptimize",
                "latency_s": latency,
            }
        )

    def _cut_link(
        self, entry: _Running, link: Tuple[int, int], now: float
    ) -> bool:
        """Cut one shard link, recovering per the scenario policy.

        Returns True when the cut *happened* (detoured, escalated, or
        crash-suspended the job); False when it was skipped.
        """
        from repro.sim.failures import LinkFailureError

        recovery = self.spec.recovery
        index = entry.plan.index
        base = {"time_s": now, "job_index": index}
        cut = [int(v) for v in link]
        fm = self._ensure_manager(entry)
        if recovery.policy == "checkpoint-restart":
            # No detours under checkpoint-restart: any cut rolls the
            # job back to its last checkpoint and requeues it.
            self._log(now, "fault", index, [], kind="link", link=cut)
            info = self._crash_suspend(entry, now, "link cut")
            self.failure_log.append(
                {**base, "kind": "link_cut", "link": cut, **info}
            )
            return True
        try:
            repair = fm.fail_link(*link)
        except LinkFailureError as error:
            self._log(now, "fault", index, [], kind="link", link=cut)
            info = self._crash_suspend(
                entry, now, "link cut disconnected the shard"
            )
            self.failure_log.append(
                {**base, "kind": "link_cut", "link": cut,
                 "reason": str(error), **info}
            )
            return True
        except (ValueError, RuntimeError) as error:
            self.failure_log.append(
                {**base, "kind": "skipped", "link": cut,
                 "reason": str(error)}
            )
            return False
        started = self.fault_plane.fail_started
        started[("link", index, tuple(link))] = now
        entry.substrate.invalidate_flows(entry.state)
        self._log(now, "fault", index, [], kind="link", link=cut)
        self.failure_log.append(
            {**base, "kind": "mp_detour", "link": cut,
             "extra_hops": repair.extra_hops}
        )
        if (
            recovery.policy == "reoptimize"
            and fm.overall_slowdown()
            >= recovery.degradation_threshold - _TIME_EPS
        ):
            started.pop(("link", index, tuple(link)), None)
            self._reoptimize(entry, now)
        return True

    # Fault-plane handlers: one per event tag, dispatched through
    # :attr:`_FAULT_HANDLERS`.
    def _on_link_fail(self, event: FaultEventSpec, now: float) -> None:
        entry = self.running.get(event.job_index)
        base = {"time_s": now, "job_index": event.job_index}
        if entry is None or entry.detached:
            self.failure_log.append(
                {**base, "kind": "skipped", "reason": "job not running"}
            )
            return
        if not self.shardable:
            self.failure_log.append(
                {**base, "kind": "skipped",
                 "reason": "shared fabrics have no per-job optical shard"}
            )
            return
        fm = self._ensure_manager(entry)
        link = tuple(event.link or self._default_failure_link(fm.result))
        self.fault_plane.resolved_links[event] = link
        self._cut_link(entry, link, now)

    def _on_link_repair(self, payload: Any, now: float) -> None:
        """Port-swap a cut link: an explicit event's or a storm's."""
        plane = self.fault_plane
        if isinstance(payload, FaultEventSpec):
            job_index = payload.job_index
            link = plane.resolved_links.get(payload, payload.link)
        else:
            job_index, link = payload
        entry = self.running.get(job_index)
        base = {"time_s": now, "job_index": job_index}
        fm = entry.failure_manager if entry is not None else None
        if fm is None or link is None or tuple(link) not in fm.failed:
            self.failure_log.append(
                {**base, "kind": "skipped", "reason": "link not failed"}
            )
            return
        fm.repair_permanently(*link)
        entry.substrate.invalidate_flows(entry.state)
        record = {**base, "kind": "port_swap", "link": [int(v) for v in link]}
        started = plane.fail_started.pop(
            ("link", job_index, tuple(link)), None
        )
        if started is not None:
            record["downtime_s"] = float(now - started)
        self.failure_log.append(record)
        self._log(now, "repair", job_index, [], kind="link",
                  link=[int(v) for v in link])

    def _on_server_fail(self, server: int, now: float) -> None:
        """A host dies: its job crash-suspends and it leaves the pool.

        An explicit server event's repair was queued with it when the
        plane was built; a storm queues its hosts' repairs itself.
        """
        plane = self.fault_plane
        base = {"time_s": now, "server": int(server)}
        if server in plane.failed_servers:
            self.failure_log.append(
                {**base, "kind": "skipped", "reason": "server already failed"}
            )
            return
        victim = next(
            (
                e for e in self.running.values()
                if server in e.servers and not e.detached
            ),
            None,
        )
        record = {**base, "kind": "server_fail"}
        self._log(
            now, "fault",
            victim.plan.index if victim is not None else -1,
            [int(server)], kind="server",
        )
        if victim is not None:
            record["job_index"] = victim.plan.index
            record.update(
                self._crash_suspend(victim, now, f"host {server} failed")
            )
        plane.failed_servers.add(server)
        self._allocator.fail_server(server)
        plane.fail_started[("server", server)] = now
        self.failure_log.append(record)

    def _on_server_repair(self, server: int, now: float) -> None:
        plane = self.fault_plane
        base = {"time_s": now, "server": int(server)}
        if server not in plane.failed_servers:
            self.failure_log.append(
                {**base, "kind": "skipped", "reason": "server not failed"}
            )
            return
        plane.failed_servers.discard(server)
        self._allocator.repair_server(server)
        record = {**base, "kind": "server_repair"}
        started = plane.fail_started.pop(("server", server), None)
        if started is not None:
            record["downtime_s"] = float(now - started)
        self.failure_log.append(record)
        self._log(now, "repair", -1, [int(server)], kind="server")

    def _on_storm(self, event: FaultEventSpec, now: float) -> None:
        """Expand a correlated storm against the engine's state.

        Victim selection is deterministic: the first live hosts of the
        region die, and ring-edge cuts round-robin over the running
        jobs overlapping the region in arrival order.
        """
        plane = self.fault_plane
        end = min(
            event.region_start + event.region_size, plane.cluster_servers
        )
        region = range(event.region_start, end)
        region_set = set(region)
        self.failure_log.append(
            {
                "time_s": now,
                "kind": "storm",
                "region": [event.region_start, event.region_size],
                "servers_hit": event.servers_hit,
                "links_hit": event.links_hit,
            }
        )
        hosts = [s for s in region if s not in plane.failed_servers][
            : event.servers_hit
        ]
        for server in hosts:
            self._on_server_fail(server, now)
            if event.repair_s is not None:
                plane.push(event.repair_s, "server_repair", server)
        targets = sorted(
            e.plan.index for e in self.running.values()
            if not e.detached and region_set & set(e.servers)
        )
        cuts = 0
        while cuts < event.links_hit and targets and self.shardable:
            progressed = False
            for index in list(targets):
                if cuts >= event.links_hit:
                    break
                entry = self.running.get(index)
                if entry is None or entry.detached:
                    targets.remove(index)
                    continue
                fm = self._ensure_manager(entry)
                link = next(
                    (
                        edge for edge in fm.ring_edges()
                        if edge not in fm.failed
                    ),
                    None,
                )
                if link is None:
                    targets.remove(index)
                    continue
                if self._cut_link(entry, link, now):
                    cuts += 1
                    progressed = True
                    if event.repair_s is not None:
                        plane.push(
                            event.repair_s, "link_repair", (index, link)
                        )
                else:
                    targets.remove(index)
            if not progressed:
                break

    _FAULT_HANDLERS = {
        "link_fail": _on_link_fail,
        "link_repair": _on_link_repair,
        "server_fail": _on_server_fail,
        "server_repair": _on_server_repair,
        "storm": _on_storm,
    }

    @staticmethod
    def _default_failure_link(result) -> Tuple[int, int]:
        for plan in result.group_plans:
            for ring in plan.rings:
                if len(ring) >= 2:
                    return (ring[0], ring[1])
        src, dst, _ = next(iter(result.topology.edges()))
        return (src, dst)


def run_scenario(
    spec: ScenarioSpec,
    store=None,
    *,
    recorder: Optional[TraceRecorder] = None,
) -> ScenarioResult:
    """Simulate one scenario end to end; see the module docstring.

    The returned result's ``to_dict()`` is deterministic for a given
    (spec, seed); ``wall_time_s`` is measured and stays off-JSON.

    A :class:`repro.service.store.ResultStore` passed as ``store``
    memoizes the run under the spec's content hash (faults included:
    they are part of the spec).

    Observation: passing a :class:`repro.obs.tracer.TraceRecorder` as
    ``recorder`` (or setting ``spec.observe`` -- which creates one when
    no recorder is already active process-wide) runs the engine under
    that recorder and attaches the merged
    :meth:`repro.obs.report.ObsReport.to_dict` to the result's
    off-JSON ``obs`` field.  Simulated results are byte-identical with
    and without observation; a store hit returns the cached result as
    is (no trace, since nothing ran).
    """
    if store is not None:
        cached = store.get(spec)
        if cached is not None:
            return cached
    if recorder is None and spec.observe and not TRACER.enabled:
        recorder = TraceRecorder()
    started = time.perf_counter()
    engine = ScenarioEngine(spec)
    if recorder is not None:
        with TRACER.recording(recorder):
            with TRACER.span("engine.run_scenario", cat="engine",
                             scenario=spec.name or "unnamed"):
                result = engine.run()
    else:
        result = engine.run()
    object.__setattr__(
        result, "wall_time_s", time.perf_counter() - started
    )
    if recorder is not None:
        object.__setattr__(
            result, "obs", ObsReport.build(recorder).to_dict()
        )
    if store is not None:
        store.put(spec, result)
    return result
