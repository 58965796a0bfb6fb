"""The trace-driven shared-cluster scenario engine.

:func:`run_scenario` turns a :class:`~repro.cluster.spec.ScenarioSpec`
into a :class:`~repro.cluster.results.ScenarioResult` by simulating the
cluster's life as a discrete-event loop:

1. **Arrivals** are drawn from the spec's arrival process (explicit
   times, Poisson, or the section 2.2 production-trace generator) and
   enter an FCFS queue.
2. **Admission**: the head-of-line job asks the
   :class:`~repro.cluster.scheduler.ShardAllocator` for a contiguous
   server block (first-fit / best-fit / random).  On success the job's
   pipeline runs -- workload build, strategy (a fixed registry builder
   or the MCMC x TopologyFinder co-optimization on the allocated shard),
   traffic extraction -- and its flows are handed to the
   :class:`repro.sim.cluster.SharedClusterSimulator` state machine:
   a physically isolated per-shard fluid network when the fabric is
   ``topoopt``, the one contended cluster-wide network otherwise.
3. **Departure** after the job's iteration quota: ports are freed,
   fragmentation is sampled, and the queue is re-examined.

Determinism: every random draw derives from the spec seed through
:func:`repro.api.runner.point_seed` streams, the fluid simulation is
seedless (stagger disabled), and all reductions are insertion-ordered,
so ``run_scenario(spec).to_dict()`` is a pure function of (spec, seed).

Strategy parity across fabrics: the per-job pipeline always optimizes
at shard-local scale, so a ``fattree`` scenario offers *exactly* the
traffic its ``topoopt`` twin does -- the comparison isolates the
interconnect, which is what makes the Figure 16 series meaningful.

Link failures (section 7) can be injected mid-scenario with
:class:`FailureInjection`: the affected shard's routing is patched
through :class:`repro.sim.failures.FailureManager` (transient MP
detour, then an optional permanent port swap), and subsequent
iterations ride the repaired paths.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class FailureInjection:
    """One link failure to inject while the scenario runs.

    ``job_index`` names the arrival-order index of the target job;
    ``link`` is a local shard link ``(src, dst)`` (``None`` picks the
    job's first AllReduce ring edge); ``repair_s`` schedules the
    permanent port-swap repair.  Failures only apply to running jobs on
    ``topoopt`` shards -- anything else is logged as skipped.
    """

    time_s: float
    job_index: int
    link: Optional[Tuple[int, int]] = None
    repair_s: Optional[float] = None

    def __post_init__(self):
        # Validate at construction, not mid-run: a bad injection list
        # should fail before the scenario spends any simulation time.
        if self.time_s < 0:
            raise ScenarioError(
                f"failure time_s must be >= 0, got {self.time_s}"
            )
        if self.job_index < 0:
            raise ScenarioError(
                f"failure job_index must be >= 0, got {self.job_index}"
            )
        if self.repair_s is not None and self.repair_s < self.time_s:
            raise ScenarioError(
                f"failure repair at {self.repair_s}s precedes "
                f"the failure at {self.time_s}s"
            )


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
    segments: int = 0
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
    plan: _JobPlan
    prepared: _Prepared
    servers: Tuple[int, ...]
    substrate: SharedClusterSimulator
    state: object
    admitted_s: float
    life: Optional[_JobLife] = None
    #: When this segment's first compute phase starts (admission time
    #: plus provisioning latency and any checkpoint/restart debt).
    start_s: float = 0.0
    failure_manager: Optional[object] = None
    #: First iteration boundary at or past this absolute time ends the
    #: job (wall-clock durations); ``None`` means quota mode.
    deadline_s: Optional[float] = None
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


class ScenarioEngine:
    """Drives one scenario; most callers want :func:`run_scenario`."""

    def __init__(
        self,
        spec: ScenarioSpec,
        failures: Sequence[FailureInjection] = (),
    ):
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
        self._failure_events: List[Tuple[float, str, FailureInjection]] = []
        for injection in failures:
            self._failure_events.append((injection.time_s, "fail", injection))
            if injection.repair_s is not None:
                self._failure_events.append(
                    (injection.repair_s, "repair", injection)
                )
        self._failure_events.sort(key=lambda event: event[0])
        self.failure_log: List[Dict[str, Any]] = []
        #: The declarative fault plane (``spec.faults``), resolved into
        #: a runtime event heap; ``None`` for fault-free scenarios so
        #: their event loop stays byte-for-byte on the historical path.
        self.fault_plane: Optional[FaultPlane] = None
        if spec.faults is not None:
            self.fault_plane = FaultPlane(
                spec.faults, spec.seed, spec.cluster.servers
            )

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
        try:
            fabric = prepared.fabric
            flows = None
            if fabric is None:
                ctx = FabricBuildContext(
                    num_servers=servers,
                    degree=self.spec.cluster.degree,
                    link_bandwidth_bps=self.spec.cluster.link_bandwidth_bps,
                    seed=self.spec.seed,
                )
                fabric = build_fabric(self.spec.fabric, ctx)
            else:
                flows = self._shard_flows(prepared)
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
            else:
                estimate = 2.0 * prepared.compute_s
        except Exception:
            # Some fabrics cannot build at arbitrary shard sizes; fall
            # back to a crude compute-bound guess rather than failing
            # the scenario over an estimate.
            estimate = 2.0 * prepared.compute_s
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
        spec = self.spec
        sched_spec = spec.scheduler
        scheduler = self.scheduler
        manager = self.manager
        pending: Deque[_JobPlan] = deque(self._draw_jobs())
        queue: List[_JobLife] = []
        lives: Dict[int, _JobLife] = {}
        running: Dict[int, _Running] = {}
        #: id(state) -> entry: O(1) owner lookup when a substrate
        #: reports iterated states (the per-event scan over ``running``
        #: dominated large scenarios).
        by_state: Dict[int, _Running] = {}
        finished: List[JobResult] = []
        utilization: List[Tuple[float, int]] = [(0.0, 0)]
        fragmentation: List[Tuple[float, float]] = []
        failure_events = deque(self._failure_events)
        plane = self.fault_plane
        recovery = spec.recovery
        #: Fault event -> the concrete link it ended up cutting (the
        #: spec may leave ``link=None`` = "first ring edge"), so the
        #: matching repair heals the same edge.
        resolved_links: Dict[FaultEventSpec, Tuple[int, int]] = {}
        #: Arrival indices of jobs the fault plane left unplaceable.
        unfinished: List[int] = []
        #: (departure time, job index) heap of fast-forwarded jobs that
        #: already left their substrates.
        analytic: List[Tuple[float, int]] = []
        makespan = 0.0
        #: Cached absolute next-event time per substrate.  A substrate's
        #: schedule only changes when the loop touches it (advance, job
        #: add/remove/defer), so untouched substrates are not re-queried
        #: -- and not re-solved -- on every event.
        event_cache: Dict[int, Optional[float]] = {}
        dirty: set = set()

        def mark_dirty(substrate) -> None:
            dirty.add(id(substrate))

        def drop_substrate(substrate) -> None:
            self._substrates.remove(substrate)
            event_cache.pop(id(substrate), None)
            dirty.discard(id(substrate))

        def sample(now: float) -> None:
            busy = self._allocator.busy_count
            utilization.append((now, busy))
            fragmentation.append((now, self._allocator.fragmentation()))
            TRACER.sample("cluster.busy_servers", now, busy)

        def flush_log(entry: _Running) -> List[Tuple[float, int]]:
            """Bring the RLE log up to date with the simulated record."""
            if entry.log is None:
                entry.log = []
            recorded = entry.state.stats.iteration_times
            entry.log.extend(
                (t, 1) for t in recorded[entry.logged_upto:]
            )
            entry.logged_upto = len(recorded)
            return entry.log

        def total_done(entry: _Running) -> int:
            return (
                entry.life.done
                + len(entry.state.stats.iteration_times)
                + entry.ff_count
            )

        def log_event(
            now: float, event: str, index: int, servers, **extra
        ) -> None:
            record: Dict[str, Any] = {
                "time_s": float(now),
                "event": event,
                "job_index": int(index),
                "servers": [int(s) for s in servers],
            }
            record.update(extra)
            self.scheduler_log.append(record)
            TRACER.count(f"scheduler.{event}")

        def job_horizon(index: int) -> float:
            """Earliest pending routing change relevant to job ``index``.

            Legacy injections name their target job; the fault plane's
            events resolve their victims only at fire time (a storm
            picks whoever overlaps its region), so *any* pending plane
            event caps every job's analytic jump -- no fast-forward may
            step over a fault, and no job may detach while one is
            still due.
            """
            horizon = min(
                (t for t, _, inj in failure_events
                 if inj.job_index == index),
                default=math.inf,
            )
            if plane is not None:
                horizon = min(horizon, plane.next_time())
            return horizon

        def fast_forward(entry: _Running, now: float) -> None:
            """Account steady-state iterations analytically.

            On an isolated shard every iteration repeats the last
            simulated one exactly (same fabric, same flows), so ``K``
            of them are one RLE entry.  The jump is capped at the
            job's next routing change (failure or repair): the job
            either departs analytically or lands on the last boundary
            before the horizon and resumes simulating.
            """
            d = entry.state.stats.iteration_times[-1]
            if d <= 0:
                return
            plan = entry.plan
            if entry.deadline_s is not None:
                remaining = math.ceil(
                    (entry.deadline_s - now) / d - _TIME_EPS
                )
            else:
                remaining = plan.iterations - total_done(entry)
            if remaining < 1:
                return
            horizon = job_horizon(plan.index)
            finish = now + remaining * d
            if finish <= horizon:
                flush_log(entry).append((d, remaining))
                entry.ff_count += remaining
                entry.substrate.remove_job(entry.state)
                drop_substrate(entry.substrate)
                entry.detached = True
                entry.analytic_finish_s = finish
                by_state.pop(id(entry.state), None)
                heapq.heappush(analytic, (finish, plan.index))
                return
            skip = int((horizon - now) / d)
            if skip < 1:
                return
            flush_log(entry).append((d, skip))
            entry.ff_count += skip
            entry.substrate.defer_job(entry.state, now + skip * d)
            mark_dirty(entry.substrate)

        def job_iterations(entry: _Running):
            sealed = list(entry.life.log)
            if entry.log is None and not sealed:
                return tuple(entry.state.stats.iteration_times), None
            sealed.extend(flush_log(entry))
            return (
                tuple(t for t, _ in sealed),
                tuple(c for _, c in sealed),
            )

        def seal_segment(entry: _Running, now: float) -> None:
            """Fold the live segment into the job's lifetime record."""
            life = entry.life
            segment_done = (
                len(entry.state.stats.iteration_times) + entry.ff_count
            )
            life.log.extend(flush_log(entry))
            life.done += segment_done
            life.served_s += max(0.0, now - entry.start_s)
            entry.log = None
            entry.logged_upto = 0
            entry.ff_count = 0

        def est_finish(entry: _Running, now: float) -> float:
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
                    math.ceil(
                        (entry.deadline_s - entry.start_s) / d - _TIME_EPS
                    ),
                )
                return entry.start_s + k * d
            remaining = max(entry.plan.iterations - entry.life.done, 0)
            return entry.start_s + remaining * d

        def queued_view(life: _JobLife, now: float) -> QueuedJob:
            plan = life.plan
            if scheduler.needs_estimates:
                d = self._est_iteration(self._prepare(plan), plan.servers)
                if plan.duration_s is not None:
                    left = max(plan.duration_s - life.served_s, 0.0)
                    run_s = d * max(1, math.ceil(left / d - _TIME_EPS))
                else:
                    run_s = d * max(plan.iterations - life.done, 0)
                estimate = (
                    life.pending_overhead_s
                    + sched_spec.admission_latency_s
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

        def running_view(entry: _Running, now: float) -> RunningJob:
            plan = entry.life.plan
            return RunningJob(
                key=plan.index,
                servers=entry.servers,
                priority=plan.priority,
                est_finish_s=(
                    est_finish(entry, now)
                    if scheduler.needs_estimates else math.inf
                ),
                preemptible=not entry.detached,
                resizable=not entry.detached,
                max_servers=plan.max_servers,
            )

        def requeue(life: _JobLife) -> None:
            """Reinsert an evicted job, keeping arrival-index order."""
            keys = [item.plan.index for item in queue]
            queue.insert(bisect.bisect_left(keys, life.plan.index), life)

        def start_segment(
            life: _JobLife,
            servers: Tuple[int, ...],
            now: float,
            backfilled: bool,
        ) -> None:
            plan = life.plan
            size = len(servers)
            seg_plan = (
                plan if size == plan.servers
                else replace(plan, servers=size)
            )
            prepared = self._prepare(seg_plan)
            substrate, job = self._place(plan.name, prepared, servers)
            start = (
                now
                + life.pending_overhead_s
                + manager.admission_latency(plan.index, now)
            )
            life.pending_overhead_s = 0.0
            manager.forget(plan.index)
            if life.segments:
                state = substrate.resume_job(job, start=start)
            else:
                state = substrate.add_job(job, start=start)
            entry = _Running(
                plan=seg_plan,
                prepared=prepared,
                servers=servers,
                substrate=substrate,
                state=state,
                admitted_s=now,
                life=life,
                start_s=start,
                deadline_s=(
                    start + (plan.duration_s - life.served_s)
                    if plan.duration_s is not None else None
                ),
            )
            running[plan.index] = entry
            by_state[id(state)] = entry
            mark_dirty(substrate)
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
            life.segments += 1
            log_event(
                now, "admit", plan.index, servers, backfilled=backfilled
            )
            TRACER.count("engine.admission_latency_s", start - now)
            sample(now)

        def preempt_entry(entry: _Running, now: float) -> None:
            """Evict a running job (its block is already freed).

            The scheduler freed the allocator block before returning
            the ``preempt`` action; this applies the simulator half --
            checkpoint the job out of its substrate -- and requeues it
            with its completed iterations conserved and the
            checkpoint/restart debt booked for its next start.
            """
            life = entry.life
            seal_segment(entry, now)
            entry.substrate.suspend_job(entry.state)
            if self.shardable:
                drop_substrate(entry.substrate)
            else:
                mark_dirty(entry.substrate)
            by_state.pop(id(entry.state), None)
            del running[life.plan.index]
            life.preemptions += 1
            life.pending_overhead_s += (
                sched_spec.checkpoint_s + sched_spec.restart_s
            )
            life.requeued_s = now
            manager.forget(life.plan.index)
            requeue(life)
            log_event(now, "preempt", life.plan.index, entry.servers)
            TRACER.count(
                "engine.preemption_overhead_s",
                sched_spec.checkpoint_s + sched_spec.restart_s,
            )
            sample(now)

        def resize_entry(
            entry: _Running, block: Tuple[int, ...], now: float
        ) -> None:
            """Elastic grow: move the job onto its new (larger) block.

            The allocator side already happened in the scheduler; here
            the old segment is sealed, the pipeline re-runs at the new
            shard size (warm-cached per (template, size)), and the job
            restarts ``resize_latency_s`` later on the new block.
            """
            life = entry.life
            plan = life.plan
            seal_segment(entry, now)
            by_state.pop(id(entry.state), None)
            seg_plan = replace(plan, servers=len(block))
            prepared = self._prepare(seg_plan)
            start = now + sched_spec.resize_latency_s
            substrate, job = self._place(plan.name, prepared, block)
            if self.shardable:
                entry.substrate.suspend_job(entry.state)
                drop_substrate(entry.substrate)
                state = substrate.resume_job(job, start=start)
            else:
                state = substrate.resize_job(entry.state, job, start=start)
            entry.plan = seg_plan
            entry.prepared = prepared
            entry.servers = tuple(block)
            entry.substrate = substrate
            entry.state = state
            entry.start_s = start
            entry.deadline_s = (
                start + (plan.duration_s - life.served_s)
                if plan.duration_s is not None else None
            )
            life.resizes += 1
            by_state[id(state)] = entry
            mark_dirty(substrate)
            log_event(now, "resize", plan.index, block)
            TRACER.count(
                "engine.resize_latency_s", sched_spec.resize_latency_s
            )
            sample(now)

        def control(now: float) -> None:
            """Drain the scheduler's action stream at this instant."""
            if not (queue or (sched_spec.elastic and running)):
                return
            for _ in range(100000):
                qviews = [queued_view(life, now) for life in queue]
                if qviews:
                    manager.note_head(
                        scheduler.ordered(qviews)[0].key, now
                    )
                rviews = (
                    [running_view(e, now) for e in running.values()]
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
                    life = lives[action.key]
                    queue.remove(life)
                    start_segment(
                        life, action.servers, now, action.backfilled
                    )
                elif action.kind == "preempt":
                    for key in action.victims:
                        preempt_entry(running[key], now)
                else:  # grow
                    resize_entry(running[action.key], action.servers, now)
            raise ScenarioError(
                "scheduler control loop did not converge"
            )

        def depart(entry: _Running, now: float) -> None:
            if not entry.detached:
                entry.substrate.remove_job(entry.state)
                if self.shardable:
                    drop_substrate(entry.substrate)
                else:
                    mark_dirty(entry.substrate)
                by_state.pop(id(entry.state), None)
            self._allocator.free(entry.servers)
            life = entry.life
            plan = life.plan
            times, counts = job_iterations(entry)
            finished.append(
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
            log_event(now, "depart", plan.index, entry.servers)
            sample(now)

        # -- fault handling --------------------------------------------
        def ensure_manager(entry: _Running) -> None:
            """Give the job a private FailureManager (copy-on-write)."""
            from repro.sim.failures import FailureManager

            if entry.failure_manager is not None:
                return
            import copy as _copy

            from repro.network.topoopt import TopoOptFabric

            isolated = _copy.deepcopy(entry.prepared.fabric.result)
            fabric = TopoOptFabric(
                isolated, entry.prepared.fabric.link_bandwidth_bps
            )
            entry.state.spec.fabric = fabric.relabel(list(entry.servers))
            entry.failure_manager = FailureManager(isolated)

        def crash_suspend(
            entry: _Running, now: float, reason: str
        ) -> Dict[str, Any]:
            """Fault-evict a running job, losing uncheckpointed work.

            Unlike a scheduler preemption (which checkpoints cleanly
            and whose block the scheduler already freed), a crash
            arrives unannounced: the engine frees the block itself and
            the live segment only survives up to the last periodic
            checkpoint -- which exists only under the
            ``checkpoint-restart`` policy.  Returns the lost-work
            accounting for the failure log (the chaos harness checks
            ``lost_work_s <= since_checkpoint_s + step_s``).
            """
            life = entry.life
            plan = life.plan
            segment_log = list(flush_log(entry))
            seg_iters = (
                len(entry.state.stats.iteration_times) + entry.ff_count
            )
            seg_work = sum(t * c for t, c in segment_log)
            elapsed = max(0.0, now - entry.start_s)
            # The roll-back slack: one iteration may straddle the
            # checkpoint boundary, so up to the *longest* iteration of
            # the segment is lost on top of the interval remainder.
            step = (
                max(t for t, _ in segment_log) if segment_log
                else self._est_iteration(entry.prepared, len(entry.servers))
            )
            kept_log: List[Tuple[float, int]] = []
            kept_iters = 0
            kept_work = 0.0
            if recovery.policy == "checkpoint-restart":
                interval = recovery.checkpoint_interval_s
                ckpt_elapsed = (
                    math.floor(elapsed / interval + _TIME_EPS) * interval
                )
                budget = ckpt_elapsed
                for t, c in segment_log:
                    if t <= 0:
                        kept_log.append((t, c))
                        kept_iters += c
                        continue
                    fit = min(c, int((budget + _TIME_EPS) // t))
                    if fit > 0:
                        kept_log.append((t, fit))
                        kept_iters += fit
                        kept_work += t * fit
                        budget -= t * fit
                    if fit < c:
                        break
            else:
                ckpt_elapsed = 0.0
            lost_iters = seg_iters - kept_iters
            lost_work = seg_work - kept_work
            life.log.extend(kept_log)
            life.done += kept_iters
            life.served_s += kept_work
            entry.substrate.suspend_job(entry.state)
            if self.shardable:
                drop_substrate(entry.substrate)
            else:
                mark_dirty(entry.substrate)
            by_state.pop(id(entry.state), None)
            del running[plan.index]
            self._allocator.free(entry.servers)
            life.fault_suspensions += 1
            life.lost_iterations += lost_iters
            life.lost_work_s += lost_work
            life.pending_overhead_s += recovery.restart_s
            life.requeued_s = now
            life.fault_requeued = True
            manager.forget(plan.index)
            requeue(life)
            log_event(
                now, "suspend", plan.index, entry.servers, reason=reason
            )
            TRACER.count("engine.fault_lost_work_s", lost_work)
            TRACER.count("engine.fault_restart_latency_s", recovery.restart_s)
            sample(now)
            return {
                "lost_iterations": int(lost_iters),
                "lost_work_s": float(lost_work),
                "since_checkpoint_s": float(elapsed - ckpt_elapsed),
                "step_s": float(step),
            }

        def reoptimize_entry(entry: _Running, now: float) -> None:
            """Rewire a degraded job's shard on the surviving fabric.

            The healthy pipeline re-runs for the job's template (a warm
            cache hit after the first time), the shard's optical links
            are re-provisioned, and the job resumes on the *same*
            server block ``reoptimize_latency_s`` later -- the OCS
            port-retrain price.  No iterations are lost: the segment is
            sealed exactly like an elastic resize.
            """
            life = entry.life
            plan = entry.plan
            seal_segment(entry, now)
            entry.substrate.suspend_job(entry.state)
            drop_substrate(entry.substrate)
            by_state.pop(id(entry.state), None)
            prepared = self._prepare(plan)
            substrate, job = self._place(plan.name, prepared, entry.servers)
            start = now + recovery.reoptimize_latency_s
            state = substrate.resume_job(job, start=start)
            entry.prepared = prepared
            entry.substrate = substrate
            entry.state = state
            entry.start_s = start
            entry.failure_manager = None
            entry.deadline_s = (
                start + (life.plan.duration_s - life.served_s)
                if life.plan.duration_s is not None else None
            )
            life.reoptimizations += 1
            by_state[id(state)] = entry
            mark_dirty(substrate)
            log_event(
                now, "recover", plan.index, entry.servers,
                policy="reoptimize",
            )
            self.failure_log.append(
                {
                    "time_s": now,
                    "job_index": plan.index,
                    "kind": "reoptimize",
                    "latency_s": recovery.reoptimize_latency_s,
                }
            )

        def cut_link(
            entry: _Running, link: Tuple[int, int], now: float
        ) -> bool:
            """Cut one shard link, recovering per the scenario policy.

            Returns True when the cut *happened* (detoured, escalated,
            or crash-suspended the job); False when it was skipped.
            """
            from repro.sim.failures import LinkFailureError

            index = entry.plan.index
            base = {"time_s": now, "job_index": index}
            ensure_manager(entry)
            fm = entry.failure_manager
            if recovery.policy == "checkpoint-restart":
                # No detours under checkpoint-restart: any cut rolls
                # the job back to its last checkpoint and requeues it.
                log_event(now, "fault", index, [], kind="link",
                          link=[int(v) for v in link])
                info = crash_suspend(entry, now, "link cut")
                self.failure_log.append(
                    {**base, "kind": "link_cut",
                     "link": [int(v) for v in link], **info}
                )
                return True
            try:
                repair = fm.fail_link(*link)
            except LinkFailureError as error:
                log_event(now, "fault", index, [], kind="link",
                          link=[int(v) for v in link])
                info = crash_suspend(
                    entry, now, "link cut disconnected the shard"
                )
                self.failure_log.append(
                    {**base, "kind": "link_cut",
                     "link": [int(v) for v in link],
                     "reason": str(error), **info}
                )
                return True
            except (ValueError, RuntimeError) as error:
                self.failure_log.append(
                    {**base, "kind": "skipped",
                     "link": [int(v) for v in link], "reason": str(error)}
                )
                return False
            plane.fail_started[("link", index, tuple(link))] = now
            entry.substrate.invalidate_flows(entry.state)
            log_event(now, "fault", index, [], kind="link",
                      link=[int(v) for v in link])
            self.failure_log.append(
                {**base, "kind": "mp_detour",
                 "link": [int(v) for v in link],
                 "extra_hops": repair.extra_hops}
            )
            if (
                recovery.policy == "reoptimize"
                and fm.overall_slowdown()
                >= recovery.degradation_threshold - _TIME_EPS
            ):
                plane.fail_started.pop(("link", index, tuple(link)), None)
                reoptimize_entry(entry, now)
            return True

        def apply_link_fault(event: FaultEventSpec, now: float) -> None:
            entry = running.get(event.job_index)
            base = {"time_s": now, "job_index": event.job_index}
            if entry is None or entry.detached:
                self.failure_log.append(
                    {**base, "kind": "skipped", "reason": "job not running"}
                )
                return
            if not self.shardable:
                self.failure_log.append(
                    {**base, "kind": "skipped",
                     "reason": "shared fabrics have no per-job "
                               "optical shard"}
                )
                return
            ensure_manager(entry)
            link = event.link or self._default_failure_link(
                entry.failure_manager.result
            )
            resolved_links[event] = tuple(link)
            cut_link(entry, tuple(link), now)

        def apply_link_repair(
            job_index: int, link: Optional[Tuple[int, int]], now: float
        ) -> None:
            entry = running.get(job_index)
            base = {"time_s": now, "job_index": job_index}
            fm = entry.failure_manager if entry is not None else None
            if fm is None or link is None or tuple(link) not in fm.failed:
                self.failure_log.append(
                    {**base, "kind": "skipped", "reason": "link not failed"}
                )
                return
            fm.repair_permanently(*link)
            entry.substrate.invalidate_flows(entry.state)
            record = {
                **base, "kind": "port_swap",
                "link": [int(v) for v in link],
            }
            started = plane.fail_started.pop(
                ("link", job_index, tuple(link)), None
            )
            if started is not None:
                record["downtime_s"] = float(now - started)
            self.failure_log.append(record)
            log_event(now, "repair", job_index, [], kind="link",
                      link=[int(v) for v in link])

        def apply_server_fault(server: int, now: float) -> None:
            base = {"time_s": now, "server": int(server)}
            if server in plane.failed_servers:
                self.failure_log.append(
                    {**base, "kind": "skipped",
                     "reason": "server already failed"}
                )
                return
            victim = next(
                (
                    e for e in running.values()
                    if server in e.servers and not e.detached
                ),
                None,
            )
            record = {**base, "kind": "server_fail"}
            log_event(
                now, "fault",
                victim.plan.index if victim is not None else -1,
                [int(server)], kind="server",
            )
            if victim is not None:
                record["job_index"] = victim.plan.index
                record.update(
                    crash_suspend(victim, now, f"host {server} failed")
                )
            plane.failed_servers.add(server)
            self._allocator.fail_server(server)
            plane.fail_started[("server", server)] = now
            self.failure_log.append(record)

        def apply_server_repair(server: int, now: float) -> None:
            base = {"time_s": now, "server": int(server)}
            if server not in plane.failed_servers:
                self.failure_log.append(
                    {**base, "kind": "skipped",
                     "reason": "server not failed"}
                )
                return
            plane.failed_servers.discard(server)
            self._allocator.repair_server(server)
            record = {**base, "kind": "server_repair"}
            started = plane.fail_started.pop(("server", server), None)
            if started is not None:
                record["downtime_s"] = float(now - started)
            self.failure_log.append(record)
            log_event(now, "repair", -1, [int(server)], kind="server")

        def apply_storm(event: FaultEventSpec, now: float) -> None:
            """Expand a correlated storm against the engine's state.

            Victim selection is deterministic: the first live hosts of
            the region die, and ring-edge cuts round-robin over the
            running jobs overlapping the region in arrival order.
            """
            end = min(
                event.region_start + event.region_size,
                plane.cluster_servers,
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
            hosts = [
                s for s in region if s not in plane.failed_servers
            ][: event.servers_hit]
            for server in hosts:
                apply_server_fault(server, now)
                if event.repair_s is not None:
                    plane.push(event.repair_s, "server_repair", server)
            targets = sorted(
                e.plan.index for e in running.values()
                if not e.detached and region_set & set(e.servers)
            )
            cuts = 0
            while cuts < event.links_hit and targets and self.shardable:
                progressed = False
                for index in list(targets):
                    if cuts >= event.links_hit:
                        break
                    entry = running.get(index)
                    if entry is None or entry.detached:
                        targets.remove(index)
                        continue
                    ensure_manager(entry)
                    fm = entry.failure_manager
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
                    if cut_link(entry, link, now):
                        cuts += 1
                        progressed = True
                        if event.repair_s is not None:
                            plane.push(
                                event.repair_s, "link_repair",
                                (index, link),
                            )
                    else:
                        targets.remove(index)
                if not progressed:
                    break

        def apply_fault(tag: str, payload: Any, now: float) -> None:
            if tag == "link_fail":
                apply_link_fault(payload, now)
            elif tag == "link_repair":
                if isinstance(payload, FaultEventSpec):
                    apply_link_repair(
                        payload.job_index,
                        resolved_links.get(payload, payload.link),
                        now,
                    )
                else:
                    index, link = payload
                    apply_link_repair(index, link, now)
            elif tag == "server_fail":
                # The matching repair was queued when the plane was
                # built (explicit server events know their repair_s).
                apply_server_fault(payload.server, now)
            elif tag == "server_repair":
                apply_server_repair(payload, now)
            else:  # storm
                apply_storm(payload, now)

        # One reusable batching span for the per-event step: hot enough
        # that allocating a live span per event would blow the
        # obs_overhead budget; a shared no-op when tracing is off.
        step_span = TRACER.batch_span("engine.step", cat="engine")
        while pending or queue or running:
            candidates: List[float] = []
            if pending:
                candidates.append(pending[0].arrival_s)
            if failure_events:
                candidates.append(failure_events[0][0])
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
                if queue and (
                    plane is not None
                    or any(
                        life.fault_suspensions
                        for life in lives.values()
                    )
                ):
                    # The fault plane made the queue unplaceable (hosts
                    # dead for good, or a suspended job that can never
                    # be re-admitted).  Degrade gracefully: report the
                    # survivors as unfinished instead of raising.
                    unfinished.extend(
                        sorted(life.plan.index for life in queue)
                    )
                    for life in queue:
                        log_event(
                            makespan, "unfinished", life.plan.index, [],
                        )
                    queue.clear()
                    break
                stuck = [life.plan.name for life in queue]
                raise ScenarioError(
                    f"scenario stalled with jobs queued: {stuck}"
                )
            now = min(candidates)
            if now > spec.max_sim_time_s:
                unfinished = len(queue) + len(running) + len(pending)
                raise ScenarioError(
                    f"scenario exceeded max_sim_time_s="
                    f"{spec.max_sim_time_s:g} with {unfinished} job(s) "
                    f"unfinished; raise the cap or shrink the workload"
                )
            with step_span:
                TRACER.gauge("engine.sim_now_s", now)
                # 1. substrate events (iteration completions ->
                # departures)
                departures: List[_Running] = []
                for substrate, event in substrate_events:
                    if event is None or event > now + _TIME_EPS:
                        continue
                    # No span here: ``flow.solve`` inside the advance
                    # already captures the expensive part, and a third
                    # span per event would eat the overhead budget.
                    iterated = substrate.advance_to(now)
                    mark_dirty(substrate)
                    for state in iterated:
                        entry = by_state.get(id(state))
                        if entry is None:
                            continue
                        if entry.deadline_s is not None:
                            due = now + _TIME_EPS >= entry.deadline_s
                        else:
                            due = total_done(entry) >= entry.plan.iterations
                        if due:
                            departures.append(entry)
                        elif spec.fast_forward and self.shardable:
                            fast_forward(entry, now)
                #: Whether this event can change a scheduling decision.
                #: Admission/backfill/preemption/growth opportunities only
                #: improve when servers free up, the queue changes, or
                #: routing changes -- never from time passing alone (a
                #: backfill window only shrinks as ``now`` approaches the
                #: head's reservation), so plain iteration completions
                #: skip the control pass.  This keeps the O(queue)
                #: reservation walk off the per-iteration hot path.
                control_due = bool(departures)
                for entry in departures:
                    del running[entry.plan.index]
                    depart(entry, now)
                    makespan = max(makespan, now)
                # 1b. analytic departures of fast-forwarded jobs
                while analytic and analytic[0][0] <= now + _TIME_EPS:
                    _, index = heapq.heappop(analytic)
                    depart(running.pop(index), now)
                    makespan = max(makespan, now)
                    control_due = True
                # 2. failures due at now
                while (
                    failure_events
                    and failure_events[0][0] <= now + _TIME_EPS
                ):
                    _, action, injection = failure_events.popleft()
                    with TRACER.span("engine.fault", cat="engine",
                                     kind=action):
                        self._apply_failure(
                            action, injection, running, now,
                            on_disconnect=crash_suspend,
                        )
                    control_due = True
                # 2b. fault-plane events due at now
                if plane is not None and plane.next_time() <= now + _TIME_EPS:
                    for tag, payload in plane.pop_due(now, _TIME_EPS):
                        with TRACER.span("engine.fault", cat="engine",
                                         kind=tag):
                            apply_fault(tag, payload, now)
                    control_due = True
                # 3. arrivals due at now
                while pending and pending[0].arrival_s <= now + _TIME_EPS:
                    plan = pending.popleft()
                    life = _JobLife(plan=plan)
                    lives[plan.index] = life
                    queue.append(life)
                    control_due = True
                # 4. scheduling decisions (after departures freed ports)
                if control_due:
                    with TRACER.span("engine.control", cat="engine"):
                        control(now)

        # Injections scheduled past the last departure never fired;
        # record them so the log accounts for every requested failure.
        while failure_events:
            when, _, injection = failure_events.popleft()
            self.failure_log.append(
                {
                    "time_s": when,
                    "job_index": injection.job_index,
                    "kind": "skipped",
                    "reason": "scenario ended before injection time",
                }
            )
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
            jobs=tuple(sorted(finished, key=lambda job: job.index)),
            makespan_s=makespan,
            utilization_timeline=tuple(utilization),
            fragmentation_timeline=tuple(fragmentation),
            failure_log=tuple(self.failure_log),
            scheduler_log=tuple(self.scheduler_log),
            unfinished_jobs=tuple(unfinished),
        )

    # -- failures ------------------------------------------------------
    def _apply_failure(
        self,
        action: str,
        injection: FailureInjection,
        running: Dict[int, _Running],
        now: float,
        on_disconnect=None,
    ) -> None:
        from repro.sim.failures import FailureManager, LinkFailureError

        entry = running.get(injection.job_index)
        base = {"time_s": now, "job_index": injection.job_index}
        if entry is None or not self.shardable:
            reason = (
                "job not running" if entry is None
                else "shared fabrics have no per-job optical shard"
            )
            self.failure_log.append(
                {**base, "kind": "skipped", "reason": reason}
            )
            return
        if action == "fail" and entry.failure_manager is None:
            # Copy-on-write: the prepared fabric is shared by every job
            # built from the same template (pipeline cache), and the
            # FailureManager patches routing tables in place.  Give the
            # failing job its own topology result + fabric so the
            # damage stays on its shard.
            import copy as _copy

            from repro.network.topoopt import TopoOptFabric

            isolated = _copy.deepcopy(entry.prepared.fabric.result)
            fabric = TopoOptFabric(
                isolated, entry.prepared.fabric.link_bandwidth_bps
            )
            entry.state.spec.fabric = fabric.relabel(list(entry.servers))
            entry.failure_manager = FailureManager(isolated)
        manager = entry.failure_manager
        result = (
            manager.result if manager is not None
            else entry.prepared.fabric.result
        )
        link = injection.link or self._default_failure_link(result)
        if action == "fail":
            try:
                repair = manager.fail_link(*link)
            except LinkFailureError as error:
                # A disconnecting cut is a real fault, not a no-op: the
                # job cannot make progress on a split shard.  Suspend
                # and requeue it (losing the uncheckpointed segment)
                # instead of letting the error escape the event loop.
                if on_disconnect is not None:
                    info = on_disconnect(entry, now, "shard disconnected")
                    self.failure_log.append(
                        {
                            **base,
                            "kind": "link_cut",
                            "link": list(link),
                            "reason": str(error),
                            **info,
                        }
                    )
                else:
                    self.failure_log.append(
                        {
                            **base,
                            "kind": "skipped",
                            "link": list(link),
                            "reason": str(error),
                        }
                    )
                return
            except (ValueError, RuntimeError) as error:
                # Already-failed edges and links absent from the shard
                # topology: log, don't abort -- the scenario result
                # must stay reachable (and deterministic) for any
                # injection list.
                self.failure_log.append(
                    {
                        **base,
                        "kind": "skipped",
                        "link": list(link),
                        "reason": str(error),
                    }
                )
                return
            self.failure_log.append(
                {
                    **base,
                    "kind": repair.kind,
                    "link": list(link),
                    "extra_hops": repair.extra_hops,
                }
            )
            # The kernel backend registers a job's flows once and
            # replays them; the patched routing only takes effect if
            # the cached columns are dropped.
            entry.substrate.invalidate_flows(entry.state)
        else:  # repair
            if manager is None or tuple(link) not in manager.failed:
                self.failure_log.append(
                    {**base, "kind": "skipped", "reason": "link not failed"}
                )
                return
            repair = manager.repair_permanently(*link)
            self.failure_log.append(
                {**base, "kind": repair.kind, "link": list(link)}
            )
            entry.substrate.invalidate_flows(entry.state)

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
    failures: Sequence[FailureInjection] = (),
    store=None,
    *,
    recorder: Optional[TraceRecorder] = None,
) -> ScenarioResult:
    """Simulate one scenario end to end; see the module docstring.

    The returned result's ``to_dict()`` is deterministic for a given
    (spec, seed); ``wall_time_s`` is measured and stays off-JSON.

    A :class:`repro.service.store.ResultStore` passed as ``store``
    memoizes the run under the spec's content hash -- but only when
    ``failures`` is empty: legacy :class:`FailureInjection` schedules
    live outside the spec, so they are not part of its hash and caching
    them would alias distinct runs.  (Spec-level ``faults`` hash fine.)

    Observation: passing a :class:`repro.obs.tracer.TraceRecorder` as
    ``recorder`` (or setting ``spec.observe`` -- which creates one when
    no recorder is already active process-wide) runs the engine under
    that recorder and attaches the merged
    :meth:`repro.obs.report.ObsReport.to_dict` to the result's
    off-JSON ``obs`` field.  Simulated results are byte-identical with
    and without observation; a store hit returns the cached result as
    is (no trace, since nothing ran).
    """
    if store is not None and not failures:
        cached = store.get(spec)
        if cached is not None:
            return cached
    if recorder is None and spec.observe and not TRACER.enabled:
        recorder = TraceRecorder()
    started = time.perf_counter()
    engine = ScenarioEngine(spec, failures)
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
    if store is not None and not failures:
        store.put(spec, result)
    return result
