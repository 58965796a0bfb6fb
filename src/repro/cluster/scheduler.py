"""The scheduler control plane: allocation, backfill, preemption, elasticity.

The optical layer can wire any free server set into a shard, but real
deployments allocate *contiguous* server ranges: patch-panel ports are
physically grouped, and keeping a job's ports adjacent keeps its fibers
within one panel region (Appendix C's per-job partitions).  Modelling
allocation as contiguous blocks is what makes scheduling policies
meaningfully different and lets the engine report external
fragmentation -- the classic memory-allocator trade-off, replayed on
server ids.

Four layers live here, each a knob of
:class:`~repro.cluster.spec.SchedulerSpec`:

* :class:`ShardAllocator` -- contiguous-block allocation over ids
  ``0..n-1`` with the ``first-fit`` / ``best-fit`` / ``random`` hole
  choice (``policy``).
* :class:`JobScheduler` -- the queue discipline (``queue``): plain FCFS
  head-of-line blocking, EASY backfill (only the queue head holds a
  reservation), or conservative backfill (every queued job holds one),
  plus priority preemption (``preemption="priority"``) and elastic
  shard sizing (``elastic=True``).  Reservations are (time x block)
  windows over an :class:`AvailabilityProfile` built from the engine's
  wall-clock duration estimates.
* :class:`AvailabilityProfile` -- a step function of projected free
  masks: the current free pool plus every running job's estimated
  release, minus reservation holds.
* :class:`ShardManager` -- look-ahead topology provisioning
  (``provisioning="lookahead"``): a job's optical reconfiguration
  starts once it reaches the queue head, so time spent waiting there is
  credited against ``admission_latency_s`` (Appendix C's ~1 ms
  warm-path admission instead of a cold patch-panel run).

Division of labour with the engine: :meth:`JobScheduler.next_action`
*transacts against the allocator* (carves an admitted job's block,
frees a preemption victim's block) and returns **one action per call**;
the engine applies the matching simulator-side effect (start the job's
flows, suspend the victim, re-run the pipeline at the new size) and
calls again until no action remains.  One action per call keeps the
allocator-op sequence -- and hence every seeded RNG draw and every
utilization/fragmentation sample -- identical to the pre-policy-plane
FCFS engine when the spec asks for plain FCFS.

Estimate semantics: on isolated ``topoopt`` shards every iteration of a
job is identical, so the engine's duration estimates are *exact* and
the backfill guarantees hold exactly (EASY never delays the head's
reservation; conservative never delays anyone) -- the property the
invariant harness in :mod:`repro.cluster.invariants` checks.  On a
shared contended fabric the estimates are uncontended lower bounds and
backfill becomes heuristic, as in real clusters.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.spec import SCHEDULER_POLICIES, SchedulerSpec

Hole = Tuple[int, int]  # (start, length)

_EPS = 1e-9


def _edge_runs(edges: np.ndarray) -> List[Hole]:
    """``(start, length)`` runs of a 0/1 mask from its +1/-1 edges."""
    starts = np.flatnonzero(edges == 1).tolist()
    ends = np.flatnonzero(edges == -1).tolist()
    return [(start, end - start) for start, end in zip(starts, ends)]


def _mask_holes(mask: np.ndarray) -> List[Hole]:
    """Maximal ``True`` runs of a boolean mask as ``(start, length)``."""
    padded = np.empty(len(mask) + 1, dtype=np.int8)
    padded[: len(mask)] = mask
    padded[len(mask)] = 0
    return _edge_runs(np.diff(padded, prepend=np.int8(0)))


class ShardAllocator:
    """Contiguous-block server allocation over ids ``0..n-1``.

    Every allocation carves from the *front* of the chosen hole and is
    remembered as a block; :meth:`free` only accepts exactly such a
    block, so a caller can neither free servers it never held nor
    splinter someone else's shard.  Frees coalesce with adjacent holes
    automatically (free servers are a set, and holes are recomputed as
    maximal runs).
    """

    def __init__(self, num_servers: int, policy: str, rng: random.Random):
        if num_servers < 1:
            raise ValueError("need at least one server")
        if policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; "
                f"registered: {sorted(SCHEDULER_POLICIES)}"
            )
        self.num_servers = num_servers
        self.policy = policy
        self.rng = rng
        self._free = set(range(num_servers))
        # Mirror of _free as a 0/1 mask, padded with a trailing 0 so
        # run ends always show up in the edges below.
        self._mask = np.ones(num_servers + 1, dtype=np.int8)
        self._mask[num_servers] = 0
        self._edges = np.empty(num_servers + 1, dtype=np.int8)
        #: Bumped at every mask write; :meth:`holes` rescans only when
        #: it moved since the cached scan.
        self._version = 0
        self._holes_at: Tuple[int, List[Hole]] = (-1, [])
        #: start id -> the exact server tuple carved there.
        self._blocks: Dict[int, Tuple[int, ...]] = {}
        #: servers taken out of service by a host failure.  Failed
        #: servers are neither free nor busy: they punch holes in the
        #: mask (so no block is carved across them) without counting
        #: toward utilization.
        self._failed: Set[int] = set()

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def failed_count(self) -> int:
        return len(self._failed)

    @property
    def busy_count(self) -> int:
        return self.num_servers - len(self._free) - len(self._failed)

    def free_mask(self) -> np.ndarray:
        """The free pool as a boolean mask (a copy; True = free)."""
        return self._mask[: self.num_servers].astype(bool)

    def holes(self) -> List[Hole]:
        """Maximal free runs as ``(start, length)``, in address order.

        Computed as run boundaries of the free mask (one vectorized
        subtract into a reused buffer) rather than a per-server Python
        scan, and cached until the next mask write: fragmentation is
        sampled at every admission and departure, so a sample and the
        next allocation at one instant share one scan.
        """
        version, runs = self._holes_at
        if version != self._version:
            mask, edges = self._mask, self._edges
            edges[0] = mask[0]
            np.subtract(mask[1:], mask[:-1], out=edges[1:])
            runs = _edge_runs(edges)
            self._holes_at = (self._version, runs)
        return list(runs)

    def largest_hole(self) -> int:
        """Length of the largest free run (0 when nothing is free)."""
        return max((length for _, length in self.holes()), default=0)

    def fragmentation(self) -> float:
        """External fragmentation: ``1 - largest_hole / total_free``.

        0 when the free pool is one contiguous run (or empty); rises
        toward 1 as the free servers scatter into unusable slivers.
        """
        holes = self.holes()
        total = sum(length for _, length in holes)
        if total == 0:
            return 0.0
        largest = max(length for _, length in holes)
        return 1.0 - largest / total

    def utilization(self) -> float:
        return self.busy_count / self.num_servers

    # ------------------------------------------------------------------
    def allocate(self, count: int) -> Optional[Tuple[int, ...]]:
        """Carve ``count`` contiguous servers, or ``None`` if no hole fits."""
        if count < 1:
            raise ValueError("a shard needs at least one server")
        candidates = [h for h in self.holes() if h[1] >= count]
        if not candidates:
            return None
        if self.policy == "first-fit":
            start, _ = candidates[0]
        elif self.policy == "best-fit":
            start, _ = min(candidates, key=lambda h: (h[1], h[0]))
        else:  # random
            start, _ = candidates[self.rng.randrange(len(candidates))]
        return self._carve(start, count)

    def allocate_block(self, start: int, count: int) -> Tuple[int, ...]:
        """Carve the exact block ``[start, start + count)``.

        The backfill paths pick their own blocks (a reservation is a
        concrete address range, not just a size), so they bypass the
        hole-choice policy and carve directly.  Raises if any server of
        the block is missing or busy.
        """
        if count < 1:
            raise ValueError("a shard needs at least one server")
        if start < 0 or start + count > self.num_servers:
            raise ValueError(
                f"block [{start}, {start + count}) is outside this "
                f"cluster's servers 0..{self.num_servers - 1}"
            )
        if not self._mask[start:start + count].all():
            raise ValueError(
                f"block [{start}, {start + count}) is not entirely free"
            )
        return self._carve(start, count)

    def _carve(self, start: int, count: int) -> Tuple[int, ...]:
        servers = tuple(range(start, start + count))
        self._free -= set(servers)
        self._mask[start:start + count] = 0
        self._version += 1
        self._blocks[start] = servers
        return servers

    def free(self, servers: Sequence[int]) -> None:
        """Return an allocated block's servers to the pool.

        Only a tuple previously handed out by :meth:`allocate` /
        :meth:`allocate_block` (and not yet freed) is accepted:
        out-of-range ids, double frees, and never-allocated server sets
        all raise instead of silently corrupting the free pool.
        """
        servers = tuple(servers)
        if not servers:
            raise ValueError("cannot free an empty server block")
        for server in servers:
            if not 0 <= server < self.num_servers:
                raise ValueError(
                    f"server {server} is outside this cluster's servers "
                    f"0..{self.num_servers - 1}"
                )
            if server in self._free:
                raise ValueError(f"server {server} is already free")
        start = min(servers)
        if self._blocks.get(start) != tuple(sorted(servers)):
            raise ValueError(
                f"servers {servers} were never allocated as a block; "
                f"free() only accepts blocks handed out by allocate()"
            )
        del self._blocks[start]
        self._free |= set(servers)
        self._mask[list(servers)] = 1
        self._version += 1

    # ------------------------------------------------------------------
    def fail_server(self, server: int) -> None:
        """Take a *free* server out of service (host failure).

        The engine evicts any resident job first (its whole block is
        freed through the suspend path), so by the time the allocator
        hears about the failure the server must be free.  The failed
        server leaves both the free set and the mask: no future block
        is carved across it, and ``busy_count`` / ``utilization`` keep
        reporting only genuinely working servers.
        """
        if not 0 <= server < self.num_servers:
            raise ValueError(
                f"server {server} is outside this cluster's servers "
                f"0..{self.num_servers - 1}"
            )
        if server in self._failed:
            raise ValueError(f"server {server} is already failed")
        if server not in self._free:
            raise ValueError(
                f"server {server} is still allocated; evict its job "
                "before failing the host"
            )
        self._free.discard(server)
        self._failed.add(server)
        self._mask[server] = 0
        self._version += 1

    def repair_server(self, server: int) -> None:
        """Return a failed server to the free pool."""
        if server not in self._failed:
            raise ValueError(f"server {server} is not failed")
        self._failed.discard(server)
        self._free.add(server)
        self._mask[server] = 1
        self._version += 1


class AvailabilityProfile:
    """A step function of projected free masks over future time.

    Built per scheduling round from the allocator's current free mask
    plus every running job's estimated block release, then refined with
    reservation *holds* (conservative backfill reserves a concrete
    (time x block) window per queued job).  Queries ask for the
    earliest time a contiguous block of a given size is free for a
    given duration.

    All times are absolute simulation seconds; the profile starts at
    ``now`` and the last segment extends to infinity.
    """

    def __init__(
        self,
        now: float,
        free_mask: np.ndarray,
        releases: Sequence[Tuple[float, Sequence[int]]] = (),
    ):
        self._times: List[float] = [float(now)]
        self._masks: List[np.ndarray] = [
            np.asarray(free_mask, dtype=bool).copy()
        ]
        # Insertion order must not matter for the result, but sorting
        # keeps the internal segment list deterministic.
        for when, servers in sorted(
            releases, key=lambda r: (r[0], tuple(r[1]))
        ):
            self.release(max(float(when), float(now)), servers)

    # ------------------------------------------------------------------
    def _step_at(self, t: float) -> int:
        """Segment index of ``t``, inserting an explicit step if needed."""
        i = bisect.bisect_right(self._times, t) - 1
        if self._times[i] != t:
            self._times.insert(i + 1, t)
            self._masks.insert(i + 1, self._masks[i].copy())
            i += 1
        return i

    def release(self, when: float, servers: Sequence[int]) -> None:
        """Mark ``servers`` free from ``when`` onward."""
        i = self._step_at(max(when, self._times[0]))
        idx = list(servers)
        for mask in self._masks[i:]:
            mask[idx] = True

    def add_hold(
        self, t0: float, t1: float, start: int, count: int
    ) -> None:
        """Reserve block ``[start, start+count)`` during ``[t0, t1)``."""
        t0 = max(t0, self._times[0])
        if t1 <= t0 + _EPS:
            return
        self._step_at(t1)
        i0 = self._step_at(t0)
        i1 = bisect.bisect_right(self._times, t1 + _EPS) - 1
        for mask in self._masks[i0:i1]:
            mask[start:start + count] = False

    def _window_mask(self, t: float, duration: float) -> np.ndarray:
        """Servers free throughout ``[t, t + duration)``."""
        i = bisect.bisect_right(self._times, t + _EPS) - 1
        combined = self._masks[i].copy()
        end = t + duration
        j = i + 1
        while j < len(self._times) and self._times[j] < end - _EPS:
            combined &= self._masks[j]
            j += 1
        return combined

    def earliest_block(
        self,
        count: int,
        duration: float,
        policy: str = "first-fit",
        after: Optional[float] = None,
    ) -> Optional[Tuple[float, int]]:
        """Earliest ``(time, start)`` where ``count`` servers stay free
        for ``duration`` seconds.

        Candidate times are the profile's step times (availability only
        improves at a release and worsens at a hold boundary, so only
        steps matter).  Block choice within the winning time follows
        the allocator's hole-choice rule; the seedless profile resolves
        ``random`` as ``first-fit`` so reservations stay deterministic.
        Returns ``None`` only when ``count`` never fits (more servers
        than the cluster has).
        """
        t0 = self._times[0] if after is None else max(after, self._times[0])
        candidates = [t0] + [t for t in self._times if t > t0 + _EPS]
        for t in candidates:
            mask = self._window_mask(t, duration)
            holes = [h for h in _mask_holes(mask) if h[1] >= count]
            if holes:
                if policy == "best-fit":
                    start, _ = min(holes, key=lambda h: (h[1], h[0]))
                else:  # first-fit, and random resolved deterministically
                    start, _ = holes[0]
                return t, start
        return None


@dataclass(frozen=True)
class QueuedJob:
    """The scheduler-facing view of one queued job.

    ``est_duration_s`` is the engine's wall-clock estimate of the
    job's *total* shard occupancy if started now (start overheads plus
    remaining run time) -- exact on isolated topoopt shards, an
    uncontended bound on shared fabrics, ``inf`` when the discipline
    does not need estimates.  ``min_servers``/``max_servers`` collapse
    to ``servers`` for inelastic jobs.
    """

    key: int
    servers: int
    min_servers: int
    max_servers: int
    priority: int
    est_duration_s: float


@dataclass(frozen=True)
class RunningJob:
    """The scheduler-facing view of one running job."""

    key: int
    servers: Tuple[int, ...]
    priority: int
    est_finish_s: float
    #: Eligible as a preemption victim (fast-forwarded jobs detached
    #: from their substrate are not: their departure is already booked).
    preemptible: bool = True
    #: Eligible for elastic growth (attached, template is elastic).
    resizable: bool = False
    max_servers: int = 0


@dataclass(frozen=True)
class SchedulerAction:
    """One allocator transaction for the engine to mirror.

    ``admit``: ``servers`` was carved for job ``key`` (start it).
    ``preempt``: the blocks of ``victims`` were freed to make room for
    job ``key`` (suspend and requeue them; the admission follows on
    the next call).  ``grow``: job ``key``'s old block was exchanged
    for the larger ``servers`` (resize it).
    """

    kind: str  # "admit" | "preempt" | "grow"
    key: int
    servers: Tuple[int, ...] = ()
    backfilled: bool = False
    victims: Tuple[int, ...] = ()


class JobScheduler:
    """The queue discipline: who runs next, where, and at whose expense.

    One instance drives one scenario.  :meth:`next_action` inspects the
    queue and the running set, performs at most one allocator
    transaction, and returns the matching :class:`SchedulerAction` (or
    ``None`` when nothing more can happen at this instant).  The engine
    applies the action's simulator-side effects and calls again.

    Queue order is arrival order, except under ``preemption="priority"``
    where higher priority goes first (ties: arrival order) -- priorities
    would be meaningless if a high-priority job still waited behind the
    whole queue.
    """

    def __init__(self, spec: SchedulerSpec, allocator: ShardAllocator):
        self.spec = spec
        self.allocator = allocator
        #: ``(key, t_res, start, count)`` of the head-of-queue
        #: reservation computed by the latest backfill pass; the engine
        #: snapshots it into its reservation trace (the EASY invariant
        #: "backfill never delays the head" is checked against this).
        self.last_head_reservation: Optional[
            Tuple[int, float, int, int]
        ] = None

    # ------------------------------------------------------------------
    @property
    def needs_running(self) -> bool:
        """Whether :meth:`next_action` wants the running-set views."""
        return (
            self.spec.queue != "fcfs"
            or self.spec.preemption != "none"
            or self.spec.elastic
        )

    @property
    def needs_estimates(self) -> bool:
        """Whether queued/running views need real duration estimates."""
        return self.spec.queue in ("easy", "conservative")

    def ordered(self, queue: Sequence[QueuedJob]) -> List[QueuedJob]:
        """The queue in scheduling order (see class docstring)."""
        if self.spec.preemption == "priority":
            return sorted(queue, key=lambda j: (-j.priority, j.key))
        return list(queue)

    # ------------------------------------------------------------------
    def next_action(
        self,
        now: float,
        queue: Sequence[QueuedJob],
        running: Sequence[RunningJob] = (),
    ) -> Optional[SchedulerAction]:
        order = self.ordered(queue)
        if order:
            head = order[0]
            block = self._try_allocate(head)
            if block is not None:
                return SchedulerAction("admit", head.key, block)
            if self.spec.preemption == "priority":
                victims = self._preemption_victims(head, running)
                if victims is not None:
                    for victim in victims:
                        self.allocator.free(victim.servers)
                    return SchedulerAction(
                        "preempt",
                        head.key,
                        victims=tuple(v.key for v in victims),
                    )
            if self.spec.queue == "easy":
                return self._easy_backfill(now, order, running)
            if self.spec.queue == "conservative":
                return self._conservative_backfill(now, order, running)
            return None
        if self.spec.elastic and running:
            return self._grow_one(running)
        return None

    # ------------------------------------------------------------------
    def _try_allocate(self, job: QueuedJob) -> Optional[Tuple[int, ...]]:
        """Allocate for ``job`` now, elastically shrinking if allowed."""
        size = job.servers
        if self.spec.elastic and job.min_servers < job.servers:
            size = min(job.servers, self.allocator.largest_hole())
            if size < job.min_servers:
                return None
        return self.allocator.allocate(size)

    def _preemption_victims(
        self, head: QueuedJob, running: Sequence[RunningJob]
    ) -> Optional[List[RunningJob]]:
        """The minimal victim set that makes room for ``head``.

        Only strictly-lower-priority running jobs qualify; the lowest
        priority goes first and, within a priority, the youngest (they
        have the least sunk work).  If even evicting all of them cannot
        open a big-enough hole, nothing is preempted at all.
        """
        target = head.min_servers if self.spec.elastic else head.servers
        pool = [
            r for r in running
            if r.preemptible and r.priority < head.priority
        ]
        if not pool:
            return None
        pool.sort(key=lambda r: (r.priority, -r.key))
        scratch = self.allocator.free_mask()
        chosen: List[RunningJob] = []
        for victim in pool:
            chosen.append(victim)
            scratch[list(victim.servers)] = True
            if max(
                (length for _, length in _mask_holes(scratch)), default=0
            ) >= target:
                return chosen
        return None

    # ------------------------------------------------------------------
    def _profile(
        self, now: float, running: Sequence[RunningJob]
    ) -> AvailabilityProfile:
        return AvailabilityProfile(
            now,
            self.allocator.free_mask(),
            [(r.est_finish_s, r.servers) for r in running],
        )

    def _easy_backfill(
        self,
        now: float,
        order: Sequence[QueuedJob],
        running: Sequence[RunningJob],
    ) -> Optional[SchedulerAction]:
        """EASY: reserve for the blocked head, backfill around it.

        A later job may start now iff it fits a free hole and either
        finishes (by estimate) before the head's reserved start or its
        block is disjoint from the head's reserved block -- both keep
        the head's start time intact.
        """
        head = order[0]
        found = self._profile(now, running).earliest_block(
            head.servers, head.est_duration_s, self.spec.policy
        )
        if found is None:
            self.last_head_reservation = None
            return None
        t_res, r_start = found
        self.last_head_reservation = (head.key, t_res, r_start, head.servers)
        for job in order[1:]:
            block = self._easy_block(now, job, t_res, r_start, head.servers)
            if block is not None:
                return SchedulerAction(
                    "admit", job.key, block, backfilled=True
                )
        return None

    def _easy_block(
        self,
        now: float,
        job: QueuedJob,
        t_res: float,
        r_start: int,
        r_count: int,
    ) -> Optional[Tuple[int, ...]]:
        fits_in_time = now + job.est_duration_s <= t_res + _EPS
        candidates = []
        for h_start, h_len in self.allocator.holes():
            if h_len < job.servers:
                continue
            # Blocks carve from the front of their hole, matching the
            # allocator's semantics.
            disjoint = (
                h_start + job.servers <= r_start
                or h_start >= r_start + r_count
            )
            if fits_in_time or disjoint:
                candidates.append((h_start, h_len))
        if not candidates:
            return None
        if self.spec.policy == "best-fit":
            start, _ = min(candidates, key=lambda h: (h[1], h[0]))
        elif self.spec.policy == "random":
            start, _ = candidates[
                self.allocator.rng.randrange(len(candidates))
            ]
        else:
            start, _ = candidates[0]
        return self.allocator.allocate_block(start, job.servers)

    def _conservative_backfill(
        self,
        now: float,
        order: Sequence[QueuedJob],
        running: Sequence[RunningJob],
    ) -> Optional[SchedulerAction]:
        """Conservative: every queued job holds a reservation.

        Jobs are walked in queue order; each gets the earliest
        (time x block) window compatible with every *earlier* job's
        reservation.  A job whose window starts now is admitted (at
        exactly its reserved block), so no admission can ever delay a
        job ahead of it in the queue.
        """
        profile = self._profile(now, running)
        first = True
        for job in order:
            found = profile.earliest_block(
                job.servers, job.est_duration_s, self.spec.policy
            )
            if found is None:
                if first:
                    self.last_head_reservation = None
                return None
            t_res, start = found
            if first:
                self.last_head_reservation = (
                    job.key, t_res, start, job.servers
                )
                first = False
            if t_res <= now + _EPS:
                block = self.allocator.allocate_block(start, job.servers)
                return SchedulerAction(
                    "admit", job.key, block, backfilled=True
                )
            profile.add_hold(
                t_res, t_res + job.est_duration_s, start, job.servers
            )
        return None

    # ------------------------------------------------------------------
    def _grow_one(
        self, running: Sequence[RunningJob]
    ) -> Optional[SchedulerAction]:
        """Grow one elastic job toward its ``max_servers``.

        Only runs when the queue is empty (queued jobs have first claim
        on free capacity).  Each grown job jumps straight to the
        largest feasible size, so growth converges in one action per
        job per membership change.
        """
        for entry in sorted(running, key=lambda r: r.key):
            current = len(entry.servers)
            if not entry.resizable or current >= entry.max_servers:
                continue
            self.allocator.free(entry.servers)
            size = min(entry.max_servers, self.allocator.largest_hole())
            if size <= current:
                # No room to grow; put the block back untouched.
                self.allocator.allocate_block(entry.servers[0], current)
                continue
            block = self.allocator.allocate(size)
            assert block is not None
            return SchedulerAction("grow", entry.key, block)
        return None


class ShardManager:
    """Look-ahead topology provisioning (Appendix C's dual-plane model).

    Under ``provisioning="flat"`` every admission pays the full
    ``admission_latency_s`` -- the cold patch-panel reconfiguration.
    Under ``"lookahead"`` the manager starts provisioning a job's
    shard topology as soon as the job reaches the head of the queue
    (its size and traffic are known then), so by admission time the
    reconfiguration is partly -- often fully -- done: the engine
    charges ``max(0, admission_latency_s - time spent at the head)``.

    Backfilled jobs are admitted *from the middle* of the queue, so
    nothing was provisioned ahead for them and they pay the full
    latency.  A preempted job's shard is torn down with it, so its
    provisioning credit resets when it requeues.
    """

    def __init__(self, spec: SchedulerSpec):
        self.mode = spec.provisioning
        self.latency_s = spec.admission_latency_s
        self._head_since: Dict[int, float] = {}

    def note_head(self, key: int, now: float) -> None:
        """Record that job ``key`` is at the queue head (idempotent)."""
        self._head_since.setdefault(key, now)

    def forget(self, key: int) -> None:
        """Drop provisioning state (job admitted or preempted)."""
        self._head_since.pop(key, None)

    def admission_latency(self, key: int, now: float) -> float:
        """The reconfiguration latency job ``key`` pays if admitted now."""
        if self.mode == "flat":
            return self.latency_s
        since = self._head_since.get(key)
        if since is None:
            return self.latency_s
        return max(0.0, self.latency_s - (now - since))
