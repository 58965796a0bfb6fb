"""Shared-cluster simulation: sharding and concurrent jobs (section 5.6).

A TopoOpt cluster is *shardable*: the optical layer gives every job a
dedicated, physically isolated partition, so jobs never contend
(Appendix C).  Switch-based fabrics share their core, so concurrent
jobs' AllReduce and MP phases collide -- the congestion that drives the
Fat-tree tail latencies of Figure 16.

The simulator runs each job's training loop as a state machine over a
single shared fluid network:

    compute (timer)  ->  communicate (MP + AllReduce flows)  ->  repeat

and records per-iteration completion times, from which the bench reports
the average and 99th-percentile across jobs (the Figure 16 series).

Two usage modes share one event core:

* **Batch** (the original interface): construct with a job list and call
  :meth:`SharedClusterSimulator.run`, which starts every job at time
  zero (with a seeded random stagger) and simulates until each reaches
  its iteration quota.
* **Dynamic membership** (what the scenario engine in
  :mod:`repro.cluster.engine` drives): construct empty, then
  :meth:`~SharedClusterSimulator.add_job` /
  :meth:`~SharedClusterSimulator.remove_job` jobs at arbitrary
  simulation times, stepping the clock with
  :meth:`~SharedClusterSimulator.next_event_time` and
  :meth:`~SharedClusterSimulator.advance_to`.

Determinism: all randomness comes from the per-simulation
``random.Random(seed)`` (used only for the optional start stagger), and
every reduction iterates insertion-ordered containers, so two runs with
the same inputs and seed produce bit-identical iteration times -- the
property the scenario engine's same-spec-same-seed JSON gate relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import TRACER
from repro.parallel.traffic import TrafficSummary
from repro.perf.fairshare import progressive_filling_rates
from repro.sim.fluid import FluidNetwork, ReferenceFluidNetwork
from repro.sim.network_sim import _allreduce_flows, _mp_flows

Link = Tuple[int, int]

_EPS = 1e-12

#: Entries one :class:`FlowSet`'s rate memo may hold.  A shard phase
#: walks one active mask per completion event and every phase of a
#: template replays the same walk: ``bench scenario_fleet --n 1000``
#: peaks at 184 masks (a 275-flow DLRM shard).  The cap only bounds
#: memory where masks never repeat.
_RATE_MEMO_CAP = 512

#: Max-min allocator backends selectable per simulation: the persistent
#: array-backed kernel (default; see :class:`_SubstrateFlowKernel`) or
#: the retained pure-Python reference allocator (the equivalence
#: baseline the scenario benchmark compares against).  The ``kernel``
#: entry keeps :class:`repro.sim.fluid.FluidNetwork` as its nominal
#: value for API compatibility, but :class:`SharedClusterSimulator`
#: routes it through the persistent kernel rather than constructing a
#: per-event network.
NETWORK_SOLVERS = {
    "kernel": FluidNetwork,
    "reference": ReferenceFluidNetwork,
}


def _incidence(rows, cols, num_links: int, num_flows: int):
    """The (links x flows) 0/1 CSR incidence of COO ``(rows, cols)``."""
    from scipy import sparse

    return sparse.csr_matrix(
        (
            np.ones(len(rows)),
            (
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
            ),
        ),
        shape=(num_links, num_flows),
    )


class FlowSet:
    """One job's communication flows, compiled against a link order.

    Holds what the substrate kernel registers per job: each flow's link
    rows (indices into the substrate's capacity table), the per-flow
    entry counts, the flow sizes, and -- built on first use -- the
    (links x flows) CSR incidence with its transpose.  A set compiled
    on a shard-local TopoOpt fabric serves every admission of that
    template: shards are contiguous server blocks and relabeling keeps
    the capacity table's link order, so link rows, flow order and sizes
    are the same on every block.  A set is immutable except for its
    rate memo: max-min rate vectors solved over its incidence, keyed by
    the bytes of the capacity vector and active mask they were solved
    for (see :meth:`memo_rates`).  Kernels copy what they keep.
    """

    def __init__(
        self,
        rows: List[int],
        nnz: List[int],
        sizes: np.ndarray,
        num_links: int,
    ):
        self.rows = rows
        self.nnz = nnz
        self.sizes = sizes
        self.num_links = num_links
        self.count = len(nnz)
        self.cols = np.repeat(np.arange(self.count, dtype=np.int64), nnz)
        self._matrices = None
        self._rate_memo: Dict[Tuple[bytes, bytes], np.ndarray] = {}

    @classmethod
    def compile(
        cls, links: Iterable[Link], fabric, traffic: TrafficSummary
    ) -> "FlowSet":
        """Build the MP + AllReduce flows of ``traffic`` on ``fabric``.

        ``links`` lists the substrate's links in capacity-table order;
        a flow's row is its link's position in that list.
        """
        link_rows = {link: row for row, link in enumerate(links)}
        flows = _mp_flows(fabric, traffic)
        flows.extend(_allreduce_flows(fabric, traffic))
        rows: List[int] = []
        nnz: List[int] = []
        for index, flow in enumerate(flows):
            # Duplicate links within one flow count once (the set
            # semantics of the reference allocator).
            unique = dict.fromkeys(flow.links)
            for link in unique:
                row = link_rows.get(link)
                if row is None:
                    raise KeyError(
                        f"flow {index} uses link {link} which does not "
                        "exist in the network"
                    )
                rows.append(row)
            nnz.append(len(unique))
        sizes = np.array([flow.size_bits for flow in flows], dtype=float)
        return cls(rows, nnz, sizes, len(link_rows))

    def matrices(self):
        """``(incidence, incidence.T)`` in CSR form, built once."""
        if self._matrices is None:
            incidence = _incidence(
                self.rows, self.cols, self.num_links, self.count
            )
            self._matrices = (incidence, incidence.T.tocsr())
        return self._matrices

    def memo_rates(self, key: Tuple[bytes, bytes]) -> Optional[np.ndarray]:
        """A copy of the rates memoized under ``key``, or ``None``.

        ``key`` is ``(capacities.tobytes(), active.tobytes())``: with
        the incidence fixed, max-min rates are a pure function of the
        two, so a memoized vector is the one a fresh solve would give.
        """
        rates = self._rate_memo.get(key)
        return None if rates is None else rates.copy()

    def memoize_rates(
        self, key: Tuple[bytes, bytes], rates: np.ndarray
    ) -> None:
        """Remember a copy of ``rates`` under ``key`` (until the cap)."""
        if len(self._rate_memo) < _RATE_MEMO_CAP:
            self._rate_memo[key] = rates.copy()


@dataclass
class JobSpec:
    """One training job placed on a shard of the cluster.

    ``fabric`` must speak global server ids (a per-shard TopoOpt fabric
    or the shared switch fabric).  ``traffic`` is in global ids when
    ``server_map`` is ``None``; otherwise it stays in the template's
    local ids and ``server_map[i]`` is the global id of local server
    ``i``.  :meth:`global_traffic` gives the global-id view either way,
    remapping at most once per spec and only when a flow build needs it
    -- so an admission that adopts a precompiled set never pays for the
    dense remap.  ``flows`` is an optional precompiled :class:`FlowSet`
    of this job in the substrate's link order (a shard template);
    without one the kernel compiles the set from ``fabric`` and
    :meth:`global_traffic` at the first phase.
    """

    name: str
    traffic: TrafficSummary
    compute_s: float
    fabric: object
    flows: Optional[FlowSet] = None
    server_map: Optional[Sequence[int]] = None
    _global: Optional[TrafficSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def global_traffic(self) -> TrafficSummary:
        """``traffic`` in global server ids (remapped once, on demand)."""
        if self.server_map is None:
            return self.traffic
        if self._global is None:
            self._global = remap_traffic(self.traffic, self.server_map)
        return self._global


@dataclass
class JobStats:
    """Iteration-time record of one job."""

    name: str
    iteration_times: List[float] = field(default_factory=list)


@dataclass
class _JobState:
    spec: JobSpec
    iteration_start: float = 0.0
    phase: str = "compute"  # compute -> mp -> allreduce
    outstanding: int = 0
    stats: JobStats = None  # type: ignore[assignment]
    started: bool = False
    #: Kernel backend only: this job's registered flow columns in the
    #: substrate's persistent incidence (None until the first
    #: communication phase builds and registers them).
    flow_cols: Optional[np.ndarray] = None
    #: Monotonic sequence number of the job's latest communication
    #: phase; orders simultaneous phase completions exactly as the
    #: reference allocator's insertion-ordered flow dict does.
    phase_seq: int = 0
    #: Kernel backend only: routing changed mid-phase, so the cached
    #: columns must be dropped and rebuilt at the next phase start.
    flows_stale: bool = False
    #: Kernel backend only: routing changed since admission, so the
    #: spec's precompiled flow set no longer applies and registration
    #: compiles the flows from the patched fabric.
    rerouted: bool = False


def remap_traffic(
    traffic: TrafficSummary, server_map: Sequence[int]
) -> TrafficSummary:
    """Re-express a local-id traffic summary in global server ids.

    ``server_map[i]`` is the global id of local server ``i``.  The
    resulting matrices live in the global id space (size = max id + 1),
    which is what the shared network expects.
    """
    from repro.core.topology_finder import AllReduceGroup

    server_ids = np.asarray(server_map, dtype=np.int64)
    n_global = int(server_ids.max()) + 1
    mp = np.zeros((n_global, n_global))
    local = np.asarray(traffic.mp_matrix, dtype=float)
    src, dst = np.nonzero(local > 0)
    # server_map is injective (distinct physical servers), so plain
    # fancy assignment accumulates exactly one value per global pair.
    mp[server_ids[src], server_ids[dst]] = local[src, dst]
    groups = [
        AllReduceGroup(
            members=tuple(server_map[m] for m in g.members),
            total_bytes=g.total_bytes,
        )
        for g in traffic.allreduce_groups
    ]
    return TrafficSummary(n=n_global, allreduce_groups=groups, mp_matrix=mp)


class _SubstrateFlowKernel:
    """Persistent array-backed max-min allocator for one substrate.

    The replacement for rebuilding a :class:`FluidNetwork` incidence
    per event: every job's flows are registered **once** as columns of
    a persistent (links x flows) incidence over the substrate's fixed
    link set, and phase transitions merely flip an active mask.  Per
    event the allocation is repaired by masked progressive filling over
    the persistent matrix -- the same per-round arithmetic as the
    per-event rebuild, so rates are bit-identical.

    All per-flow state (size, remaining bits, rate, activity) lives in
    NumPy arrays indexed by column id; the owner bookkeeping stays in
    :class:`SharedClusterSimulator`.  Columns of departed jobs are
    marked dead and physically dropped by :meth:`compact` once they
    dominate the matrix, so month-long scenarios do not accrete cost.
    """

    def __init__(self, capacities: Dict[Link, float]):
        if not capacities:
            raise ValueError("network needs at least one link")
        self._link_index = {
            link: row for row, link in enumerate(capacities)
        }
        self._cap_vec = np.fromiter(
            capacities.values(), dtype=float, count=len(capacities)
        )
        self._cap_key = self._cap_vec.tobytes()
        self.num_links = len(capacities)
        # Growing COO triplets of the persistent incidence.
        self._coo_rows: List[int] = []
        self._coo_cols: List[int] = []
        self._nnz_per_col: List[int] = []
        self._col_count = 0
        # Per-column state.
        self._size = np.empty(0)
        self._eps = np.empty(0)
        self.remaining = np.empty(0)
        self._rates = np.empty(0)
        self._active = np.zeros(0, dtype=bool)
        self._dead = np.zeros(0, dtype=bool)
        # Assembled lazily after registrations.
        self._incidence = None
        self._incidence_t = None
        #: The one flow set registered into this kernel while empty (its
        #: columns are then exactly the set's, so its prebuilt matrices
        #: stand in for a rebuild and its rate memo for solves);
        #: ``None`` once anything else lands or compaction rebuilds.
        self._sole_set: Optional[FlowSet] = None
        self._stale_structure = False
        self._rates_dirty = False
        self._dead_nnz = 0
        self._live_nnz = 0
        # Observability sampler state (see _sample_utilization):
        # per-recorder timeline cache, previous utilization vector, and
        # a solve generation so sampling skips no-change events.
        self._util_sampler = None
        self._solve_batch = None
        self._last_util: Optional[np.ndarray] = None
        self.sim_now = 0.0

    # -- registration --------------------------------------------------
    def register(self, flows: FlowSet) -> np.ndarray:
        """Add one job's flow set as inactive columns; return their ids."""
        if flows.num_links != self.num_links:
            raise ValueError(
                f"flow set compiled for {flows.num_links} links, "
                f"this substrate has {self.num_links}"
            )
        start = self._col_count
        self._sole_set = flows if start == 0 else None
        self._coo_rows.extend(flows.rows)
        self._coo_cols.extend((flows.cols + start).tolist())
        self._nnz_per_col.extend(flows.nnz)
        self._live_nnz += len(flows.rows)
        count = flows.count
        self._col_count += count
        size = flows.sizes
        self._size = np.concatenate([self._size, size])
        self._eps = np.concatenate(
            [self._eps, _EPS * np.maximum(1.0, size)]
        )
        self.remaining = np.concatenate([self.remaining, size])
        self._rates = np.concatenate([self._rates, np.zeros(count)])
        self._active = np.concatenate(
            [self._active, np.zeros(count, dtype=bool)]
        )
        self._dead = np.concatenate(
            [self._dead, np.zeros(count, dtype=bool)]
        )
        self._stale_structure = True
        return np.arange(start, self._col_count, dtype=np.int64)

    def release(self, cols: np.ndarray) -> None:
        """Mark a departed job's columns dead (deactivating live ones)."""
        live = cols[self._active[cols]]
        if live.size:
            self.deactivate(live)
        self._dead[cols] = True
        for col in cols:
            moved = self._nnz_per_col[col]
            self._dead_nnz += moved
            self._live_nnz -= moved

    @property
    def wants_compaction(self) -> bool:
        return self._dead_nnz > max(self._live_nnz, 256)

    def compact(self) -> np.ndarray:
        """Drop dead columns; return the old -> new column id mapping."""
        keep = ~self._dead
        mapping = np.full(self._col_count, -1, dtype=np.int64)
        mapping[keep] = np.arange(int(keep.sum()), dtype=np.int64)
        cols = np.asarray(self._coo_cols, dtype=np.int64)
        rows = np.asarray(self._coo_rows, dtype=np.int64)
        kept_entries = keep[cols]
        self._coo_rows = rows[kept_entries].tolist()
        self._coo_cols = mapping[cols[kept_entries]].tolist()
        self._nnz_per_col = [
            nnz
            for nnz, alive in zip(self._nnz_per_col, keep)
            if alive
        ]
        self._size = self._size[keep]
        self._eps = self._eps[keep]
        self.remaining = self.remaining[keep]
        self._rates = self._rates[keep]
        self._active = self._active[keep]
        self._col_count = int(keep.sum())
        self._dead = np.zeros(self._col_count, dtype=bool)
        self._dead_nnz = 0
        self._sole_set = None
        self._stale_structure = True
        self._rates_dirty = True
        return mapping

    # -- phase transitions ---------------------------------------------
    def activate(self, cols: np.ndarray) -> None:
        """Start a communication phase: reset and activate ``cols``."""
        self.remaining[cols] = self._size[cols]
        self._active[cols] = True
        self._rates_dirty = True

    def deactivate(self, cols: np.ndarray) -> None:
        self._active[cols] = False
        self._rates_dirty = True

    # -- solves --------------------------------------------------------
    def _rebuild_structure(self) -> None:
        if self._sole_set is not None:
            self._incidence, self._incidence_t = self._sole_set.matrices()
        else:
            self._incidence = _incidence(
                self._coo_rows, self._coo_cols,
                self.num_links, self._col_count,
            )
            self._incidence_t = self._incidence.T.tocsr()
        self._stale_structure = False

    def _resolve_rates(self) -> None:
        # While the incidence is exactly one adopted set's, rates are a
        # pure function of (capacities, active mask): every phase of an
        # isolated shard -- and every admission of its template --
        # replays the same masks, so solves are memoized on the set.
        flows = self._sole_set
        if flows is not None:
            key = (self._cap_key, self._active.tobytes())
            rates = flows.memo_rates(key)
            if rates is not None:
                self._rates = rates
                TRACER.count("flow.solve_memo_hits")
                return
        self._rates = progressive_filling_rates(
            self._cap_vec,
            self._incidence,
            self._active,
            incidence_t=self._incidence_t,
        )
        if flows is not None:
            flows.memoize_rates(key, self._rates)

    def _solve_if_dirty(self) -> None:
        solved = self._stale_structure
        if self._stale_structure:
            self._rebuild_structure()
        if self._rates_dirty:
            recorder = TRACER.recorder
            if recorder is None:
                self._resolve_rates()
            else:
                # Solves are per-event-loop-step frequent: time them
                # through one cached batching span, not a fresh live
                # span per solve.
                cached = self._solve_batch
                if cached is None or cached[0] is not recorder:
                    cached = (
                        recorder,
                        TRACER.batch_span("flow.solve", cat="flow"),
                    )
                    self._solve_batch = cached
                with cached[1]:
                    self._resolve_rates()
            self._rates_dirty = False
            solved = True
        if solved:
            recorder = TRACER.recorder
            if recorder is not None:
                self._sample_utilization(recorder)

    def link_utilization(self) -> Dict[Link, float]:
        """Per-link used fraction of capacity under the current rates.

        Read-only observability: forces the lazy solve (idempotent) and
        projects the active flows' rates back onto the links.
        """
        self._solve_if_dirty()
        if self._incidence is None or self._col_count == 0:
            return {link: 0.0 for link in self._link_index}
        used = self._incidence @ (self._rates * self._active)
        return {
            link: float(used[row] / self._cap_vec[row])
            for link, row in self._link_index.items()
        }

    def _sample_utilization(self, recorder) -> None:
        """Queue a per-link utilization sample for ``recorder``.

        Invoked from :meth:`_solve_if_dirty` right after every actual
        solve -- utilization can only change when rates do, so sampling
        there is both exact and free of forced solves.  The hot path
        only snapshots ``(sim_now, rates * active, incidence)`` (the
        incidence reference pins the link/flow structure the rates were
        solved under, which a later rebuild would otherwise replace);
        the matvec projection onto links and the RLE appends are
        deferred to :meth:`_flush_utilization`, which the recorder runs
        via its flush hook when a report or exporter reads the data.
        """
        cache = self._util_sampler
        if cache is None or cache[0] is not recorder:
            cache = (recorder, [])
            self._util_sampler = cache
            self._last_util = None
            recorder.add_flush_hook(self._flush_utilization)
        if self._incidence is None or self._col_count == 0:
            cache[1].append((self.sim_now, None, None))
        else:
            cache[1].append(
                (self.sim_now, self._rates * self._active, self._incidence)
            )

    def _flush_utilization(self, recorder) -> None:
        """Convert queued snapshots into the recorder's RLE timelines.

        Runs off the hot path (recorder flush time): one sparse matvec
        per snapshot, values rounded to 1e-4 so float jitter does not
        defeat the RLE, change detection via one vectorized compare
        against the previous utilization vector.  Idempotent: the
        snapshot queue is drained as it is converted.
        """
        cache = self._util_sampler
        if cache is None or cache[0] is not recorder or not cache[1]:
            return
        timelines = [
            recorder.timeline(f"link_util.{src}->{dst}")
            for src, dst in self._link_index
        ]
        snaps, cache[1][:] = list(cache[1]), []
        last = self._last_util
        for now, flow_vec, incidence in snaps:
            if flow_vec is None:
                util = np.zeros(self.num_links)
            else:
                util = incidence @ flow_vec
                np.divide(util, self._cap_vec, out=util)
                np.round(util, 4, out=util)
            values = util.tolist()
            if last is None:
                for row, value in enumerate(values):
                    timelines[row].points.append((now, value))
            else:
                for row in np.flatnonzero(util != last).tolist():
                    timelines[row].points.append((now, values[row]))
            last = util
        self._last_util = last

    # -- time stepping -------------------------------------------------
    def time_to_next_completion(self) -> Optional[float]:
        """Seconds until the earliest active flow finishes (rates fixed)."""
        self._solve_if_dirty()
        act = np.flatnonzero(self._active)
        if act.size == 0:
            return None
        rates = self._rates[act]
        moving = rates > _EPS
        if not moving.any():
            return None
        best = float((self.remaining[act[moving]] / rates[moving]).min())
        return max(best, 0.0)

    def advance(self, now: float, target: float) -> np.ndarray:
        """Progress active flows from ``now`` to ``target``.

        Returns the completed column ids.  A flow completes when its
        projected finish ``now + remaining / rate`` -- the float
        expression :meth:`time_to_next_completion` minimizes, so the
        flow that set an event's time always completes at it -- is at
        or before ``target``, or when the step (padded by 1e-12 s, as
        the reference allocator pads it) leaves at most its tolerance.
        Without the first rule a flow left with less than one ULP of
        the clock could not be reached on long horizons: its finish
        rounds back to ``now`` and each event moved it only 1e-12 s.

        Uses the rates currently in force (matching the lazy-recompute
        semantics of :class:`FluidNetwork`: callers query
        :meth:`time_to_next_completion` between events, which refreshes
        them).
        """
        act = np.flatnonzero(self._active)
        if act.size == 0:
            return np.empty(0, dtype=np.int64)
        rates = self._rates[act]
        remaining = self.remaining[act]
        left = remaining - rates * (max(target - now, 0.0) + _EPS)
        done_mask = left <= self._eps[act]
        moving = rates > _EPS
        done_mask[moving] |= now + remaining[moving] / rates[moving] <= target
        self.remaining[act] = left
        done = act[done_mask]
        if done.size:
            self.remaining[done] = 0.0
            self.deactivate(done)
        return done


class SharedClusterSimulator:
    """Concurrent training jobs over one capacitated network.

    Parameters
    ----------
    capacities:
        Directed link -> bits/s table of the shared substrate.
    jobs:
        Jobs to start together at time zero when :meth:`run` is called.
        May be empty for dynamic-membership use (:meth:`add_job`).
    seed:
        Seeds the per-simulation RNG; the only consumer is the start
        stagger, so identical (inputs, seed) pairs replay identically.
    stagger:
        Randomly offset each job's first compute phase by a fraction of
        its compute time (the batch mode's decorrelation device).  The
        scenario engine disables it: arrival processes supply their own
        randomness and admission times must be exact.
    solver:
        Max-min allocator backend (:data:`NETWORK_SOLVERS`):
        ``"kernel"`` (sparse progressive filling, default) or
        ``"reference"`` (retained pure-Python allocator).
    """

    def __init__(
        self,
        capacities: Dict[Link, float],
        jobs: Sequence[JobSpec] = (),
        seed: int = 0,
        stagger: bool = True,
        solver: str = "kernel",
    ):
        if solver not in NETWORK_SOLVERS:
            raise ValueError(
                f"unknown solver {solver!r}; "
                f"use one of {sorted(NETWORK_SOLVERS)}"
            )
        self.solver = solver
        if solver == "reference":
            self.network = ReferenceFluidNetwork(capacities)
            self._kernel: Optional[_SubstrateFlowKernel] = None
        else:
            self.network = None
            self._kernel = _SubstrateFlowKernel(capacities)
        self.rng = random.Random(seed)
        self.stagger = stagger
        self.now = 0.0
        self.states: List[_JobState] = [
            _JobState(spec=job, stats=JobStats(name=job.name))
            for job in jobs
        ]
        self._timers: List[Tuple[float, _JobState]] = []
        #: In-flight flow -> owning job.  Keys are flow ids on the
        #: reference backend and persistent column ids on the kernel.
        self._flow_owner: Dict[int, _JobState] = {}
        self._finished_buffer: List[_JobState] = []
        self._phase_counter = 0

    # -- dynamic membership --------------------------------------------
    def add_job(self, spec: JobSpec, start: Optional[float] = None) -> _JobState:
        """Admit ``spec`` at simulation time ``start`` (default: now).

        The job begins its first compute phase at ``start`` (plus the
        seeded stagger offset when ``stagger`` is enabled) and runs
        until removed; the caller owns the iteration quota.
        """
        t0 = self.now if start is None else start
        state = _JobState(
            spec=spec, stats=JobStats(name=spec.name), started=True
        )
        offset = self.rng.random() * spec.compute_s if self.stagger else 0.0
        state.iteration_start = t0
        self.states.append(state)
        self._timers.append((t0 + offset + spec.compute_s, state))
        return state

    def remove_job(self, state: _JobState) -> None:
        """Withdraw a job: cancel its timer and drop its in-flight flows.

        Their bandwidth returns to the survivors at once.  Work in a
        partial iteration is discarded, so a job that comes back (after
        preemption, an elastic resize or a fault) is a fresh
        :meth:`add_job` that resumes from its last iteration boundary;
        the caller carries its iteration count across.
        """
        # Remove by identity: distinct jobs with identical specs and
        # fresh stats compare equal, and list.remove would detach the
        # wrong one.
        self.states = [s for s in self.states if s is not state]
        self._timers = [(t, s) for t, s in self._timers if s is not state]
        dead = [
            key
            for key, owner in self._flow_owner.items()
            if owner is state
        ]
        if self._kernel is not None:
            for key in dead:
                del self._flow_owner[key]
            if state.flow_cols is not None:
                self._kernel.release(state.flow_cols)
                state.flow_cols = None
                if self._kernel.wants_compaction:
                    self._compact_kernel()
            return
        for flow_id in dead:
            flow = self.network.active.get(flow_id)
            if flow is not None:
                self.network.remove_flow(flow)
            del self._flow_owner[flow_id]

    def defer_job(self, state: _JobState, until: float) -> None:
        """Skip a job ahead to the iteration boundary at ``until``.

        The scenario engine's fast-forward path accounts a run of
        identical steady-state iterations analytically and lands the
        job here: its pending compute timer is replaced so the next
        *simulated* iteration starts at ``until``, with cached flow
        columns (kernel backend) left intact for reuse.
        """
        self._timers = [(t, s) for t, s in self._timers if s is not state]
        state.iteration_start = until
        state.phase = "compute"
        self._timers.append((until + state.spec.compute_s, state))

    def invalidate_flows(self, state: _JobState) -> None:
        """Drop a job's cached flow columns (after routing changed).

        The kernel backend registers each job's flow set once and
        reuses it every phase; failure injections patch routing in
        place, so the engine calls this to force a rebuild from the
        patched fabric at the next phase (never again from the spec's
        precompiled template).  No-op on the reference backend, which
        rebuilds per phase.

        A job caught mid-communication keeps its in-flight flows on the
        old paths until the phase completes -- exactly the reference
        semantics, where flows already in the network are untouched by
        a routing patch -- and rebuilds at the next phase start.
        """
        if self._kernel is None:
            return
        state.rerouted = True
        if state.flow_cols is None:
            return
        if state.phase == "comm" and state.outstanding > 0:
            state.flows_stale = True
            return
        self._kernel.release(state.flow_cols)
        state.flow_cols = None
        state.flows_stale = False
        if self._kernel.wants_compaction:
            self._compact_kernel()

    def _compact_kernel(self) -> None:
        mapping = self._kernel.compact()
        for state in self.states:
            if state.flow_cols is not None:
                state.flow_cols = mapping[state.flow_cols]
        self._flow_owner = {
            int(mapping[col]): owner
            for col, owner in self._flow_owner.items()
        }

    def next_event_time(self) -> Optional[float]:
        """Absolute time of the next compute timer or flow completion."""
        next_timer = min((t for t, _ in self._timers), default=None)
        if self._kernel is not None:
            dt_flow = self._kernel.time_to_next_completion()
        else:
            dt_flow = self.network.time_to_next_completion()
        next_flow = self.now + dt_flow if dt_flow is not None else None
        candidates = [t for t in (next_timer, next_flow) if t is not None]
        return min(candidates) if candidates else None

    def advance_to(self, target: float) -> List[_JobState]:
        """Advance the clock to ``target`` and process due events.

        Returns the states that completed a training iteration at this
        event (the hook the scenario engine checks quotas on).
        """
        self._finished_buffer = []
        now, self.now = self.now, target
        if self._kernel is not None:
            # Keep the kernel's simulated clock current: its lazy
            # solves stamp utilization-timeline samples with it.
            self._kernel.sim_now = target
            done_cols = self._kernel.advance(now, target)
            finishers: List[_JobState] = []
            for col in done_cols:
                owner = self._flow_owner.pop(int(col), None)
                if owner is None:
                    continue
                owner.outstanding -= 1
                if owner.outstanding == 0:
                    finishers.append(owner)
            # The reference allocator completes flows in phase-start
            # (dict insertion) order; column ids are registration
            # order, so re-sort simultaneous finishers to match.
            finishers.sort(key=lambda s: s.phase_seq)
            for owner in finishers:
                self._finish_communication(owner, self.now)
        else:
            completed = self.network.advance(max(target - now, 0.0) + 1e-12)
            for flow in completed:
                owner = self._flow_owner.pop(flow.flow_id, None)
                if owner is None:
                    continue
                owner.outstanding -= 1
                if owner.outstanding == 0:
                    self._finish_communication(owner, self.now)
        still_pending = []
        for timer, state in self._timers:
            if timer <= self.now + 1e-12:
                self._start_communication(state, self.now)
            else:
                still_pending.append((timer, state))
        self._timers = still_pending
        return self._finished_buffer

    # ------------------------------------------------------------------
    def run(
        self,
        iterations_per_job: int = 5,
        max_sim_time_s: float = 3600.0,
    ) -> List[JobStats]:
        """Simulate until every job completes its iteration quota."""
        if not self.states:
            raise ValueError("need at least one job")
        # Stagger job starts by a random fraction of their compute time
        # so the cluster does not run in lockstep.  Jobs admitted via
        # add_job() are already started and keep their existing timers.
        for state in self.states:
            if state.started:
                continue
            offset = (
                self.rng.random() * state.spec.compute_s
                if self.stagger
                else 0.0
            )
            state.iteration_start = self.now
            self._timers.append(
                (self.now + offset + state.spec.compute_s, state)
            )
            state.started = True

        while True:
            if all(
                len(s.stats.iteration_times) >= iterations_per_job
                for s in self.states
            ):
                break
            if self.now > max_sim_time_s:
                raise RuntimeError(
                    f"shared-cluster simulation exceeded {max_sim_time_s}s"
                )
            target = self.next_event_time()
            if target is None:
                break
            self.advance_to(target)
        return [state.stats for state in self.states]

    # ------------------------------------------------------------------
    def _start_communication(self, state: _JobState, now: float) -> None:
        spec = state.spec
        if self._kernel is not None:
            cols = state.flow_cols
            if cols is not None and state.flows_stale:
                # Routing changed while the previous phase was in
                # flight; its columns are inactive now, so drop and
                # rebuild from the patched fabric.
                self._kernel.release(cols)
                state.flow_cols = None
                state.flows_stale = False
                cols = None
            if cols is None:
                # Registered once per job (and after routing
                # invalidation), not once per phase: paths and sizes
                # are pure functions of (fabric, traffic).
                flows = None if state.rerouted else spec.flows
                if flows is None:
                    flows = FlowSet.compile(
                        self._kernel._link_index,
                        spec.fabric,
                        spec.global_traffic(),
                    )
                cols = self._kernel.register(flows)
                state.flow_cols = cols
            if cols.size == 0:
                self._finish_communication(state, now)
                return
            state.phase = "comm"
            state.outstanding = int(cols.size)
            self._phase_counter += 1
            state.phase_seq = self._phase_counter
            for col in cols:
                self._flow_owner[int(col)] = state
            self._kernel.activate(cols)
            return
        traffic = spec.global_traffic()
        flows = _mp_flows(spec.fabric, traffic)
        flows.extend(_allreduce_flows(spec.fabric, traffic))
        if not flows:
            self._finish_communication(state, now)
            return
        state.phase = "comm"
        state.outstanding = len(flows)
        self._phase_counter += 1
        state.phase_seq = self._phase_counter
        for flow in flows:
            self._flow_owner[flow.flow_id] = state
            self.network.add_flow(flow)

    def _finish_communication(self, state: _JobState, now: float) -> None:
        state.stats.iteration_times.append(now - state.iteration_start)
        state.iteration_start = now
        state.phase = "compute"
        self._timers.append((now + state.spec.compute_s, state))
        self._finished_buffer.append(state)


def iteration_time_stats(
    stats: Sequence[JobStats], skip_first: int = 1
) -> Tuple[float, float]:
    """(average, 99th percentile) across all jobs' recorded iterations.

    The first iteration of each job includes the random start stagger,
    so it is skipped by default.
    """
    samples: List[float] = []
    for job in stats:
        samples.extend(job.iteration_times[skip_first:])
    if not samples:
        raise ValueError("no iteration samples recorded")
    return float(np.mean(samples)), float(np.percentile(samples, 99))
