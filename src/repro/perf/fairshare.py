"""Batched progressive filling over a sparse flow--link incidence matrix.

The max-min fair allocation is computed exactly as in the textbook
algorithm (and in the oracle
:class:`repro.oracles.ReferenceFluidNetwork`): all unfrozen flows grow
together until some link saturates, every flow crossing a saturated
link freezes at the link's fair share, and the remaining flows keep
growing.  The difference is purely operational --
one round here processes *every* link that reaches the minimal fair
share simultaneously (equal shares are fixed points of the update, so
batching ties is equivalent to freezing them one at a time), and each
round is a handful of sparse matrix-vector products instead of a Python
scan over every (link, flow) pair.  Symmetric workloads (uniform
all-to-all, AllReduce rings) collapse from thousands of rounds to one.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

_EPS = 1e-12


def progressive_filling_rates(
    capacities: np.ndarray,
    incidence: sparse.csr_matrix,
    active: Optional[np.ndarray] = None,
    incidence_t: Optional[sparse.csr_matrix] = None,
) -> np.ndarray:
    """Max-min fair rates for all flows of a sparse incidence matrix.

    Parameters
    ----------
    capacities:
        ``(L,)`` per-link capacities (bits/s).
    incidence:
        ``(L, F)`` CSR 0/1 matrix: entry (l, f) set iff flow f crosses
        link l.
    active:
        Optional ``(F,)`` boolean mask; inactive flows are excluded
        from the allocation and receive rate 0 (used by the phase
        simulator to retire completed flows without rebuilding the
        matrix).
    incidence_t:
        Optional precomputed ``incidence.T`` in CSR form; callers that
        solve repeatedly over the same flow set (the phase simulator)
        pass it to avoid re-transposing every call.

    Returns
    -------
    ``(F,)`` rate vector; identical (up to floating point) to the
    sequential reference allocator.

    Complexity: ``O(rounds * (L + nnz))`` where one round retires every
    link tied at the minimal fair share; symmetric workloads take one
    round, adversarial ones at most ``L``.

    Example -- the textbook three-flow chain (flows A on link 0, B on
    both links, C on link 1; every flow ends up with half a link):

    >>> import numpy as np
    >>> from scipy import sparse
    >>> from repro.perf.fairshare import progressive_filling_rates
    >>> incidence = sparse.csr_matrix(
    ...     np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    ... )
    >>> progressive_filling_rates(np.array([1.0, 1.0]), incidence)
    array([0.5, 0.5, 0.5])
    """
    num_links, num_flows = incidence.shape
    rates = np.zeros(num_flows)
    if num_flows == 0 or num_links == 0:
        return rates
    if active is None:
        unfrozen = np.ones(num_flows, dtype=bool)
    else:
        unfrozen = active.astype(bool).copy()
    if not unfrozen.any():
        return rates
    if incidence_t is None:
        incidence_t = incidence.T.tocsr()
    residual = np.asarray(capacities, dtype=float).copy()
    counts = incidence @ unfrozen.astype(float)
    # Each round retires at least one link, so L+1 rounds always suffice.
    for _ in range(num_links + 1):
        if not unfrozen.any():
            break
        contended = counts > 0.5
        if not contended.any():
            break
        share = np.full(num_links, np.inf)
        share[contended] = residual[contended] / counts[contended]
        best = share.min()
        bottleneck = share <= best
        hits = incidence_t @ bottleneck.astype(float)
        freeze = unfrozen & (hits > 0.5)
        rates[freeze] = best
        frozen_per_link = incidence @ freeze.astype(float)
        residual = np.maximum(0.0, residual - frozen_per_link * best)
        counts -= frozen_per_link
        unfrozen &= ~freeze
    return rates


def _heap_progressive_fill(
    residual: List[float], flow_links: List[List[int]]
) -> List[float]:
    """Progressive filling on a tiny sub-problem, scalar heap edition.

    Classic single-pass water-filling: a heap of per-link fair shares,
    popping the minimum, freezing that link's flows, and lazily
    re-pushing the shares of the links they also cross.  ``O(nnz log
    L)`` with no per-round vector dispatch, which beats both the dense
    and the sparse kernels by an order of magnitude on the few-dozen-
    flow sub-problems the incremental solver's repair loop produces.
    Rates match the batched kernels up to float rounding (ties are
    retired sequentially here, simultaneously there).
    """
    num_links = len(residual)
    counts = [0] * num_links
    link_flows: List[List[int]] = [[] for _ in range(num_links)]
    for flow, links in enumerate(flow_links):
        for link in links:
            counts[link] += 1
            link_flows[link].append(flow)
    version = [0] * num_links
    heap = [
        (residual[link] / counts[link], link, 0)
        for link in range(num_links)
        if counts[link]
    ]
    heapq.heapify(heap)
    rates = [0.0] * len(flow_links)
    frozen = [False] * len(flow_links)
    remaining = len(flow_links)
    while heap and remaining:
        share, link, stamp = heapq.heappop(heap)
        if stamp != version[link] or counts[link] == 0:
            continue
        if share < 0.0:
            share = 0.0
        for flow in link_flows[link]:
            if frozen[flow]:
                continue
            frozen[flow] = True
            rates[flow] = share
            remaining -= 1
            for other in flow_links[flow]:
                residual[other] -= share
                counts[other] -= 1
                if other != link and counts[other] > 0:
                    version[other] += 1
                    updated = residual[other] / counts[other]
                    heapq.heappush(
                        heap,
                        (updated if updated > 0.0 else 0.0, other,
                         version[other]),
                    )
        version[link] += 1
    return rates


def _dense_progressive_fill(
    capacities: np.ndarray, incidence: np.ndarray
) -> np.ndarray:
    """Progressive filling on a small *dense* ``(L, F)`` 0/1 matrix.

    Same algorithm (and bit-identical rounds) as
    :func:`progressive_filling_rates`; used by the incremental solver's
    compacted sub-solve, where the per-round cost is dominated by
    dispatch overhead rather than arithmetic.
    """
    num_links, num_flows = incidence.shape
    rates = np.zeros(num_flows)
    if num_flows == 0 or num_links == 0:
        return rates
    unfrozen = np.ones(num_flows, dtype=bool)
    residual = capacities.copy()
    counts = incidence.sum(axis=1)
    for _ in range(num_links + 1):
        if not unfrozen.any():
            break
        contended = counts > 0.5
        if not contended.any():
            break
        share = np.full(num_links, np.inf)
        share[contended] = residual[contended] / counts[contended]
        best = share.min()
        bottleneck = share <= best
        hits = bottleneck @ incidence
        freeze = unfrozen & (hits > 0.5)
        rates[freeze] = best
        frozen_per_link = incidence @ freeze
        residual = np.maximum(0.0, residual - frozen_per_link * best)
        counts = counts - frozen_per_link
        unfrozen &= ~freeze
    return rates


#: Relative slack used by the verification pass when testing link
#: saturation and per-link rate maximality.  Quantities that are equal
#: in exact arithmetic differ here only by accumulated rounding
#: (~1e-13 relative between aggregate re-syncs), far below this slack;
#: genuine level gaps in any non-degenerate workload sit far above it.
_CHECK_RTOL = 1e-9


class IncrementalFairShare:
    """Incremental max-min solver with remove-flow deltas.

    Holds the ``(L, F)`` flow--link incidence matrix fixed and maintains
    the max-min fair allocation for the *active* subset of its columns,
    updating it in place as flows depart (complete) instead of
    re-running progressive filling from scratch.

    Each delta re-solves only the affected link/flow *frontier*: the
    departing flows' capacity is released on their links, and
    progressive filling re-runs over just the active
    flows sharing a link with them, against the residual capacity left
    by everyone else.  The repaired allocation is then *verified* with
    the water-filling optimality condition -- a feasible allocation is
    the (unique) max-min allocation iff every flow crosses a saturated
    link on which its rate is maximal -- checked only over links whose
    state changed, since a flow whose witness link is untouched keeps
    it.  If any flow lacks a witness, the frontier expands to include
    the violators and their link neighbours and the repair re-runs;
    after :attr:`MAX_REPAIR_ROUNDS` expansions the solver falls back to
    a full re-solve, so exactness never rests on the frontier
    heuristic -- only the cost does.

    Each update therefore costs ``O(nnz touched)`` amortized solve work
    -- the gather/solve/verify passes are proportional to the entries
    incident to the frontier -- plus ``O(F + L)`` boolean-mask
    bookkeeping per event, against ``O(rounds * nnz)`` for a full
    re-solve per event.  The per-link consumed-capacity aggregate is
    maintained incrementally and re-synchronized from scratch every
    :attr:`SYNC_INTERVAL` events so floating-point drift cannot
    accumulate over long simulations.

    Used by :class:`repro.sim.events.FlowEventEngine` (and through it
    :func:`repro.sim.fluid.simulate_phase`) to make staggered phases --
    every flow completing at a distinct time -- affordable.

    Example -- removing a flow can *lower* another flow's rate, and the
    incremental solver tracks this exactly.  Flow 0 shares link 0
    (capacity 4) with flow 1; flow 1 also crosses link 1 (capacity 10)
    shared with flow 2:

    >>> import numpy as np
    >>> from scipy import sparse
    >>> from repro.perf.fairshare import IncrementalFairShare
    >>> incidence = sparse.csr_matrix(
    ...     np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    ... )
    >>> solver = IncrementalFairShare(np.array([4.0, 10.0]), incidence)
    >>> solver.rates
    array([2., 2., 8.])
    >>> solver.remove_flows([0])
    >>> solver.rates  # flow 1 rises to 4, squeezing flow 2 down to 6
    array([0., 4., 6.])
    """

    #: Events between full recomputations of the per-link aggregate.
    SYNC_INTERVAL = 256

    #: Largest dense ``links x flows`` sub-problem the compacted refill
    #: will materialize; bigger resolve sets fall back to the sparse
    #: kernel (identical result, higher per-round constant).
    DENSE_CELL_LIMIT = 262_144

    #: Sub-problems with at most this many (flow, link) incidences use
    #: the scalar heap fill -- below this size, Python-loop water-
    #: filling beats NumPy's per-op dispatch overhead.
    SCALAR_NNZ_LIMIT = 1_024

    #: Verify/re-solve rounds before giving up and re-solving from
    #: scratch.  Each round is cheap (gathers proportional to the
    #: frontier), so a generous bound costs nothing in the common case.
    MAX_REPAIR_ROUNDS = 8

    def __init__(
        self,
        capacities: np.ndarray,
        incidence: sparse.csr_matrix,
        active: Optional[np.ndarray] = None,
    ):
        self.capacities = np.asarray(capacities, dtype=float)
        self._incidence = incidence.tocsr()
        self._incidence_t = self._incidence.T.tocsr()
        # Raw CSR arrays (link -> flows and flow -> links); every
        # per-event gather works on these directly because scipy's
        # fancy row indexing costs more than the whole sub-solve.
        self._i_indptr = self._incidence.indptr
        self._i_indices = self._incidence.indices
        self._it_indptr = self._incidence_t.indptr
        self._it_indices = self._incidence_t.indices
        self.num_links, self.num_flows = self._incidence.shape
        if np.any(np.diff(self._it_indptr) == 0):
            raise ValueError(
                "every flow must cross at least one link (found an "
                "all-zero incidence column)"
            )
        if active is None:
            self._active = np.ones(self.num_flows, dtype=bool)
        else:
            self._active = np.asarray(active, dtype=bool).copy()
        self._rates = np.zeros(self.num_flows)
        self._active_count = int(self._active.sum())
        self._link_consumed = np.zeros(self.num_links)
        #: Cached bottleneck witness link per flow (-1 = unknown); see
        #: :meth:`_assign_witnesses`.
        self._witness = np.full(self.num_flows, -1, dtype=np.int64)
        self._events_since_sync = 0
        start = np.flatnonzero(self._active)
        if start.size:
            self._refill(start)
            self._assign_witnesses(start)

    # -- public views --------------------------------------------------
    @property
    def rates(self) -> np.ndarray:
        """Current ``(F,)`` max-min rate vector (copy; inactive = 0)."""
        return self._rates.copy()

    @property
    def active(self) -> np.ndarray:
        """Current ``(F,)`` boolean active mask (copy)."""
        return self._active.copy()

    def rates_view(self) -> np.ndarray:
        """The live rate vector (no copy). Callers must not mutate it."""
        return self._rates

    # -- deltas --------------------------------------------------------
    def remove_flows(self, indices: Sequence[int]) -> None:
        """Deactivate ``indices`` and repair the allocation in place.

        The departing flows' consumption is released on their links,
        then flows whose cached witness sat on one of those links are
        re-verified and re-solved as needed (see class docstring).
        Already-inactive indices are ignored, as are duplicates within
        one call (the aggregate must be updated once per flow).
        """
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        idx = idx[self._active[idx]]
        if idx.size == 0:
            return
        bulk = self._bulk_delta(idx.size)
        self._active_count -= idx.size
        if bulk:
            self._active[idx] = False
            self._rates[idx] = 0.0
            self.recompute()
            return
        link_ids, lens = self._gather_links(idx)
        np.subtract.at(
            self._link_consumed, link_ids, np.repeat(self._rates[idx], lens)
        )
        self._active[idx] = False
        self._rates[idx] = 0.0
        self._witness[idx] = -1
        self._repair(link_ids)
        self._tick()

    def recompute(self) -> None:
        """Full from-scratch re-solve (drops all incremental state)."""
        self._rates[:] = 0.0
        self._sync_aggregates()
        start = np.flatnonzero(self._active)
        if start.size:
            self._refill(start)
            self._witness[start] = -1
            self._assign_witnesses(start)

    # -- internals -----------------------------------------------------
    def _bulk_delta(self, delta_size: int) -> bool:
        """Whether a delta is so large that frontier repair cannot win.

        A batch that removes a sizeable fraction of the active
        set perturbs most of the allocation anyway (symmetric phases
        complete in a handful of huge batches), so a single full
        re-solve is cheaper than repairing an almost-global frontier.
        """
        return delta_size * 4 > max(self._active_count, 1)

    def _repair(self, touched_links: np.ndarray) -> None:
        """Re-verify flows whose witness links changed; re-solve failures.

        ``touched_links`` are the links whose consumption, membership,
        or member rates just changed.  Flows witnessing an untouched
        link are provably still optimal (the link's saturation and rate
        profile are unchanged), so each round only re-checks flows whose
        witness is stale, re-solves the ones that fail, and marks the
        links of flows whose rate *actually moved* as the next round's
        touched set -- a refill that reproduces a flow's old rate
        bit-for-bit leaves its links' state untouched and must not
        cascade.  A frontier that violates repeatedly expands to its
        link neighbours; :attr:`MAX_REPAIR_ROUNDS` rounds without
        convergence trigger a full re-solve, so exactness never rests
        on the frontier heuristic -- only the cost does.
        """
        touched = np.zeros(self.num_links, dtype=bool)
        touched[touched_links] = True
        prev = np.zeros(self.num_flows, dtype=bool)
        for _ in range(self.MAX_REPAIR_ROUNDS):
            stale = self._active & (
                (self._witness < 0) | touched[self._witness]
            )
            cand = np.flatnonzero(stale)
            if cand.size == 0:
                return
            violators = self._assign_witnesses(cand)
            if violators.size == 0:
                return
            if prev.any() and not np.any(~prev[violators]):
                # Re-solving the same set again cannot help: widen to
                # every active flow sharing a link with a violator.
                bad_links, _ = self._gather_links(violators)
                flow_ids, _ = self._gather_flows(
                    np.flatnonzero(self._mask_links(bad_links))
                )
                prev[flow_ids] = True
            prev[violators] = True
            frontier = np.flatnonzero(prev & self._active)
            changed = self._refill(frontier)
            self._witness[changed] = -1
            c_links, _ = self._gather_links(changed)
            touched[:] = False
            touched[c_links] = True
        self.recompute()

    def _mask_links(self, link_ids: np.ndarray) -> np.ndarray:
        mask = np.zeros(self.num_links, dtype=bool)
        mask[link_ids] = True
        return mask

    def _assign_witnesses(self, cand: np.ndarray) -> np.ndarray:
        """Find a bottleneck witness for each of ``cand``; cache or fail.

        A witness for flow ``f`` is a crossed link that is saturated and
        on which ``f``'s rate is maximal among active flows -- the
        water-filling optimality certificate.  Flows with a witness get
        it cached in ``self._witness``; the rest are returned as
        violators for the repair loop to re-solve.
        """
        link_ids, lens = self._gather_links(cand)
        links = np.flatnonzero(self._mask_links(link_ids))
        lmap = np.empty(self.num_links, dtype=np.int64)
        lmap[links] = np.arange(links.size)
        inverse = lmap[link_ids]
        # Per-link max rate over the links the candidates cross
        # (inactive flows hold rate 0, so no masking is needed).
        flow_ids, flow_lens = self._gather_flows(links)
        seg = np.concatenate(([0], np.cumsum(flow_lens)[:-1]))
        max_rate = np.maximum.reduceat(self._rates[flow_ids], seg)
        caps = self.capacities[links]
        saturated = self._link_consumed[links] >= caps - (
            _CHECK_RTOL * caps + _EPS
        )
        cand_rates = np.repeat(self._rates[cand], lens)
        ok = saturated[inverse] & (
            cand_rates >= max_rate[inverse] * (1.0 - _CHECK_RTOL) - _EPS
        )
        seg_c = np.concatenate(([0], np.cumsum(lens)[:-1]))
        has_witness = np.logical_or.reduceat(ok, seg_c)
        total = ok.size
        first = np.minimum.reduceat(
            np.where(ok, np.arange(total), total), seg_c
        )
        passed = cand[has_witness]
        self._witness[passed] = link_ids[first[has_witness]]
        violators = cand[~has_witness]
        self._witness[violators] = -1
        return violators

    def _gather_flows(
        self, links: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated flow ids of ``links`` plus per-link lengths."""
        starts = self._i_indptr[links]
        lens = self._i_indptr[links + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=self._i_indices.dtype), lens
        offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        return self._i_indices[np.repeat(starts, lens) + offsets], lens

    def _gather_links(
        self, idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated link ids of flows ``idx`` plus per-flow lengths.

        Equivalent to fancy-indexing rows of ``incidence.T`` but built
        from the raw CSR arrays: scipy's ``__getitem__`` costs more per
        event than the entire compacted sub-solve.
        """
        starts = self._it_indptr[idx]
        lens = self._it_indptr[idx + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=self._it_indices.dtype), lens
        offsets = np.arange(total) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        return self._it_indices[np.repeat(starts, lens) + offsets], lens

    def _refill(self, resolve_idx: np.ndarray) -> np.ndarray:
        """Re-run progressive filling over just the ``resolve_idx`` columns.

        The kept flows' consumption is subtracted from capacity, so the
        sub-solve sees exactly the residual network the global algorithm
        would hand to these rounds.  The sub-problem is compacted to the
        links the resolved flows actually cross and solved densely
        (small resolve sets are the common case; a handful of dense
        matvecs beats scipy's sparse dispatch overhead by an order of
        magnitude), falling back to the sparse kernel past
        :attr:`DENSE_CELL_LIMIT` cells.

        Returns the subset of ``resolve_idx`` whose rate moved beyond
        float noise -- the flows whose links the repair loop must treat
        as touched.  A sub-solve over unchanged inputs reproduces its
        old rates bit-for-bit, so the comparison needs no tolerance
        beyond guarding aggregate drift.
        """
        k = resolve_idx.size
        if k == 0:
            return resolve_idx
        link_ids, lens = self._gather_links(resolve_idx)
        links = np.flatnonzero(self._mask_links(link_ids))
        if link_ids.size <= self.SCALAR_NNZ_LIMIT:
            return self._refill_scalar(resolve_idx, link_ids, lens, links)
        if links.size * k > self.DENSE_CELL_LIMIT:
            return self._refill_sparse(resolve_idx)
        lmap = np.empty(self.num_links, dtype=np.int64)
        lmap[links] = np.arange(links.size)
        dense = np.zeros((links.size, k))
        dense[lmap[link_ids], np.repeat(np.arange(k), lens)] = 1.0
        old = self._rates[resolve_idx]
        consumed = self._link_consumed[links] - dense @ old
        residual = np.maximum(0.0, self.capacities[links] - consumed)
        new_rates = _dense_progressive_fill(residual, dense)
        self._rates[resolve_idx] = new_rates
        self._link_consumed[links] = consumed + dense @ new_rates
        return resolve_idx[self._moved(old, new_rates)]

    def _refill_scalar(
        self,
        resolve_idx: np.ndarray,
        link_ids: np.ndarray,
        lens: np.ndarray,
        links: np.ndarray,
    ) -> np.ndarray:
        """Heap-based scalar refill for few-dozen-flow sub-problems."""
        lmap = np.empty(self.num_links, dtype=np.int64)
        lmap[links] = np.arange(links.size)
        local = lmap[link_ids].tolist()
        old = self._rates[resolve_idx].tolist()
        residual = (
            self.capacities[links] - self._link_consumed[links]
        ).tolist()
        flow_links: List[List[int]] = []
        pos = 0
        for flow, length in enumerate(lens.tolist()):
            mine = local[pos: pos + length]
            pos += length
            flow_links.append(mine)
            rate = old[flow]
            for link in mine:
                residual[link] += rate
        for link in range(len(residual)):
            if residual[link] < 0.0:
                residual[link] = 0.0
        new_rates = _heap_progressive_fill(residual, flow_links)
        delta = [0.0] * links.size
        for flow, mine in enumerate(flow_links):
            diff = new_rates[flow] - old[flow]
            if diff != 0.0:
                for link in mine:
                    delta[link] += diff
        self._rates[resolve_idx] = new_rates
        self._link_consumed[links] += delta
        return resolve_idx[
            self._moved(np.asarray(old), np.asarray(new_rates))
        ]

    def _refill_sparse(self, resolve_idx: np.ndarray) -> np.ndarray:
        """Sparse-kernel refill for resolve sets too big to densify."""
        sub_t = self._incidence_t[resolve_idx]
        sub = sub_t.T.tocsr()
        old = self._rates[resolve_idx].copy()
        self._link_consumed -= sub @ old
        residual = np.maximum(0.0, self.capacities - self._link_consumed)
        new_rates = progressive_filling_rates(
            residual, sub, incidence_t=sub_t
        )
        self._rates[resolve_idx] = new_rates
        self._link_consumed += sub @ new_rates
        return resolve_idx[self._moved(old, new_rates)]

    @staticmethod
    def _moved(old: np.ndarray, new: np.ndarray) -> np.ndarray:
        scale = np.maximum(np.abs(old), np.abs(new))
        return np.abs(new - old) > 1e-13 * scale

    def _tick(self) -> None:
        self._events_since_sync += 1
        if self._events_since_sync >= self.SYNC_INTERVAL:
            self._sync_aggregates()

    def _sync_aggregates(self) -> None:
        active = self._active.astype(float)
        self._link_consumed = self._incidence @ (self._rates * active)
        self._events_since_sync = 0
