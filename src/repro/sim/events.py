"""The array-backed flow event engine of the fluid simulator.

:class:`FlowEventEngine` runs one phase of a compiled
:class:`repro.sim.flows.FlowSet` -- every flow starts at t = 0 -- with
remaining bits and completion times in NumPy arrays instead of
per-flow Python objects on a heap.  It batches every completion within
a 1 ns quantum and re-solves the max-min allocation after each batch
with :func:`repro.perf.fairshare.progressive_filling_rates`.  A phase
whose completions start arriving one flow at a time hands over to
:class:`repro.perf.fairshare.IncrementalFairShare`, which repairs the
allocation per event instead.  :func:`repro.sim.fluid.simulate_phase`
and :mod:`repro.sim.network_sim` are built on it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.perf.fairshare import (
    IncrementalFairShare,
    progressive_filling_rates,
)
from repro.sim.flows import FlowSet, Link

_EPS = 1e-12
#: Completions closer in time than this are merged into one batch.
TIME_QUANTUM = 1e-9
#: Consecutive single-flow completion batches after which a phase is
#: handed over to :class:`IncrementalFairShare` (see
#: :class:`FlowEventEngine`).
HANDOVER_RUN = 2


class FlowEventEngine:
    """Array-backed completion engine for one phase of fluid flows.

    All per-flow state (remaining bits, completion time, rate) lives in
    NumPy arrays indexed by column of ``flows``; the event loop never
    touches a per-flow Python object.  Every flow starts at t = 0, and
    the allocation is solved once at construction.  Each step
    processes one *batch* -- every completion landing within
    :data:`TIME_QUANTUM` of the earliest -- and re-solves the max-min
    allocation: one full progressive-filling solve per batch while
    completions come in groups, and a hand-over to
    :class:`repro.perf.fairshare.IncrementalFairShare` (amortized
    O(nnz touched) per event) once :attr:`handover_run` consecutive
    batches each finish a single flow.  The solver is built from the
    active mask at that point and kept for the rest of the phase.

    The rule is measured, not tuned (docs/architecture.md): on the
    phases co-search produces -- all-to-all MP transfers and AllReduce
    rings, which finish in a few large batches -- a full re-solve is
    about 3x faster than delta repair, and none of them hands over.
    Staggered phases, where every flow finishes at a distinct time,
    hand over after their second completion and keep the incremental
    solver's win.  The equivalence oracle is an engine that never
    hands over (:class:`repro.oracles.BatchFlowEventEngine`); both run
    this exact event loop, so their makespans and completion orders
    agree to floating-point tolerance by construction of the solver
    (see ``tests/test_incremental_fairshare``).

    Parameters
    ----------
    capacities:
        Link -> bits/s table covering every link of ``flows.links``.
    flows:
        The phase's compiled :class:`~repro.sim.flows.FlowSet`
        (:func:`repro.sim.fluid.compile_phase`).
    """

    #: Consecutive single-flow completion batches that hand a phase over.
    handover_run = HANDOVER_RUN

    def __init__(self, capacities: Dict[Link, float], flows: FlowSet):
        self.flows = flows
        self._incidence, self._incidence_t = flows.matrices()
        self._cap_vec = np.array(
            [capacities[link] for link in flows.links], dtype=float
        )
        self.remaining = flows.sizes.copy()
        #: Absolute completion time per flow; NaN until it finishes.
        self.completion_times = np.full(flows.count, np.nan)
        self._active = np.ones(flows.count, dtype=bool)
        self.now = 0.0
        self._last_completion_rates = np.zeros(flows.count)
        #: Set on hand-over; until then every batch is a full re-solve.
        self._solver: Optional[IncrementalFairShare] = None
        #: Consecutive completion batches that finished a single flow.
        self._single_run = 0
        self._recompute_batch()

    @property
    def last_completion_rates(self) -> np.ndarray:
        """Rates in force at the most recent completion event (copy)."""
        return self._last_completion_rates.copy()

    def step(self) -> Optional[Tuple[float, np.ndarray]]:
        """Complete the next batch of flows.

        Returns ``(time, finished_indices)``, or ``None`` once every
        flow has finished.  Raises ``RuntimeError`` if active flows are
        deadlocked at rate 0.
        """
        active_idx = np.flatnonzero(self._active)
        if not active_idx.size:
            return None
        rate = self._rates[active_idx]
        with np.errstate(divide="ignore"):
            ttc = np.where(
                rate > _EPS,
                self.remaining[active_idx] / np.maximum(rate, _EPS),
                np.inf,
            )
        earliest = float(ttc.min())
        if not np.isfinite(earliest):
            raise RuntimeError(
                "deadlock: active flows have zero rate; check capacities"
            )
        done = ttc <= earliest + TIME_QUANTUM
        dt = float(ttc[done].max())
        self.remaining[active_idx] -= self._rates[active_idx] * dt
        finished = active_idx[done]
        self.remaining[finished] = 0.0
        np.maximum(self.remaining, 0.0, out=self.remaining)
        self.now += dt
        self._last_completion_rates = self._rates.copy()
        self._single_run = self._single_run + 1 if finished.size == 1 else 0
        self._active[finished] = False
        if self._solver is not None:
            self._solver.remove_flows(finished)
        elif (
            self._single_run >= self.handover_run
            and active_idx.size > finished.size
        ):
            self._solver = IncrementalFairShare(
                self._cap_vec, self._incidence, active=self._active
            )
            self._rates = self._solver.rates_view()
        else:
            self._recompute_batch()
        self.completion_times[finished] = self.now
        return self.now, finished

    def run(self) -> float:
        """Complete every flow; return the time of the last batch."""
        limit = self.flows.count + 1
        steps = 0
        while self.step() is not None:
            steps += 1
            if steps > limit:  # pragma: no cover - safety net
                raise RuntimeError("flow event engine failed to converge")
        return self.now

    def _recompute_batch(self) -> None:
        self._rates = progressive_filling_rates(
            self._cap_vec,
            self._incidence,
            self._active,
            incidence_t=self._incidence_t,
        )
