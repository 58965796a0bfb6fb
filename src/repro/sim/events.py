"""Event engines for the fluid simulator.

Two layers live here:

* :class:`EventQueue` -- the minimal callback heap used by the full
  (multi-job, reconfigurable) simulator.
* :class:`FlowEventEngine` -- the array-backed flow-completion engine.
  Instead of per-flow Python objects on a heap, it keeps remaining
  bits, start times, and completion times in NumPy arrays, batches
  every event within a 1 ns quantum, and re-solves the max-min
  allocation after each arrival/departure batch with
  :func:`repro.perf.fairshare.progressive_filling_rates`.  Under the
  default ``solver="incremental"`` a phase whose completions start
  arriving one flow at a time hands over to
  :class:`repro.perf.fairshare.IncrementalFairShare`, which repairs the
  allocation per event instead; ``solver="batch"`` never hands over
  (the equivalence baseline).  :func:`repro.sim.fluid.simulate_phase`
  and :mod:`repro.sim.network_sim` are built on it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.fairshare import (
    IncrementalFairShare,
    build_incidence_from_paths,
    progressive_filling_rates,
)

_EPS = 1e-12
#: Events closer in time than this are merged into one batch.
TIME_QUANTUM = 1e-9
#: Consecutive single-flow completion batches after which
#: ``solver="incremental"`` hands the phase over to
#: :class:`IncrementalFairShare` (see :class:`FlowEventEngine`).
HANDOVER_RUN = 2


class EventQueue:
    """Time-ordered callback queue with stable FIFO tie-breaking."""

    def __init__(self):
        self._heap: List[Tuple[float, int, Callable[[], Any]]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, time: float, callback: Callable[[], Any]) -> None:
        if time < self.now - 1e-15:
            raise ValueError(
                f"cannot schedule event at {time} before current time "
                f"{self.now}"
            )
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def schedule_in(self, delay: float, callback: Callable[[], Any]) -> None:
        self.schedule(self.now + delay, callback)

    def next_event_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_due(self, until: float) -> List[Callable[[], Any]]:
        """Pop every event scheduled at or before ``until`` (time-ordered)."""
        due = []
        while self._heap and self._heap[0][0] <= until + 1e-15:
            time, _, callback = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            due.append(callback)
        self.now = max(self.now, until)
        return due

    def run_next(self) -> bool:
        """Advance to and run the earliest event; False if queue is empty."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self.now = time
        callback()
        return True

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class FlowEventEngine:
    """Array-backed arrival/completion engine for one set of fluid flows.

    All per-flow state (remaining bits, start time, completion time,
    rate) lives in NumPy arrays indexed by position in ``flows``; the
    event loop never touches a per-flow Python object.  Each step
    processes one *batch* of events -- either every arrival or every
    completion landing within ``time_quantum`` of the earliest -- and
    re-solves the max-min allocation:

    * ``solver="batch"``: one full progressive-filling solve per event
      batch, the equivalence oracle and benchmark baseline.
    * ``solver="incremental"`` (default): the same full solves while
      completions come in groups, and a hand-over to
      :class:`repro.perf.fairshare.IncrementalFairShare` (amortized
      O(nnz touched) per event) once :data:`HANDOVER_RUN` consecutive
      completion batches each finish a single flow.  The solver is
      built from the active mask at that point and kept for the rest
      of the phase.  Cancellations neither count toward nor reset the
      run.

    The rule is measured, not tuned (docs/architecture.md): on the
    phases co-search produces -- all-to-all MP transfers and AllReduce
    rings, which finish in a few large batches -- a full re-solve is
    about 3x faster than delta repair, and none of them hands over, so
    they match ``"batch"`` bit for bit.  Staggered phases, where every
    flow finishes at a distinct time, hand over after their second
    completion and keep the incremental solver's win.

    Both modes share this exact event loop, so their makespans and
    completion orders agree to floating-point tolerance by
    construction of the solver (see ``tests/test_incremental_fairshare``).

    Parameters
    ----------
    capacities:
        Link -> bits/s table covering every link of every flow path.
    flows:
        :class:`repro.sim.flows.Flow` sequence; paths and sizes are
        read once at construction.
    start_times:
        Optional per-flow arrival times (seconds, >= 0); defaults to
        everything starting at t=0 (a phase).
    solver:
        ``"incremental"`` or ``"batch"`` (see above).
    time_quantum:
        Events closer than this merge into one batch (default 1 ns).
    """

    def __init__(
        self,
        capacities: Dict[Hashable, float],
        flows: Sequence,
        start_times: Optional[Sequence[float]] = None,
        solver: str = "incremental",
        time_quantum: float = TIME_QUANTUM,
    ):
        if solver not in ("incremental", "batch"):
            raise ValueError(
                f"unknown solver {solver!r} (want 'incremental' or 'batch')"
            )
        self.flows = list(flows)
        count = len(self.flows)
        self.solver_kind = solver
        self.time_quantum = float(time_quantum)
        incidence, cap_vec, _ = build_incidence_from_paths(
            [flow.path for flow in self.flows], capacities
        )
        self._incidence = incidence
        self._incidence_t = incidence.T.tocsr()
        self._cap_vec = cap_vec
        self.remaining = np.fromiter(
            (flow.size_bits for flow in self.flows), dtype=float, count=count
        )
        if start_times is None:
            self.start_times = np.zeros(count)
        else:
            self.start_times = np.asarray(start_times, dtype=float).copy()
            if self.start_times.shape != (count,):
                raise ValueError(
                    f"need one start time per flow, got shape "
                    f"{self.start_times.shape} for {count} flows"
                )
            if count and float(self.start_times.min()) < 0.0:
                raise ValueError("start times must be non-negative")
        #: Absolute completion time per flow; NaN until it finishes.
        self.completion_times = np.full(count, np.nan)
        self._active = np.zeros(count, dtype=bool)
        self._cancelled = np.zeros(count, dtype=bool)
        self._arrival_order = np.argsort(self.start_times, kind="stable")
        self._arrival_ptr = 0
        self.now = 0.0
        self._rates = np.zeros(count)
        self._last_completion_rates = np.zeros(count)
        #: Set on hand-over; until then every batch is a full re-solve.
        self._solver: Optional[IncrementalFairShare] = None
        #: Consecutive completion batches that finished a single flow.
        self._single_run = 0

    # -- views ---------------------------------------------------------
    @property
    def rates(self) -> np.ndarray:
        """Current ``(F,)`` rate vector (copy)."""
        return self._rates.copy()

    @property
    def last_completion_rates(self) -> np.ndarray:
        """Rates in force at the most recent completion event (copy)."""
        return self._last_completion_rates.copy()

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self._active)

    def pending_count(self) -> int:
        """Flows that have not yet arrived (and are not cancelled)."""
        pending = self._arrival_order[self._arrival_ptr:]
        return int((~self._cancelled[pending]).sum())

    # -- control -------------------------------------------------------
    def cancel_flows(self, indices: Sequence[int]) -> None:
        """Withdraw flows mid-phase (no completion time is recorded).

        Active flows are removed from the allocation immediately;
        not-yet-arrived flows are dropped from the arrival schedule.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        self._cancelled[idx] = True
        live = idx[self._active[idx]]
        if live.size:
            self._deactivate(live)

    def step(self) -> Optional[Tuple[float, np.ndarray]]:
        """Process the next event batch.

        Returns ``(time, finished_indices)`` -- ``finished_indices`` is
        empty for an arrival batch -- or ``None`` when no events remain.
        Raises ``RuntimeError`` if active flows are deadlocked at rate 0
        with no arrivals left to free capacity.
        """
        while (
            self._arrival_ptr < len(self._arrival_order)
            and self._cancelled[self._arrival_order[self._arrival_ptr]]
        ):
            self._arrival_ptr += 1
        next_arrival: Optional[float] = None
        if self._arrival_ptr < len(self._arrival_order):
            next_arrival = float(
                self.start_times[self._arrival_order[self._arrival_ptr]]
            )
        active_idx = np.flatnonzero(self._active)
        completion_abs: Optional[float] = None
        ttc = None
        if active_idx.size:
            rate = self._rates[active_idx]
            with np.errstate(divide="ignore"):
                ttc = np.where(
                    rate > _EPS,
                    self.remaining[active_idx] / np.maximum(rate, _EPS),
                    np.inf,
                )
            earliest = float(ttc.min())
            if np.isfinite(earliest):
                completion_abs = self.now + earliest
        if completion_abs is None and next_arrival is None:
            if active_idx.size:
                raise RuntimeError(
                    "deadlock: active flows have zero rate; check capacities"
                )
            return None
        if next_arrival is not None and (
            completion_abs is None or next_arrival <= completion_abs
        ):
            return self._arrival_event(active_idx, next_arrival)
        assert ttc is not None
        return self._completion_event(active_idx, ttc, earliest)

    def run(self) -> float:
        """Drain every event; return the time of the last one."""
        count = len(self.flows)
        limit = 2 * count + 4
        steps = 0
        while self.step() is not None:
            steps += 1
            if steps > limit:  # pragma: no cover - safety net
                raise RuntimeError("flow event engine failed to converge")
        return self.now

    # -- internals -----------------------------------------------------
    def _arrival_event(
        self, active_idx: np.ndarray, when: float
    ) -> Tuple[float, np.ndarray]:
        dt = max(when - self.now, 0.0)
        if active_idx.size and dt > 0.0:
            self.remaining[active_idx] -= self._rates[active_idx] * dt
            np.maximum(self.remaining, 0.0, out=self.remaining)
        # An arrival inside the quantum window of a merged completion
        # batch must not rewind the clock.
        self.now = max(self.now, when)
        batch: List[int] = []
        order = self._arrival_order
        while self._arrival_ptr < len(order):
            flow_idx = int(order[self._arrival_ptr])
            if self._cancelled[flow_idx]:
                self._arrival_ptr += 1
                continue
            if self.start_times[flow_idx] > when + self.time_quantum:
                break
            batch.append(flow_idx)
            self._arrival_ptr += 1
        self._activate(np.asarray(batch, dtype=np.int64))
        return self.now, np.empty(0, dtype=np.int64)

    def _completion_event(
        self, active_idx: np.ndarray, ttc: np.ndarray, earliest: float
    ) -> Tuple[float, np.ndarray]:
        done = ttc <= earliest + self.time_quantum
        dt = float(ttc[done].max())
        self.remaining[active_idx] -= self._rates[active_idx] * dt
        finished = active_idx[done]
        self.remaining[finished] = 0.0
        np.maximum(self.remaining, 0.0, out=self.remaining)
        self.now += dt
        self._last_completion_rates = self._rates.copy()
        self._single_run = self._single_run + 1 if finished.size == 1 else 0
        if (
            self._solver is None
            and self.solver_kind == "incremental"
            and self._single_run >= HANDOVER_RUN
            and active_idx.size > finished.size
        ):
            self._active[finished] = False
            self._solver = IncrementalFairShare(
                self._cap_vec, self._incidence, active=self._active
            )
            self._rates = self._solver.rates_view()
        else:
            self._deactivate(finished)
        self.completion_times[finished] = self.now
        return self.now, finished

    def _activate(self, idx: np.ndarray) -> None:
        if idx.size == 0:
            return
        self._active[idx] = True
        if self._solver is not None:
            self._solver.add_flows(idx)
            self._rates = self._solver.rates_view()
        else:
            self._recompute_batch()

    def _deactivate(self, idx: np.ndarray) -> None:
        if idx.size == 0:
            return
        self._active[idx] = False
        if self._solver is not None:
            self._solver.remove_flows(idx)
            self._rates = self._solver.rates_view()
        else:
            self._recompute_batch()

    def _recompute_batch(self) -> None:
        self._rates = progressive_filling_rates(
            self._cap_vec,
            self._incidence,
            self._active,
            incidence_t=self._incidence_t,
        )
