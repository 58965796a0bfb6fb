"""Max-min fair fluid phases: the phase runner over the event engine.

Rate allocation follows the textbook progressive-filling algorithm:
starting from zero, all flows' rates grow together; when a link
saturates, every flow crossing it freezes at its fair share and the
remaining flows keep growing.  The result is the unique max-min fair
allocation, recomputed whenever the active flow set changes.

:func:`simulate_phase` drives the array-backed
:class:`repro.sim.events.FlowEventEngine`, which lowers the flow set
once to a sparse flow--link incidence matrix and re-solves it with
:func:`repro.perf.fairshare.progressive_filling_rates` per event batch;
a phase whose completions come one flow at a time (a staggered
workload, every flow finishing at a distinct time) hands over to the
incremental solver (:class:`repro.perf.fairshare.IncrementalFairShare`)
instead.  The OCS-reconfig simulator (:mod:`repro.sim.reconfig`) runs
on the same kernel.

The seed's dict-of-flows allocators and event loop are test oracles in
:mod:`repro.oracles` (``FluidNetwork``, ``ReferenceFluidNetwork``,
``simulate_phase_reference``), which no runtime module imports.

:func:`simulate_phase` runs a set of flows that all start at time zero
to completion, returning the makespan -- the building block for the
paper's no-overlap iteration-time model (Eq. 1 in section 5.4).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.sim.events import FlowEventEngine
from repro.sim.flows import Flow, Link


def simulate_phase(
    capacities: Dict[Link, float],
    flows: Sequence[Flow],
    include_propagation: bool = True,
) -> float:
    """Run flows that all start at t=0 to completion; return the makespan.

    Fully array-based: the flow set is lowered once to a sparse
    incidence matrix and driven by
    :class:`repro.sim.events.FlowEventEngine`.  Each step completes the
    whole batch of flows finishing within
    :data:`repro.sim.events.TIME_QUANTUM` (1 ns) of the earliest
    completion; time advances by the *latest* completion of the merged
    batch, so the quantum only pads the clock when genuinely
    simultaneous completions are merged, never per step, and the
    makespan is exact for isolated completions.

    Parameters
    ----------
    capacities:
        Link -> bits/s table; must cover every link on every flow path.
    flows:
        Flows to run; ``flow.remaining_bits`` is reset to the full size
        and zeroed on return, ``flow.rate_bps`` ends at the rate held
        during the final completion event.
    include_propagation:
        Add the worst per-hop latency across flows to the makespan
        (flows are long; the paper's 1 us/hop only matters for the
        reconfiguration studies).

    Returns
    -------
    Phase makespan in seconds (plus worst-case propagation delay when
    requested).

    Example -- two flows share one 8 Gb/s link; the short one finishes
    at 0.5 s, the long one takes the whole link afterwards:

    >>> from repro.sim.flows import Flow
    >>> from repro.sim.fluid import simulate_phase
    >>> flows = [Flow(path=(0, 1), size_bits=2e9),
    ...          Flow(path=(0, 1), size_bits=6e9)]
    >>> simulate_phase({(0, 1): 8e9}, flows, include_propagation=False)
    1.0
    """
    makespan, _ = simulate_phase_completions(
        capacities, flows, include_propagation
    )
    return makespan


def simulate_phase_completions(
    capacities: Dict[Link, float],
    flows: Sequence[Flow],
    include_propagation: bool = True,
):
    """:func:`simulate_phase` plus per-flow completion times.

    Returns ``(makespan, completion_times)`` where ``completion_times``
    is one absolute completion time (seconds since phase start) per
    flow, in ``flows`` order -- the raw material for flow-completion-
    time CDFs.  Used by :mod:`repro.sim.network_sim`.
    """
    if not flows:
        return 0.0, np.empty(0)
    for flow in flows:
        flow.remaining_bits = float(flow.size_bits)
    engine = FlowEventEngine(capacities, flows)
    makespan = engine.run()
    final_rates = engine.last_completion_rates
    max_propagation = 0.0
    for flow, rate in zip(flows, final_rates):
        flow.remaining_bits = 0.0
        flow.rate_bps = float(rate)
        if include_propagation:
            max_propagation = max(max_propagation, flow.propagation_delay_s)
    return makespan + max_propagation, engine.completion_times


def phase_link_bytes(flows: Iterable[Flow]) -> Dict[Link, float]:
    """Total bytes each link carries for a flow set (Figure 15's CDF)."""
    totals: Dict[Link, float] = {}
    for flow in flows:
        per_link = flow.size_bits / 8.0
        for link in flow.links:
            totals[link] = totals.get(link, 0.0) + per_link
    return totals
