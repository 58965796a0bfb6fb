"""Max-min fair fluid phases: the phase runner over the event engine.

Rate allocation follows the textbook progressive-filling algorithm:
starting from zero, all flows' rates grow together; when a link
saturates, every flow crossing it freezes at its fair share and the
remaining flows keep growing.  The result is the unique max-min fair
allocation, recomputed whenever the active flow set changes.

:func:`simulate_phase` compiles its flows once into a
:class:`repro.sim.flows.FlowSet` -- rows in (src, dst) order over the
whole capacity table (:func:`compile_phase`) -- and runs it on the
array-backed :class:`repro.sim.events.FlowEventEngine`, which re-solves
the sparse flow--link incidence with
:func:`repro.perf.fairshare.progressive_filling_rates` per event batch;
a phase whose completions come one flow at a time (a staggered
workload, every flow finishing at a distinct time) hands over to the
incremental solver (:class:`repro.perf.fairshare.IncrementalFairShare`)
instead.  The OCS-reconfig simulator (:mod:`repro.sim.reconfig`) and
the shared-cluster kernel (:mod:`repro.sim.cluster`) compile through
the same :meth:`~repro.sim.flows.FlowSet.from_paths`.

The seed's dict-of-flows allocators and event loop are test oracles in
:mod:`repro.oracles` (``FluidNetwork``, ``ReferenceFluidNetwork``,
``simulate_phase_reference``), which no runtime module imports.

:func:`simulate_phase` runs a set of flows that all start at time zero
to completion, returning the makespan -- the building block for the
paper's no-overlap iteration-time model (Eq. 1 in section 5.4).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.sim.events import FlowEventEngine
from repro.sim.flows import Flow, FlowSet, Link


def compile_phase(
    capacities: Dict[Link, float],
    paths: Sequence[Sequence[int]],
    sizes_bits: Sequence[float],
) -> FlowSet:
    """One phase's flows as a :class:`~repro.sim.flows.FlowSet`.

    Rows follow the whole capacity table in (src, dst) order: the
    incremental solver's repair ties follow row order, and its
    hand-over results are pinned in this one.
    """
    return FlowSet.from_paths(paths, sizes_bits, sorted(capacities))


def simulate_phase(
    capacities: Dict[Link, float],
    flows: Sequence[Flow],
    include_propagation: bool = True,
) -> float:
    """Run flows that all start at t=0 to completion; return the makespan.

    Fully array-based: the flow set is compiled once
    (:func:`compile_phase`) and driven by
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
        Flows to run; ``flow.remaining_bits`` is zeroed on return and
        ``flow.rate_bps`` ends at the rate held during the final
        completion event.
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
    time CDFs.
    """
    if not flows:
        return 0.0, np.empty(0)
    engine = FlowEventEngine(
        capacities,
        compile_phase(
            capacities,
            [flow.path for flow in flows],
            [flow.size_bits for flow in flows],
        ),
    )
    makespan = engine.run()
    for flow, rate in zip(flows, engine.last_completion_rates.tolist()):
        flow.remaining_bits = 0.0
        flow.rate_bps = rate
    if include_propagation:
        makespan += max(flow.propagation_delay_s for flow in flows)
    return makespan, engine.completion_times
