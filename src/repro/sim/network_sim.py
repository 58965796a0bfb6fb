"""Training-iteration simulation on a fabric.

Follows the paper's no-overlap iteration model (section 5.4, Eq. 1):

    T_iter = T_compute + T_MP + T_AllReduce

with both communication phases simulated by the max-min fluid network,
so host-based forwarding, path length, and load imbalance all show up
as they do in the paper's packet simulations.  Traffic lowers straight
to paths and sizes (:func:`traffic_paths`), and each phase compiles
them into one :class:`repro.sim.flows.FlowSet`
(:func:`repro.sim.fluid.compile_phase`) driven by the
array-backed :class:`repro.sim.events.FlowEventEngine` (full
max-min re-solves per event batch, handing over to the incremental
solver only when completions come one flow at a time), which also
yields per-flow completion times for tail-latency analysis.

Also defines :class:`TopoOptFabric`, the fabric adapter exposing a
TopologyFinder result (topology + routing + ring plans) to the
simulator, used alongside the switch fabrics of
:mod:`repro.network.fattree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.network.topoopt import TopoOptFabric
from repro.parallel.collectives import allreduce_edge_bytes
from repro.parallel.traffic import TrafficSummary
from repro.sim.events import FlowEventEngine
from repro.sim.flows import PER_HOP_LATENCY_S, Link, matrix_paths
from repro.sim.fluid import compile_phase

Path = Tuple[int, ...]

__all__ = [
    "TopoOptFabric",
    "IterationBreakdown",
    "simulate_iteration",
]


@dataclass
class IterationBreakdown:
    """Timing of one simulated training iteration.

    ``flow_completion_times`` maps phase name (``"mp"``,
    ``"allreduce"``) to the absolute completion time of every flow of
    that phase (seconds since phase start), as reported by the event
    engine -- the raw material for flow-completion-time CDFs.
    """

    compute_s: float
    mp_s: float
    allreduce_s: float
    link_bytes: Dict[Link, float] = field(default_factory=dict)
    flow_completion_times: Dict[str, np.ndarray] = field(
        default_factory=dict
    )

    @property
    def total_s(self) -> float:
        return self.compute_s + self.mp_s + self.allreduce_s

    @property
    def network_s(self) -> float:
        return self.mp_s + self.allreduce_s

    @property
    def network_overhead_fraction(self) -> float:
        """Share of the iteration spent communicating (Figure 3)."""
        total = self.total_s
        return self.network_s / total if total > 0 else 0.0


def _allreduce_paths(
    fabric, traffic: TrafficSummary
) -> Tuple[List[Path], List[float]]:
    """Ring-AllReduce flow paths and sizes (bits), on the fabric's rings."""
    paths: List[Path] = []
    sizes: List[float] = []
    for group in traffic.allreduce_groups:
        if group.size < 2 or group.total_bytes <= 0:
            continue
        ring_paths: List[Tuple[List[int], int]] = []
        if hasattr(fabric, "ring_edge_paths"):
            ring_paths = fabric.ring_edge_paths(group.members)
        if ring_paths:
            for edge_path, num_rings in ring_paths:
                per_edge = allreduce_edge_bytes(
                    group.total_bytes, group.size, num_rings
                )
                paths.append(tuple(edge_path))
                sizes.append(per_edge * 8.0)
        else:
            # Canonical single ring over the fabric's routed paths.
            per_edge = allreduce_edge_bytes(group.total_bytes, group.size, 1)
            members = group.members
            k = len(members)
            for i in range(k):
                src, dst = members[i], members[(i + 1) % k]
                candidates = fabric.paths(src, dst, "allreduce")
                if not candidates:
                    raise ValueError(
                        f"fabric {fabric.name} cannot route ring edge "
                        f"{src}->{dst}"
                    )
                share = per_edge / len(candidates)
                for path in candidates:
                    paths.append(tuple(path))
                    sizes.append(share * 8.0)
    return paths, sizes


def _mp_paths(
    fabric, traffic: TrafficSummary
) -> Tuple[List[Path], List[float]]:
    """Model-parallel flow paths and sizes in bits, ECMP-split."""
    if traffic.mp_matrix.sum() <= 0:
        return [], []
    return matrix_paths(
        traffic.mp_matrix, lambda src, dst: fabric.paths(src, dst, "mp")
    )


def traffic_paths(
    fabric, traffic: TrafficSummary
) -> Tuple[List[Path], List[float]]:
    """Every flow of ``traffic`` on ``fabric``: MP first, then AllReduce."""
    mp_paths, mp_sizes = _mp_paths(fabric, traffic)
    ar_paths, ar_sizes = _allreduce_paths(fabric, traffic)
    return mp_paths + ar_paths, mp_sizes + ar_sizes


def _phase(
    capacities: Dict[Link, float], paths: List[Path], sizes: List[float]
) -> Tuple[float, np.ndarray]:
    """A phase's makespan and per-flow completion times.

    The makespan includes the longest path's propagation delay.
    """
    if not paths:
        return 0.0, np.empty(0)
    engine = FlowEventEngine(
        capacities, compile_phase(capacities, paths, sizes)
    )
    propagation_s = (max(map(len, paths)) - 1) * PER_HOP_LATENCY_S
    return engine.run() + propagation_s, engine.completion_times


def simulate_iteration(
    fabric,
    traffic: TrafficSummary,
    compute_s: float,
    collect_link_bytes: bool = False,
) -> IterationBreakdown:
    """Simulate one training iteration on ``fabric`` (Eq. 1 model)."""
    capacities = fabric.capacities()
    mp_paths, mp_sizes = _mp_paths(fabric, traffic)
    ar_paths, ar_sizes = _allreduce_paths(fabric, traffic)
    link_bytes: Dict[Link, float] = {}
    if collect_link_bytes:
        link_bytes = compile_phase(
            capacities, mp_paths + ar_paths, mp_sizes + ar_sizes
        ).link_bytes()
    mp_s, mp_completions = _phase(capacities, mp_paths, mp_sizes)
    allreduce_s, ar_completions = _phase(capacities, ar_paths, ar_sizes)
    return IterationBreakdown(
        compute_s=compute_s,
        mp_s=mp_s,
        allreduce_s=allreduce_s,
        link_bytes=link_bytes,
        flow_completion_times={
            "mp": mp_completions,
            "allreduce": ar_completions,
        },
    )
