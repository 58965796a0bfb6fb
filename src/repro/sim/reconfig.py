"""Reconfigurable-fabric simulation: OCS-reconfig and SiP-ML (section 5.7).

These fabrics rebuild their circuits *during* training from periodically
measured demand (every 50 ms in the paper), paying the technology's
reconfiguration latency on each change.  Because FlexFlow's strategy
search is unaware of reconfigurability, the heuristic only sees the
currently unsatisfied demand -- which is exactly why OCS-reconfig
mispredicts around AllReduce phase boundaries and performs poorly in
Figure 11, an effect this simulator reproduces.

The simulation loop per epoch:

1. Snapshot the unsatisfied demand matrix.
2. Run the circuit heuristic (Algorithm 5 with exponential discount for
   OCS-reconfig, unit discount for SiP-ML per Appendix F).
3. Pause all transfers for the reconfiguration latency.
4. Serve flows over the new circuits with max-min fair rates -- directly
   connected pairs only when host-based forwarding is disabled
   (OCS-reconfig-noFW / SiP-ML), shortest-path multi-hop otherwise
   (OCS-reconfig-FW) -- until the epoch ends or demand drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ocs_reconfig import exponential_discount, ocs_reconfig, unit_discount
from repro.network.topology import DirectConnectTopology
from repro.perf.fairshare import progressive_filling_rates
from repro.sim.flows import FlowSet

Link = Tuple[int, int]
_EPS_BYTES = 1.0
#: Rate floor (bits/s) and relative completion slack, as in the fluid
#: simulator.
_EPS = 1e-12


@dataclass
class ReconfigEpochStats:
    """Bookkeeping for one reconfiguration epoch."""

    start_s: float
    reconfig_latency_s: float
    served_bytes: float
    active_links: int


class ReconfigurableFabricSimulator:
    """Drains a demand matrix through a periodically reconfigured fabric.

    Parameters
    ----------
    num_servers, degree, link_bandwidth_bps:
        Fabric dimensions.
    reconfiguration_latency_s:
        Pause paid on every topology change (10 ms for 3D-MEMS OCS,
        25 us for SiP-ML's silicon photonics).
    demand_epoch_s:
        How often demand is re-estimated and circuits rescheduled.
    host_forwarding:
        OCS-reconfig-FW vs OCS-reconfig-noFW / SiP-ML.
    sipml_mode:
        Use the unit discount (Appendix F's SiP-ML objective).
    """

    def __init__(
        self,
        num_servers: int,
        degree: int,
        link_bandwidth_bps: float,
        reconfiguration_latency_s: float = 10e-3,
        demand_epoch_s: float = 50e-3,
        host_forwarding: bool = True,
        sipml_mode: bool = False,
    ):
        if demand_epoch_s <= 0:
            raise ValueError("demand epoch must be positive")
        if reconfiguration_latency_s < 0:
            raise ValueError("reconfiguration latency must be >= 0")
        self.num_servers = num_servers
        self.degree = degree
        self.link_bandwidth_bps = link_bandwidth_bps
        self.reconfiguration_latency_s = reconfiguration_latency_s
        self.demand_epoch_s = demand_epoch_s
        self.host_forwarding = host_forwarding
        self.sipml_mode = sipml_mode
        self.epochs: List[ReconfigEpochStats] = []
        self.name = "SiP-ML" if sipml_mode else (
            "OCS-reconfig-FW" if host_forwarding else "OCS-reconfig-noFW"
        )

    # ------------------------------------------------------------------
    def drain_demand(
        self, demand_bytes: np.ndarray, max_time_s: float = 3600.0
    ) -> float:
        """Time to fully serve ``demand_bytes`` through the fabric."""
        demand = np.array(demand_bytes, dtype=float, copy=True)
        np.fill_diagonal(demand, 0.0)
        now = 0.0
        self.epochs = []
        while (demand > _EPS_BYTES).any():
            if now > max_time_s:
                raise RuntimeError(
                    f"demand did not drain within {max_time_s}s; "
                    f"{demand.sum():.0f} bytes left"
                )
            topology = self._schedule_circuits(demand)
            now += self.reconfiguration_latency_s
            served, elapsed = self._serve_epoch(topology, demand)
            self.epochs.append(
                ReconfigEpochStats(
                    start_s=now,
                    reconfig_latency_s=self.reconfiguration_latency_s,
                    served_bytes=served,
                    active_links=topology.num_links(),
                )
            )
            now += elapsed
        return now

    def iteration_time(
        self,
        mp_demand: np.ndarray,
        allreduce_demand: np.ndarray,
        compute_s: float,
    ) -> float:
        """Iteration time with the paper's no-overlap phase model.

        The two communication phases are drained sequentially -- the
        demand estimator cannot see the AllReduce phase while MP flows
        are active, which is the mis-estimation penalty of section 5.3.
        """
        mp_s = (
            self.drain_demand(mp_demand) if mp_demand.sum() > 0 else 0.0
        )
        allreduce_s = (
            self.drain_demand(allreduce_demand)
            if allreduce_demand.sum() > 0
            else 0.0
        )
        return compute_s + mp_s + allreduce_s

    # ------------------------------------------------------------------
    def _schedule_circuits(self, demand: np.ndarray) -> DirectConnectTopology:
        discount = unit_discount if self.sipml_mode else exponential_discount
        return ocs_reconfig(
            demand,
            self.degree,
            discount=discount,
            ensure_connected=self.host_forwarding,
        )

    def _serve_epoch(
        self, topology: DirectConnectTopology, demand: np.ndarray
    ) -> Tuple[float, float]:
        """Serve demand over fixed circuits for at most one epoch.

        Returns (bytes served, elapsed seconds).  Mutates ``demand``.

        The epoch's flows compile into one
        :class:`~repro.sim.flows.FlowSet` over the circuits and share
        an active mask; max-min rates are re-solved only after a
        completion.  Each step advances to the earliest completion plus
        a 1 ns pad (capped at the epoch's end), and every served byte is
        taken off its pair's demand.
        """
        paths, srcs, dsts = self._build_flows(topology, demand)
        if not paths:
            return 0.0, self.demand_epoch_s
        edges = list(topology.edges())
        flows = FlowSet.from_paths(
            paths,
            demand[srcs, dsts] * 8.0,
            [(src, dst) for src, dst, _ in edges],
        )
        incidence, incidence_t = flows.matrices()
        cap_vec = np.array(
            [count * self.link_bandwidth_bps for _, _, count in edges]
        )
        remaining = flows.sizes.copy()
        done_at = _EPS * np.maximum(1.0, remaining)
        active = np.ones(len(paths), dtype=bool)
        rates: Optional[np.ndarray] = None  # None: stale after a completion
        elapsed = 0.0
        served = 0.0
        while elapsed < self.demand_epoch_s:
            live = np.flatnonzero(active)
            if live.size == 0:
                break
            if rates is None:
                rates = progressive_filling_rates(
                    cap_vec, incidence, active, incidence_t=incidence_t
                )
            rate = rates[live]
            before = remaining[live]
            moving = rate > _EPS
            if not moving.any():
                break
            dt = float((before[moving] / rate[moving]).min())
            dt = min(dt + 1e-9, self.demand_epoch_s - elapsed)
            after = before - rate * dt
            finished = after <= done_at[live]
            after[finished] = 0.0
            remaining[live] = after
            if finished.any():
                active[live[finished]] = False
                rates = None
            elapsed += dt
            moved = before - after
            step = moved > 0
            if step.any():
                moved_bytes = moved[step] / 8.0
                # Add in flow order, one term at a time (np.sum would
                # add pairwise), so the total matches a scalar loop.
                served = float(
                    np.add.accumulate(np.append(served, moved_bytes))[-1]
                )
                rows, cols = srcs[live[step]], dsts[live[step]]
                left = demand[rows, cols] - moved_bytes
                demand[rows, cols] = np.where(left > 0.0, left, 0.0)
        return served, elapsed

    def _build_flows(
        self, topology: DirectConnectTopology, demand: np.ndarray
    ) -> Tuple[List[Tuple[int, ...]], np.ndarray, np.ndarray]:
        """Paths of every servable pair, with their sources and sinks.

        Off-diagonal pairs (``drain_demand`` zeroes the diagonal)
        holding more than ``_EPS_BYTES`` are taken in row-major order.
        A pair rides its direct circuit; without one it takes
        the shortest multi-hop path under host forwarding and is
        skipped otherwise (blocked until a future circuit appears).
        """
        srcs, dsts = np.nonzero(demand > _EPS_BYTES)
        trees: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        paths: List[Tuple[int, ...]] = []
        keep: List[int] = []
        for index, (src, dst) in enumerate(zip(srcs.tolist(), dsts.tolist())):
            if topology.has_link(src, dst):
                path = (src, dst)
            elif self.host_forwarding:
                tree = trees.get(src)
                if tree is None:
                    tree = trees[src] = topology.shortest_paths_from(src)
                path = tree.get(dst)
                if path is None:
                    continue
            else:
                continue
            paths.append(path)
            keep.append(index)
        return paths, srcs[keep], dsts[keep]
