"""Seed reference implementations, kept as test oracles.

Every hot path of this package started as a plain-Python seed version
and was replaced by an array kernel.  The seed versions live on here,
and only here: they are the ground truth the equivalence tests hold
the kernels to, and the reference side of the kernel micro-benchmarks
(:mod:`repro.perf.bench`).  No runtime module imports this one, and no
spec field, parameter or environment variable selects a reference.  A
reference reaches the runtime only by subclassing a runtime class or by
standing in for a class the runtime builds:

* :func:`build_incidence` -- the per-hop dict incidence builder, the
  oracle of :meth:`repro.sim.flows.FlowSet.from_paths`;
* :class:`FluidNetwork` and :class:`ReferenceFluidNetwork` -- the
  dict-of-flows allocators with their :class:`LinkState` bookkeeping;
  :func:`simulate_phase_reference` -- the seed event loop over the
  latter;
* :class:`BatchFlowEventEngine` -- a
  :class:`~repro.sim.events.FlowEventEngine` that never hands a phase
  over to the incremental solver;
* :func:`all_shortest_paths_bfs` and :func:`k_shortest_paths_reference`
  -- the seed per-pair ECMP BFS and mutate-and-restore Yen's algorithm
  on a :class:`~repro.network.topology.DirectConnectTopology`;
* :func:`min_hop_paths_from_source` -- the per-source min-hop path DP,
  the oracle of :func:`repro.perf.graph.min_hop_routes`;
* :func:`dense_lp_assembly` -- the seed dense routing-LP constraints;
* :class:`ReferenceIterationCostModel`, :class:`ReferenceMCMCSearch` and
  :class:`ReferenceAlternatingOptimizer` -- the full-rebuild search
  plane;
* :class:`ReferenceSharedClusterSimulator` and
  :class:`ReferenceScenarioEngine` -- the shared-cluster simulation on
  :class:`ReferenceFluidNetwork`, flows rebuilt every phase.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.cluster.engine import ScenarioEngine
from repro.core.alternating import AlternatingOptimizer
from repro.network.topology import DirectConnectTopology
from repro.parallel.mcmc import MCMCSearch
from repro.parallel.strategy import LayerPlacement, ParallelizationStrategy
from repro.parallel.traffic import TrafficSummary, extract_traffic
from repro.perf.fairshare import progressive_filling_rates
from repro.sim.cluster import SharedClusterSimulator, _JobState
from repro.sim.events import TIME_QUANTUM, FlowEventEngine
from repro.sim.flows import Flow, Link
from repro.sim.network_sim import traffic_paths

_EPS = 1e-12


# ----------------------------------------------------------------------
# Flow allocators and the phase loop
# ----------------------------------------------------------------------

@dataclass
class LinkState:
    """Mutable per-link bookkeeping of :class:`FluidNetwork`."""

    capacity_bps: float
    flows: set = field(default_factory=set)

    def __post_init__(self):
        if self.capacity_bps <= 0:
            raise ValueError("link capacity must be positive")


def build_incidence(
    link_lists: Sequence[Sequence[Hashable]],
    capacities: Dict[Hashable, float],
) -> Tuple[sparse.csr_matrix, np.ndarray, List[Hashable]]:
    """Build the (links x flows) 0/1 incidence matrix for a flow set.

    Parameters
    ----------
    link_lists:
        Per-flow link sequences (``flow.links``).  Duplicate links
        within one flow are counted once, matching the set semantics of
        the reference allocator.
    capacities:
        Link -> capacity table.  Only links actually crossed by a flow
        get a row, so a dense fabric with ``n^2`` idle links costs
        nothing.

    Returns
    -------
    (incidence, cap_vector, link_order):
        CSR incidence matrix, per-row capacities, and the link each row
        corresponds to.

    Raises
    ------
    KeyError
        If a flow crosses a link missing from ``capacities``.
    """
    link_index: Dict[Hashable, int] = {}
    link_order: List[Hashable] = []
    cap_list: List[float] = []
    rows: List[int] = []
    cols: List[int] = []
    for col, links in enumerate(link_lists):
        for link in dict.fromkeys(links):
            row = link_index.get(link)
            if row is None:
                if link not in capacities:
                    raise KeyError(
                        f"flow {col} uses link {link} which does not "
                        "exist in the network"
                    )
                row = link_index[link] = len(link_order)
                link_order.append(link)
                cap_list.append(float(capacities[link]))
            rows.append(row)
            cols.append(col)
    shape = (len(link_order), len(link_lists))
    incidence = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=shape
    )
    return incidence, np.asarray(cap_list, dtype=float), link_order


class FluidNetwork:
    """Tracks active flows on a capacitated link set and assigns rates.

    Rate recomputation lowers the active flow set to a sparse incidence
    matrix and solves it with the shared progressive-filling kernel.
    The per-link :class:`LinkState` bookkeeping is kept so utilization
    queries and callers poking at ``links`` keep working.
    """

    def __init__(self, capacities: Dict[Link, float]):
        if not capacities:
            raise ValueError("network needs at least one link")
        self.links: Dict[Link, LinkState] = {
            link: LinkState(capacity_bps=cap)
            for link, cap in capacities.items()
        }
        # Capacities never change after construction; keep the plain
        # dict the incidence builder consumes on every recompute.
        self._capacities: Dict[Link, float] = dict(capacities)
        self.active: Dict[int, Flow] = {}
        self._rates_dirty = True

    def add_flow(self, flow: Flow) -> None:
        for link in flow.links:
            if link not in self.links:
                raise KeyError(
                    f"flow {flow.flow_id} uses link {link} which does not "
                    "exist in the network"
                )
        self.active[flow.flow_id] = flow
        for link in flow.links:
            self.links[link].flows.add(flow)
        self._rates_dirty = True

    def remove_flow(self, flow: Flow) -> None:
        self.active.pop(flow.flow_id, None)
        for link in flow.links:
            self.links[link].flows.discard(flow)
        self._rates_dirty = True

    def mark_dirty(self) -> None:
        self._rates_dirty = True

    def recompute_rates(self) -> None:
        """Progressive filling: assign the max-min fair allocation."""
        if not self._rates_dirty:
            return
        flows = list(self.active.values())
        if flows:
            incidence, cap_vec, _ = build_incidence(
                [flow.links for flow in flows], self._capacities
            )
            rates = progressive_filling_rates(cap_vec, incidence)
            for flow, rate in zip(flows, rates):
                flow.rate_bps = float(rate)
        self._rates_dirty = False

    def advance(self, dt: float) -> List[Flow]:
        """Progress all flows by ``dt`` seconds; return completed flows."""
        if dt < 0:
            raise ValueError(f"cannot advance time backwards (dt={dt})")
        completed: List[Flow] = []
        for flow in self.active.values():
            flow.remaining_bits -= flow.rate_bps * dt
            if flow.remaining_bits <= _EPS * max(1.0, flow.size_bits):
                flow.remaining_bits = 0.0
                completed.append(flow)
        for flow in completed:
            self.remove_flow(flow)
        return completed

    def time_to_next_completion(self) -> Optional[float]:
        """Seconds until the earliest active flow finishes (rates fixed)."""
        self.recompute_rates()
        best = math.inf
        for flow in self.active.values():
            if flow.rate_bps > _EPS:
                best = min(best, flow.remaining_bits / flow.rate_bps)
        return None if math.isinf(best) else max(best, 0.0)

    def utilization(self) -> Dict[Link, float]:
        """Current per-link utilization in [0, 1]."""
        self.recompute_rates()
        result = {}
        for link, state in self.links.items():
            used = sum(f.rate_bps for f in state.flows)
            result[link] = used / state.capacity_bps
        return result


class ReferenceFluidNetwork(FluidNetwork):
    """The seed pure-Python allocator.

    Identical semantics to :class:`FluidNetwork`; rate recomputation
    walks every (link, flow) pair per bottleneck round and freezes one
    link at a time, exactly as the seed implementation did.
    """

    def recompute_rates(self) -> None:
        if not self._rates_dirty:
            return
        unfrozen = set(self.active.values())
        for flow in unfrozen:
            flow.rate_bps = 0.0
        residual = {
            link: state.capacity_bps
            for link, state in self.links.items()
            if state.flows
        }
        link_unfrozen: Dict[Link, set] = {
            link: set(self.links[link].flows) for link in residual
        }
        while unfrozen:
            # Bottleneck link: minimal per-flow fair share.
            best_link = None
            best_share = math.inf
            for link, members in link_unfrozen.items():
                count = len(members)
                if count == 0:
                    continue
                share = residual[link] / count
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break  # flows without contended links (cannot happen)
            frozen_now = list(link_unfrozen[best_link])
            for flow in frozen_now:
                flow.rate_bps = best_share
                unfrozen.discard(flow)
                for link in flow.links:
                    members = link_unfrozen.get(link)
                    if members is not None:
                        members.discard(flow)
                    residual[link] = max(0.0, residual[link] - best_share)
        self._rates_dirty = False


def simulate_phase_reference(
    capacities: Dict[Link, float],
    flows: Sequence[Flow],
    include_propagation: bool = True,
) -> float:
    """The seed event loop over :class:`ReferenceFluidNetwork`.

    The oracle of :func:`repro.sim.fluid.simulate_phase`: every step
    pads the clock by one :data:`~repro.sim.events.TIME_QUANTUM`, so
    makespans agree to about one nanosecond per completion event.
    """
    if not flows:
        return 0.0
    network = ReferenceFluidNetwork(capacities)
    max_propagation = 0.0
    for flow in flows:
        flow.remaining_bits = float(flow.size_bits)
        network.add_flow(flow)
        if include_propagation:
            max_propagation = max(max_propagation, flow.propagation_delay_s)
    now = 0.0
    guard = 0
    limit = 10 * len(flows) + 100
    while network.active:
        dt = network.time_to_next_completion()
        if dt is None:
            raise RuntimeError(
                "deadlock: active flows have zero rate; check capacities"
            )
        # Merge completions landing within the time quantum.
        dt = max(dt, 0.0) + TIME_QUANTUM
        now += dt
        network.advance(dt)
        guard += 1
        if guard > limit:  # pragma: no cover - safety net
            raise RuntimeError("phase simulation failed to converge")
    return now + max_propagation


class BatchFlowEventEngine(FlowEventEngine):
    """The event engine re-solving max-min rates in full at every batch.

    Never hands a phase over to
    :class:`~repro.perf.fairshare.IncrementalFairShare`, whatever its
    completions look like, and runs the runtime engine's event loop
    otherwise, so the two agree to floating-point tolerance on any
    phase and bit for bit on a phase that never hands over.
    """

    handover_run = math.inf


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------

def all_shortest_paths_bfs(
    topo: DirectConnectTopology, src: int, dst: int, cap: int = 6
) -> List[List[int]]:
    """The seed per-pair BFS behind ``all_shortest_paths``."""
    topo._check_node(src)
    topo._check_node(dst)
    if src == dst:
        return [[src]]
    dist = topo.shortest_path_lengths_from(src)
    if dst not in dist:
        return []
    paths: List[List[int]] = []
    stack: List[List[int]] = [[dst]]
    while stack and len(paths) < cap:
        partial = stack.pop()
        head = partial[-1]
        if head == src:
            paths.append(list(reversed(partial)))
            continue
        for pred in topo._in[head]:
            if dist.get(pred, -1) == dist[head] - 1:
                stack.append(partial + [pred])
    return paths


def min_hop_paths_from_source(
    dist_from_src: Sequence[int],
    predecessors: Sequence[Sequence[int]],
    src: int,
    cap: int,
) -> Dict[int, List[List[int]]]:
    """Min-hop path sets from ``src`` to every reachable destination.

    Dynamic programming over the shortest-path DAG in distance order:
    a node at hop ``k`` extends the already-assembled path lists of its
    DAG parents at hop ``k - 1``, in ``predecessors`` order, and keeps
    the first ``cap`` paths of that concatenation.  ``dist_from_src``
    holds integer hop counts, ``-1`` for unreachable nodes.
    """
    reachable = [
        (d, node)
        for node, d in enumerate(dist_from_src)
        if d > 0
    ]
    reachable.sort()
    paths_by_node: List[Optional[List[List[int]]]] = [None] * len(
        dist_from_src
    )
    paths_by_node[src] = [[src]]
    result: Dict[int, List[List[int]]] = {}
    for d, node in reachable:
        want = d - 1
        acc: List[List[int]] = []
        for pred in predecessors[node]:
            if dist_from_src[pred] != want:
                continue
            for prefix in paths_by_node[pred]:
                acc.append(prefix + [node])
                if len(acc) >= cap:
                    break
            if len(acc) >= cap:
                break
        paths_by_node[node] = acc
        result[node] = acc
    return result


def k_shortest_paths_reference(
    topo: DirectConnectTopology, src: int, dst: int, k: int
) -> List[List[int]]:
    """The seed Yen's algorithm (mutate-and-restore spur searches).

    Path *lengths* are uniquely determined by Yen's algorithm, so
    ``topo.k_shortest_paths`` must match this hop for hop even when
    equal-length ties resolve to different concrete paths.  The spur
    searches remove root-path edges from ``topo`` and restore them.
    """
    first = topo.shortest_path(src, dst)
    if first is None:
        return []
    paths = [first]
    candidates: List[Tuple[int, List[int]]] = []
    seen = {tuple(first)}
    while len(paths) < k:
        prev_path = paths[-1]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            removed: List[Tuple[Tuple[int, int], int]] = []
            for path in paths:
                if len(path) > i and path[: i + 1] == root:
                    edge = (path[i], path[i + 1])
                    if topo.multiplicity(*edge) > 0:
                        removed.append((edge, topo.multiplicity(*edge)))
                        topo._out[edge[0]].pop(edge[1])
                        topo._in[edge[1]].pop(edge[0])
            spur = _shortest_path_avoiding(
                topo, spur_node, dst, set(root[:-1])
            )
            for edge, count in removed:
                topo._out[edge[0]][edge[1]] = count
                topo._in[edge[1]][edge[0]] = count
            if spur is None:
                continue
            candidate = root[:-1] + spur
            key = tuple(candidate)
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (len(candidate), candidate))
        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        paths.append(best)
    return paths


def _shortest_path_avoiding(
    topo: DirectConnectTopology, src: int, dst: int, banned: Set[int]
) -> Optional[List[int]]:
    if src in banned:
        return None
    if src == dst:
        return [src]
    prev = {src: src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nbr in topo._out[node]:
            if nbr in prev or nbr in banned:
                continue
            prev[nbr] = node
            if nbr == dst:
                return DirectConnectTopology._backtrack(prev, src, dst)
            queue.append(nbr)
    return None


def dense_lp_assembly(
    demand: np.ndarray,
    capacities: Dict[Tuple[int, int], float],
    pair_paths: Dict[Tuple[int, int], List[List[int]]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The seed dense ``(A_eq, A_ub)`` of the min-max-utilization LP.

    The oracle of :func:`repro.core.routing_lp.assemble_lp_constraints`.
    """
    pairs = sorted(pair_paths)
    link_index = {link: i for i, link in enumerate(capacities)}
    var_offsets = []
    total_vars = 0
    for pair in pairs:
        var_offsets.append(total_vars)
        total_vars += len(pair_paths[pair])
    t_index = total_vars
    total_vars += 1
    a_eq = np.zeros((len(pairs), total_vars))
    for row, (pair, offset) in enumerate(zip(pairs, var_offsets)):
        a_eq[row, offset: offset + len(pair_paths[pair])] = 1.0
    a_ub = np.zeros((len(link_index), total_vars))
    for pair, offset in zip(pairs, var_offsets):
        volume = float(demand[pair])
        for path_idx, path in enumerate(pair_paths[pair]):
            for a, b in zip(path, path[1:]):
                a_ub[link_index[(a, b)], offset + path_idx] += (
                    volume / capacities[(a, b)]
                )
    a_ub[:, t_index] = -1.0
    return a_eq, a_ub


# ----------------------------------------------------------------------
# The search plane
# ----------------------------------------------------------------------

class ReferenceIterationCostModel:
    """The seed analytic iteration-time estimate (pure-Python routing).

    The same estimate as :class:`repro.parallel.mcmc.IterationCostModel`
    -- compute + busiest-link time of the MP phase + busiest-link time of
    the AllReduce phase -- routed pair by pair and path by path.
    """

    #: No routing kernel to hand to the next round's search.
    kernel = None

    def __init__(self, fabric, compute_s: float):
        self.fabric = fabric
        self.compute_s = compute_s
        self._capacities = fabric.capacities()
        self._path_cache: Dict[Tuple[int, int, str], List[List[int]]] = {}

    def _paths(self, src: int, dst: int, kind: str) -> List[List[int]]:
        key = (src, dst, kind)
        if key not in self._path_cache:
            self._path_cache[key] = self.fabric.paths(src, dst, kind)
        return self._path_cache[key]

    def _phase_time(self, link_bytes: Dict[Link, float]) -> float:
        worst = 0.0
        for link, byte_count in link_bytes.items():
            capacity = self._capacities.get(link)
            if capacity is None or capacity <= 0:
                raise KeyError(f"routed traffic uses unknown link {link}")
            worst = max(worst, 8.0 * byte_count / capacity)
        return worst

    def mp_time(self, traffic: TrafficSummary) -> float:
        link_bytes: Dict[Link, float] = {}
        matrix = traffic.mp_matrix
        n = traffic.n
        for src in range(n):
            row = matrix[src]
            for dst in range(n):
                byte_count = row[dst]
                if src == dst or byte_count <= 0:
                    continue
                paths = self._paths(src, dst, "mp")
                if not paths:
                    return math.inf
                share = byte_count / len(paths)
                for path in paths:
                    for i in range(len(path) - 1):
                        link = (path[i], path[i + 1])
                        link_bytes[link] = link_bytes.get(link, 0.0) + share
        return self._phase_time(link_bytes)

    def allreduce_time(self, traffic: TrafficSummary) -> float:
        from repro.parallel.collectives import allreduce_edge_bytes

        link_bytes: Dict[Link, float] = {}
        for group in traffic.allreduce_groups:
            if group.size < 2 or group.total_bytes <= 0:
                continue
            ring_paths = []
            if hasattr(self.fabric, "ring_edge_paths"):
                ring_paths = self.fabric.ring_edge_paths(group.members)
            if ring_paths:
                for path, num_rings in ring_paths:
                    per_edge = allreduce_edge_bytes(
                        group.total_bytes, group.size, num_rings
                    )
                    for i in range(len(path) - 1):
                        link = (path[i], path[i + 1])
                        link_bytes[link] = link_bytes.get(link, 0.0) + per_edge
            else:
                per_edge = allreduce_edge_bytes(group.total_bytes, group.size)
                members = group.members
                k = len(members)
                for i in range(k):
                    src, dst = members[i], members[(i + 1) % k]
                    paths = self._paths(src, dst, "allreduce")
                    if not paths:
                        return math.inf
                    share = per_edge / len(paths)
                    for path in paths:
                        for j in range(len(path) - 1):
                            link = (path[j], path[j + 1])
                            link_bytes[link] = (
                                link_bytes.get(link, 0.0) + share
                            )
        return self._phase_time(link_bytes)

    def cost(self, traffic: TrafficSummary) -> float:
        return (
            self.compute_s
            + self.mp_time(traffic)
            + self.allreduce_time(traffic)
        )


class _FullRebuildScorer:
    """Seed scoring discipline: rebuild everything for every proposal."""

    def __init__(self, search: MCMCSearch, fabric):
        self.search = search
        self.cost_model = ReferenceIterationCostModel(
            fabric, search.compute_s
        )

    def _extract(self, strategy: ParallelizationStrategy) -> TrafficSummary:
        return extract_traffic(
            self.search.model,
            strategy,
            self.search.batch_per_gpu,
            self.search.gpus_per_server,
        )

    def begin(self, strategy: ParallelizationStrategy) -> float:
        return self.cost_model.cost(self._extract(strategy))

    def candidate(
        self,
        candidate: ParallelizationStrategy,
        name: str,
        old_placement: LayerPlacement,
        new_placement: LayerPlacement,
    ) -> float:
        return self.cost_model.cost(self._extract(candidate))

    def accept(self) -> None:
        pass

    def reject(self) -> None:
        pass


class ReferenceMCMCSearch(MCMCSearch):
    """The MCMC search with the seed full-rebuild scoring discipline.

    Every proposal re-extracts the whole traffic summary and re-routes
    every pair in Python.  Same proposals, same Metropolis chain:
    per-step costs match
    :class:`~repro.parallel.mcmc.MCMCSearch` to float tolerance (see
    :data:`repro.parallel.mcmc.ACCEPT_TOL`).  A routing ``kernel``
    passed to :meth:`search` is ignored.
    """

    def _scorer(self, fabric, kernel):
        return _FullRebuildScorer(self, fabric)


class ReferenceAlternatingOptimizer(AlternatingOptimizer):
    """The alternating loop scoring each round with the seed cost model.

    Pair it with a :class:`ReferenceMCMCSearch` as ``search`` for the
    whole seed search plane.
    """

    def _cost_model(self, fabric):
        return ReferenceIterationCostModel(fabric, self.search.compute_s)


# ----------------------------------------------------------------------
# The shared cluster
# ----------------------------------------------------------------------

class ReferenceSharedClusterSimulator(SharedClusterSimulator):
    """The shared-cluster simulation on one :class:`ReferenceFluidNetwork`.

    Every communication phase builds its flows afresh from the job's
    (possibly fault-patched) fabric and adds them to the network; a
    completion pads the clock step by 1e-12 s, as the seed did.  Result
    JSON of a scenario run on it (:class:`ReferenceScenarioEngine`) is
    byte-identical to the runtime's up to about 16,000 s of simulated
    time.  Beyond that, half a ULP of the clock exceeds the pad, and a
    flow left with less than one ULP can only creep forward 1e-12 s per
    event while the clock stands still -- the runtime completes a flow
    once its projected finish is at or before the event time instead --
    so floats may then differ by a few 1e-9 relative.
    """

    def __init__(self, capacities: Dict[Link, float]):
        super().__init__(capacities)
        self.network = ReferenceFluidNetwork(capacities)

    def remove_job(self, state: _JobState) -> None:
        for flow_id, owner in self._flow_owner.items():
            if owner is state:
                flow = self.network.active.get(flow_id)
                if flow is not None:
                    self.network.remove_flow(flow)
        super().remove_job(state)

    def next_event_time(self) -> Optional[float]:
        next_timer = min((t for t, _ in self._timers), default=None)
        dt_flow = self.network.time_to_next_completion()
        next_flow = self.now + dt_flow if dt_flow is not None else None
        candidates = [t for t in (next_timer, next_flow) if t is not None]
        return min(candidates) if candidates else None

    def advance_to(self, target: float) -> List[_JobState]:
        self._finished_buffer = []
        now, self.now = self.now, target
        for flow in self.network.advance(max(target - now, 0.0) + 1e-12):
            owner = self._flow_owner.pop(flow.flow_id, None)
            if owner is None:
                continue
            owner.outstanding -= 1
            if owner.outstanding == 0:
                self._finish_communication(owner, self.now)
        self._start_due_phases()
        return self._finished_buffer

    def _start_communication(self, state: _JobState, now: float) -> None:
        spec = state.spec
        flows = [
            Flow(path=path, size_bits=size)
            for path, size in zip(
                *traffic_paths(spec.fabric, spec.global_traffic())
            )
        ]
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


class ReferenceScenarioEngine(ScenarioEngine):
    """The scenario engine with every substrate on the seed allocator.

    ``ReferenceScenarioEngine(spec).run()`` is the oracle of
    :func:`repro.cluster.engine.run_scenario` (see
    :class:`ReferenceSharedClusterSimulator` for where they part).
    """

    substrate_class = ReferenceSharedClusterSimulator

