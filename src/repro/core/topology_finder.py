"""TopologyFinder: construct the per-job topology and routing (Algorithm 1).

Given ``n`` dedicated servers of degree ``d``, the AllReduce transfers
(grouped by AllReduce group) and the MP transfer matrix produced by the
Comp. x Comm. plane, TopologyFinder:

1. splits the degree budget between the AllReduce and MP sub-topologies
   proportionally to their traffic shares (always giving AllReduce at
   least one degree so the network stays connected),
2. builds the AllReduce sub-topology from TotientPerms ring permutations
   chosen by SelectPermutations,
3. builds the MP sub-topology from repeated Blossom maximum-weight
   matchings with demand-halving, and
4. combines both and computes routes: coin-change routing for AllReduce
   traffic, k-shortest-path routing for MP traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coin_change import CoinChangeRouter
from repro.core.matching import matching_edge_counts, mp_matchings
from repro.core.select_perms import select_permutations
from repro.core.totient import coprime_strides, prime_strides, ring_permutation
from repro.network.topology import DegreeExceededError, DirectConnectTopology
from repro.perf.graph import MinHopRoutes, PathSet

Pair = Tuple[int, int]
#: One route: the server sequence a transfer crosses.
Path = Tuple[int, ...]


@dataclass(frozen=True)
class AllReduceGroup:
    """One AllReduce group: the servers synchronizing one set of weights.

    Attributes
    ----------
    members:
        Global server ids participating in the group (position order is
        the canonical "+1" labeling the strides permute).
    total_bytes:
        Bytes of model state synchronized per iteration by this group.
    """

    members: Tuple[int, ...]
    total_bytes: float

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError("AllReduce group members must be distinct")
        if self.total_bytes < 0:
            raise ValueError("AllReduce bytes must be non-negative")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class GroupPlan:
    """The rings selected for one AllReduce group."""

    group: AllReduceGroup
    degree: int
    strides: List[int]
    rings: List[List[int]] = field(default_factory=list)
    router: Optional[CoinChangeRouter] = None


class RoutingTable:
    """Per-pair path sets for the flow simulator.

    ``allreduce_paths`` carry AllReduce-classified traffic (coin-change
    routes over the AllReduce sub-topology); ``mp_paths`` carry MP traffic
    (k-shortest paths over the combined topology).  Both map ordered
    server pairs to one or more explicit server-sequence paths.

    Path sets are tuples of int tuples.  Immutability lets every caller
    share the table's own objects safely (results are shared through the
    process-wide warm caches), and CPython's collector untracks a tuple
    of ints, so a cached result's routes cost full collections nothing.
    Writers (:class:`repro.sim.failures.FailureManager`) replace whole
    path sets.

    A table built by :func:`topology_finder` starts lazy.  Its MP routes
    are flat arrays (:attr:`mp_routes`), and :meth:`paths_for` builds a
    pair's tuples on first request and keeps them; its AllReduce routes
    are built from the group plans the first time anything reads them.
    Reading :attr:`mp_paths` materializes every MP pair into a plain dict
    and retires the arrays, because that dict may be written from then
    on and the arrays would go stale.  Lookups take no lock: concurrent
    callers may build the same tuples twice, but every one of them gets
    the table's contents.
    """

    def __init__(
        self,
        allreduce_paths: Optional[Dict[Pair, PathSet]] = None,
        mp_paths: Optional[Dict[Pair, PathSet]] = None,
    ):
        self._allreduce = {} if allreduce_paths is None else allreduce_paths
        self._mp: Dict[Pair, PathSet] = {} if mp_paths is None else mp_paths
        self.mp_routes: Optional[MinHopRoutes] = None

    @classmethod
    def lazy(
        cls, mp_routes: MinHopRoutes, plans: Sequence[GroupPlan]
    ) -> "RoutingTable":
        """A table over MP route arrays and the plans' coin-change routes."""
        table = cls.__new__(cls)
        table._plans = plans
        table._mp = {}
        table.mp_routes = mp_routes
        return table

    @property
    def allreduce_paths(self) -> Dict[Pair, PathSet]:
        """Pair -> coin-change path sets, built on the first read."""
        table = self.__dict__.get("_allreduce")
        if table is None:
            # setdefault: racing first readers all keep the same dict.
            table = self.__dict__.setdefault(
                "_allreduce", _coin_change_routes(self._plans)
            )
        return table

    @property
    def mp_paths(self) -> Dict[Pair, PathSet]:
        """Pair -> MP path sets, as a plain dict that retires the arrays."""
        routes = self.mp_routes
        if routes is not None:
            table = self._mp
            for pair, paths in routes.path_sets():
                table.setdefault(pair, paths)
            self.mp_routes = None
        return self._mp

    def _mp_lookup(self, pair: Pair) -> PathSet:
        # Read the arrays before the dict: once they are retired, the
        # dict holds every pair.
        routes = self.mp_routes
        paths = self._mp.get(pair)
        if paths is not None or routes is None:
            return paths or ()
        paths = routes.path_set(*pair)
        return self._mp.setdefault(pair, paths) if paths else ()

    def paths_for(self, src: int, dst: int, kind: str = "mp") -> PathSet:
        if kind == "allreduce":
            paths = self.allreduce_paths.get((src, dst))
            return paths if paths else self._mp_lookup((src, dst))
        paths = self._mp_lookup((src, dst))
        return paths if paths else self.allreduce_paths.get((src, dst), ())


@dataclass
class TopologyFinderResult:
    """Output of Algorithm 1: topology, routing, and the group plans."""

    topology: DirectConnectTopology
    routing: RoutingTable
    allreduce_degree: int
    mp_degree: int
    group_plans: List[GroupPlan]
    mp_link_counts: Dict[Pair, int]


def _group_transfer_volume(group: AllReduceGroup) -> float:
    """Carried bytes of one ring-AllReduce group: k edges of 2(k-1)/k S."""
    if group.size < 2:
        return 0.0
    return 2.0 * (group.size - 1) * group.total_bytes


def _distribute_degree(
    d: int, allreduce_bytes: float, mp_bytes: float
) -> Tuple[int, int]:
    """Algorithm 1 lines 2-3: split the degree budget by traffic share.

    Both shares are *carried* transfer volumes (the sums of T_AllReduce
    and T_MP), so a small model synchronized around a large ring still
    weighs in proportion to the bytes it actually moves.
    """
    total = allreduce_bytes + mp_bytes
    if total <= 0:
        # No traffic at all: keep everything on the AllReduce side so the
        # network is still built connected.
        return d, 0
    d_allreduce = max(1, math.ceil(d * allreduce_bytes / total))
    d_allreduce = min(d_allreduce, d)
    return d_allreduce, d - d_allreduce


def topology_finder(
    n: int,
    d: int,
    allreduce_groups: Sequence[AllReduceGroup],
    mp_traffic: Optional[np.ndarray] = None,
    primes_only: bool = False,
    mp_path_count: int = 6,
) -> TopologyFinderResult:
    """Run TopologyFinder (Algorithm 1) and return topology plus routing.

    Parameters
    ----------
    n:
        Number of dedicated servers for the job (ids 0..n-1).
    d:
        Interfaces per server.
    allreduce_groups:
        The AllReduce transfers ``T_AllReduce``, grouped.
    mp_traffic:
        ``n x n`` byte matrix of MP transfers ``T_MP`` (zeros if None).
    primes_only:
        Restrict TotientPerms strides to primes (large-cluster mode).
    mp_path_count:
        Number of shortest paths computed per MP pair (k in k-shortest).
    """
    if mp_traffic is None:
        mp_traffic = np.zeros((n, n))
    mp_traffic = np.asarray(mp_traffic, dtype=float)
    if mp_traffic.shape != (n, n):
        raise ValueError(
            f"mp_traffic must be {n}x{n}, got {mp_traffic.shape}"
        )

    sum_allreduce = float(
        sum(_group_transfer_volume(g) for g in allreduce_groups)
    )
    sum_mp = float(mp_traffic.sum())
    d_allreduce, d_mp = _distribute_degree(d, sum_allreduce, sum_mp)

    topology = DirectConnectTopology(n, d)
    group_plans = _build_allreduce_subtopology(
        topology, n, d_allreduce, allreduce_groups, primes_only
    )
    mp_link_counts = _build_mp_subtopology(topology, mp_traffic, d_mp)
    _ensure_connected(topology, group_plans)

    routing = _build_routing(topology, group_plans, mp_traffic, mp_path_count)
    return TopologyFinderResult(
        topology=topology,
        routing=routing,
        allreduce_degree=d_allreduce,
        mp_degree=d_mp,
        group_plans=group_plans,
        mp_link_counts=mp_link_counts,
    )


def _build_allreduce_subtopology(
    topology: DirectConnectTopology,
    n: int,
    d_allreduce: int,
    groups: Sequence[AllReduceGroup],
    primes_only: bool,
) -> List[GroupPlan]:
    """Algorithm 1 lines 4-11: per-group degree allocation and ring laying."""
    plans: List[GroupPlan] = []
    total = sum(_group_transfer_volume(g) for g in groups)
    remaining = d_allreduce
    # Largest groups first so the dominant AllReduce gets its share before
    # the budget runs out (the paper iterates in traffic order).
    for group in sorted(groups, key=_group_transfer_volume, reverse=True):
        if remaining <= 0:
            break
        if group.size < 2:
            continue
        share = _group_transfer_volume(group) / total if total > 0 else 1.0
        dk = min(remaining, max(1, math.ceil(d_allreduce * share)))
        remaining -= dk
        strides = (
            prime_strides(group.size) if primes_only else coprime_strides(group.size)
        )
        chosen = select_permutations(group.size, dk, strides)
        plan = GroupPlan(group=group, degree=dk, strides=chosen)
        laid_strides: List[int] = []
        for stride in chosen:
            ring = ring_permutation(group.members, stride)
            try:
                topology.add_ring(ring)
            except DegreeExceededError:
                # Overlapping groups can exhaust a member's interfaces;
                # skip the ring rather than fail the whole job.
                continue
            plan.rings.append(ring)
            laid_strides.append(stride)
        if laid_strides:
            plan.router = CoinChangeRouter(group.size, laid_strides)
        plans.append(plan)
    return plans


def _build_mp_subtopology(
    topology: DirectConnectTopology,
    mp_traffic: np.ndarray,
    d_mp: int,
) -> Dict[Pair, int]:
    """Algorithm 1 lines 12-17: matching rounds with demand halving."""
    if d_mp <= 0 or mp_traffic.sum() <= 0:
        return {}
    matchings = mp_matchings(mp_traffic, rounds=d_mp)
    counts = matching_edge_counts(matchings)
    placed: Dict[Pair, int] = {}
    for pair, count in sorted(
        counts.items(), key=lambda item: -(mp_traffic[item[0][0], item[0][1]]
                                           + mp_traffic[item[0][1], item[0][0]])
    ):
        a, b = pair
        for _ in range(count):
            try:
                topology.add_bidirectional(a, b)
            except DegreeExceededError:
                break
            placed[pair] = placed.get(pair, 0) + 1
    return placed


def _ensure_connected(
    topology: DirectConnectTopology, plans: Sequence[GroupPlan]
) -> None:
    """Guarantee strong connectivity (the paper's dA >= 1 invariant).

    If no laid ring spans all servers and the combined graph is
    disconnected, lay a +1 ring over all servers using any free degree.
    """
    if topology.is_strongly_connected():
        return
    n = topology.n
    if all(topology.free_tx(i) >= 1 and topology.free_rx(i) >= 1 for i in range(n)):
        topology.add_ring(list(range(n)))
    if not topology.is_strongly_connected():
        raise ValueError(
            "TopologyFinder produced a disconnected topology and no spare "
            "degree remains to repair it"
        )


def _coin_change_routes(plans: Sequence[GroupPlan]) -> Dict[Pair, PathSet]:
    """Algorithm 1 line 19: every group's coin-change routes."""
    allreduce: Dict[Pair, PathSet] = {}
    for plan in plans:
        if plan.router is None:
            continue
        members = plan.group.members
        for i, src in enumerate(members):
            for j, dst in enumerate(members):
                if src == dst:
                    continue
                positions = plan.router.path(i, j)
                path = tuple([members[p] for p in positions])
                # A pair in several groups keeps each plan's route.
                allreduce[(src, dst)] = allreduce.get((src, dst), ()) + (path,)
    return allreduce


def _build_routing(
    topology: DirectConnectTopology,
    plans: Sequence[GroupPlan],
    mp_traffic: np.ndarray,
    mp_path_count: int,
) -> RoutingTable:
    """Algorithm 1 lines 19-20: coin-change + k-shortest-path routing.

    MP routing: ECMP over all minimum-hop paths (up to
    ``mp_path_count``) on the *combined* topology for every pair with
    MP demand, plus a shortest-path default for all pairs so the
    simulator can always route.  Splitting across the full
    shortest-path set is what keeps host-forwarded all-to-all traffic
    off a single hot relay.  Built in one pass over all sources as
    flat arrays; the coin-change AllReduce routes wait for their first
    reader.
    """
    routes = topology.min_hop_routes(mp_path_count)
    keep = np.where(mp_traffic.reshape(-1) > 0, routes.path_counts(), 1)
    return RoutingTable.lazy(routes.first(keep), plans)
