"""TopoOptFabric: the fabric adapter over a TopologyFinder result.

Exposes the direct-connect topology, coin-change AllReduce routes,
k-shortest MP routes, and the selected TotientPerms ring permutations to
the flow simulator and the cost model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from repro.core.topology_finder import PathSet, TopologyFinderResult

Link = Tuple[int, int]


class TopoOptFabric:
    """Fabric interface over a TopologyFinder result.

    Serves AllReduce-classified traffic over coin-change routes and MP
    traffic over the k-shortest paths computed by TopologyFinder;
    AllReduce collectives are load-balanced over the group's selected
    ring permutations (the modified-NCCL behaviour of section 6).
    """

    def __init__(
        self, result: "TopologyFinderResult", link_bandwidth_bps: float
    ):
        if link_bandwidth_bps <= 0:
            raise ValueError("link bandwidth must be positive")
        self.result = result
        self.link_bandwidth_bps = link_bandwidth_bps
        self.num_servers = result.topology.n
        self.name = "TopoOpt"
        self._fallback_cache: Dict[Tuple[int, int], "PathSet"] = {}

    def capacities(self) -> Dict[Link, float]:
        return {
            (src, dst): count * self.link_bandwidth_bps
            for src, dst, count in self.result.topology.edges()
        }

    def paths(self, src: int, dst: int, kind: str = "mp") -> "PathSet":
        """The ``kind`` routes from ``src`` to ``dst``, as int tuples.

        The routing table's own immutable path set when it has one,
        else a cached shortest path over the topology; ``()`` when
        ``dst`` is unreachable.  Callers share the returned objects and
        cannot alter the routes other callers see.
        """
        if src == dst:
            return ((src,),)
        paths = self.result.routing.paths_for(src, dst, kind)
        if paths:
            return paths
        key = (src, dst)
        if key not in self._fallback_cache:
            path = self.result.topology.shortest_path(src, dst)
            self._fallback_cache[key] = (tuple(path),) if path else ()
        return self._fallback_cache[key]

    def mp_route_arrays(self):
        """The MP routes of every pair as arrays, or None once retired.

        ``(pairs, paths_per_pair, path_lengths, nodes)``: the pair ids
        ``src * n + dst`` that have routes, in ascending order, how many
        paths each has, every path's node count, and all paths' nodes
        back to back -- the same routes :meth:`paths` serves, in the
        same order.  None when the routing table no longer holds its
        arrays (see :class:`~repro.core.topology_finder.RoutingTable`);
        the cost-model kernel then asks :meth:`paths` pair by pair.
        """
        routes = self.result.routing.mp_routes
        if routes is None:
            return None
        counts = routes.path_counts()
        pairs = np.flatnonzero(counts)
        return pairs, counts[pairs], np.diff(routes.path_ptr), routes.nodes

    def ring_strides_for(self, members: Tuple[int, ...]) -> List[int]:
        """Selected TotientPerms strides for an AllReduce group."""
        for plan in self.result.group_plans:
            if plan.group.members == members and plan.rings:
                return plan.strides[: len(plan.rings)]
        return [1]

    def ring_edge_paths(
        self, members: Tuple[int, ...]
    ) -> List[Tuple[List[int], int]]:
        """Direct ring edges for a group: (edge path, num_rings) pairs."""
        for plan in self.result.group_plans:
            if plan.group.members == members and plan.rings:
                edges = []
                num_rings = len(plan.rings)
                for ring in plan.rings:
                    k = len(ring)
                    for i in range(k):
                        edges.append(
                            ([ring[i], ring[(i + 1) % k]], num_rings)
                        )
                return edges
        return []

    def relabel(self, server_map: List[int]) -> "RemappedFabric":
        """View this fabric in global server ids (for shared clusters)."""
        return RemappedFabric(self, server_map)


class RemappedFabric:
    """A fabric whose server ids are translated through ``server_map``.

    Used by the shared-cluster simulator: each job's TopoOpt shard is
    built in local ids 0..k-1, then viewed through the shard's global
    server ids.  Internal (non-server) nodes do not exist in TopoOpt
    fabrics, so the translation is a pure relabeling.
    """

    def __init__(self, fabric: TopoOptFabric, server_map: List[int]):
        if len(server_map) != fabric.num_servers:
            raise ValueError(
                f"server_map has {len(server_map)} entries for a fabric "
                f"of {fabric.num_servers} servers"
            )
        if len(set(server_map)) != len(server_map):
            raise ValueError("server_map must be injective")
        self.fabric = fabric
        self.server_map = list(server_map)
        self._inverse = {g: l for l, g in enumerate(server_map)}
        self.num_servers = max(server_map) + 1
        self.name = fabric.name
        self.link_bandwidth_bps = fabric.link_bandwidth_bps

    def capacities(self) -> Dict[Link, float]:
        return {
            (self.server_map[src], self.server_map[dst]): cap
            for (src, dst), cap in self.fabric.capacities().items()
        }

    def paths(self, src: int, dst: int, kind: str = "mp") -> "PathSet":
        """The local fabric's path set, translated to global ids.

        Same shape as :meth:`TopoOptFabric.paths`: a fresh tuple of int
        tuples, in the local path order.
        """
        local = self.fabric.paths(self._inverse[src], self._inverse[dst], kind)
        relabel = self.server_map.__getitem__
        return tuple([tuple(map(relabel, path)) for path in local])

    def ring_edge_paths(self, members: Tuple[int, ...]):
        local_members = tuple(self._inverse[m] for m in members)
        return [
            ([self.server_map[node] for node in path], rings)
            for path, rings in self.fabric.ring_edge_paths(local_members)
        ]

    def ring_strides_for(self, members: Tuple[int, ...]) -> List[int]:
        """Selected strides of the underlying group (ids translated)."""
        local_members = tuple(self._inverse[m] for m in members)
        return self.fabric.ring_strides_for(local_members)
