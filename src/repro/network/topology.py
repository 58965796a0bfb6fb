"""Direct-connect topology abstraction for TopoOpt fabrics.

A TopoOpt cluster (paper section 3) is a set of ``n`` servers, each with
``d`` network interfaces, wired point-to-point through a layer of optical
devices.  The resulting interconnect is a *directed multigraph*: each
physical fiber provides one unidirectional link of bandwidth ``B`` from a
transmit interface to a receive interface, and a pair of servers may be
connected by several parallel links.

:class:`DirectConnectTopology` stores that multigraph with per-direction
link counts, enforces the degree budget, and provides the graph queries
the optimization core needs (shortest paths, diameter, connectivity).

Graph queries are backed by the vectorized kernel layer
(:mod:`repro.perf.graph`): a lazily-built CSR adjacency matrix and an
all-pairs hop-count matrix are cached on the instance and invalidated
by a version counter that every mutation bumps, so cluster-scale sweeps
(``diameter``, ``average_path_length``, routing construction) cost one
C-level BFS sweep instead of ``n`` (or ``n^2``) Python BFS runs.
In/out-degree counters are maintained incrementally -- ``add_link`` is
O(1) instead of re-summing a Counter.  The pure-Python per-source BFS
(:meth:`shortest_path_lengths_from`) is retained as the reference
implementation for equivalence tests.  Yen's ``k_shortest_paths`` runs
its spur searches on out-neighbor lists sliced from the cached CSR
adjacency, excluding root edges via a set instead of mutating the
graph; the seed mutate-and-restore version is retained as
:meth:`DirectConnectTopology._k_shortest_paths_reference`.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.perf import graph as graph_kernels

Edge = Tuple[int, int]


class DegreeExceededError(ValueError):
    """Raised when adding a link would exceed a server's interface budget."""


@dataclass
class LinkCapacityMap:
    """Per-link capacity table, in bits per second.

    Parallel links between the same (src, dst) pair are aggregated: the
    capacity of the pair is ``multiplicity * link_bandwidth_bps``.
    """

    link_bandwidth_bps: float
    multiplicity: Dict[Edge, int] = field(default_factory=dict)

    def capacity(self, src: int, dst: int) -> float:
        """Aggregate capacity from ``src`` to ``dst`` in bits per second."""
        return self.multiplicity.get((src, dst), 0) * self.link_bandwidth_bps

    def edges(self) -> Iterator[Edge]:
        return iter(self.multiplicity)


class DirectConnectTopology:
    """Directed multigraph over ``n`` servers with a per-server degree budget.

    Parameters
    ----------
    n:
        Number of servers.
    degree:
        Number of interfaces per server (``d`` in the paper).  Each interface
        supplies one transmit port and one receive port, so a server can
        source at most ``d`` links and sink at most ``d`` links.
    enforce_degree:
        When true (the default), :meth:`add_link` raises
        :class:`DegreeExceededError` if the degree budget would be violated.
        Infrastructure fabrics (Fat-tree cores, Ideal Switch hubs) disable
        the check for their internal nodes.

    Mutations are O(1) (incremental degree counters plus a version
    bump); the version counter lazily invalidates the cached CSR
    adjacency and all-pairs hop-count matrices, so graph queries cost
    one C-level BFS sweep per mutation *epoch*, however many queries
    run in between.

    Example -- a 4-server bidirectional ring:

    >>> from repro.network.topology import DirectConnectTopology
    >>> topo = DirectConnectTopology(n=4, degree=2)
    >>> topo.add_ring([0, 1, 2, 3])
    >>> topo.add_ring([3, 2, 1, 0])
    >>> topo.diameter()
    2
    >>> topo.shortest_path(0, 2)
    [0, 1, 2]
    >>> topo.remove_link(1, 2)
    >>> topo.shortest_path(0, 2)  # cache invalidated by the mutation
    [0, 3, 2]
    """

    def __init__(self, n: int, degree: int, enforce_degree: bool = True):
        if n <= 0:
            raise ValueError(f"need at least one server, got n={n}")
        if degree <= 0:
            raise ValueError(f"degree must be positive, got d={degree}")
        self.n = n
        self.degree = degree
        self.enforce_degree = enforce_degree
        self._out: Dict[int, Counter] = {i: Counter() for i in range(n)}
        self._in: Dict[int, Counter] = {i: Counter() for i in range(n)}
        # Incrementally-maintained degree counters (O(1) queries).
        self._out_degree: List[int] = [0] * n
        self._in_degree: List[int] = [0] * n
        # Mutation stamp; lazily-built caches below are valid only when
        # their recorded version matches.
        self._version = 0
        self._adjacency_cache: Optional[Tuple[int, sparse.csr_matrix]] = None
        self._hops_cache: Optional[Tuple[int, np.ndarray]] = None
        self._hops_int_cache: Optional[Tuple[int, List[List[int]]]] = None
        self._pred_cache: Optional[Tuple[int, List[List[int]]]] = None
        self._succ_cache: Optional[Tuple[int, List[List[int]]]] = None

    def _bump_version(self) -> None:
        self._version += 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_link(self, src: int, dst: int, count: int = 1) -> None:
        """Add ``count`` parallel unidirectional links from src to dst.

        O(1): degree counters are maintained incrementally and cache
        invalidation is a version bump, not a rebuild.

        Raises
        ------
        DegreeExceededError
            If ``enforce_degree`` is set and either endpoint would
            exceed its interface budget.
        ValueError
            For self-links, out-of-range server ids, or ``count <= 0``.
        """
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise ValueError(f"self-link at server {src} is not allowed")
        if count <= 0:
            raise ValueError(f"link count must be positive, got {count}")
        if self.enforce_degree:
            if self.out_degree(src) + count > self.degree:
                raise DegreeExceededError(
                    f"server {src} tx degree {self.out_degree(src)}+{count} "
                    f"exceeds budget {self.degree}"
                )
            if self.in_degree(dst) + count > self.degree:
                raise DegreeExceededError(
                    f"server {dst} rx degree {self.in_degree(dst)}+{count} "
                    f"exceeds budget {self.degree}"
                )
        self._out[src][dst] += count
        self._in[dst][src] += count
        self._out_degree[src] += count
        self._in_degree[dst] += count
        self._bump_version()

    def add_bidirectional(self, a: int, b: int, count: int = 1) -> None:
        """Add ``count`` links in each direction between a and b."""
        self.add_link(a, b, count)
        self.add_link(b, a, count)

    def add_ring(self, order: Sequence[int]) -> None:
        """Add a directed ring following ``order`` (a server permutation).

        Atomic: the ring either fits entirely within the degree budget or
        nothing is added (each member needs one free tx and one free rx).
        """
        k = len(order)
        if k < 2:
            raise ValueError("a ring needs at least two servers")
        if len(set(order)) != k:
            raise ValueError("ring order must visit distinct servers")
        if self.enforce_degree:
            for node in order:
                if self.free_tx(node) < 1 or self.free_rx(node) < 1:
                    raise DegreeExceededError(
                        f"server {node} has no free interface for the ring"
                    )
        for i in range(k):
            self.add_link(order[i], order[(i + 1) % k])

    def remove_link(self, src: int, dst: int, count: int = 1) -> None:
        """Remove ``count`` parallel links from src to dst (O(1))."""
        have = self._out[src][dst]
        if have < count:
            raise ValueError(
                f"cannot remove {count} links {src}->{dst}: only {have} exist"
            )
        self._out[src][dst] -= count
        self._in[dst][src] -= count
        self._out_degree[src] -= count
        self._in_degree[dst] -= count
        if self._out[src][dst] == 0:
            del self._out[src][dst]
            del self._in[dst][src]
        self._bump_version()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def out_degree(self, node: int) -> int:
        return self._out_degree[node]

    def in_degree(self, node: int) -> int:
        return self._in_degree[node]

    def free_tx(self, node: int) -> int:
        return self.degree - self.out_degree(node)

    def free_rx(self, node: int) -> int:
        return self.degree - self.in_degree(node)

    def multiplicity(self, src: int, dst: int) -> int:
        """Number of parallel links from src to dst (0 if none)."""
        return self._out[src].get(dst, 0)

    def has_link(self, src: int, dst: int) -> bool:
        return dst in self._out[src]

    def neighbors_out(self, node: int) -> List[int]:
        return list(self._out[node])

    def neighbors_in(self, node: int) -> List[int]:
        return list(self._in[node])

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (src, dst, multiplicity) for every connected pair."""
        for src, nbrs in self._out.items():
            for dst, count in nbrs.items():
                yield src, dst, count

    def num_links(self) -> int:
        """Total number of unidirectional physical links."""
        return sum(count for _, _, count in self.edges())

    def copy(self) -> "DirectConnectTopology":
        clone = DirectConnectTopology(self.n, self.degree, self.enforce_degree)
        for src, dst, count in self.edges():
            clone._out[src][dst] = count
            clone._in[dst][src] = count
            clone._out_degree[src] += count
            clone._in_degree[dst] += count
        return clone

    def capacity_map(self, link_bandwidth_bps: float) -> LinkCapacityMap:
        """Materialize per-link capacities for the flow simulator."""
        return LinkCapacityMap(
            link_bandwidth_bps=link_bandwidth_bps,
            multiplicity={(s, d): c for s, d, c in self.edges()},
        )

    # ------------------------------------------------------------------
    # Cached array views (kernel layer)
    # ------------------------------------------------------------------
    def adjacency(self) -> sparse.csr_matrix:
        """CSR adjacency matrix (entries are link multiplicities).

        Lazily built and cached; any mutation invalidates the cache via
        the version counter.
        """
        if (
            self._adjacency_cache is not None
            and self._adjacency_cache[0] == self._version
        ):
            return self._adjacency_cache[1]
        rows: List[int] = []
        cols: List[int] = []
        data: List[int] = []
        for src, dst, count in self.edges():
            rows.append(src)
            cols.append(dst)
            data.append(count)
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(self.n, self.n), dtype=np.int64
        )
        self._adjacency_cache = (self._version, matrix)
        return matrix

    def all_pairs_hop_counts(self) -> np.ndarray:
        """``(n, n)`` hop-count matrix (``np.inf`` for unreachable pairs).

        One vectorized BFS sweep (scipy.sparse.csgraph) shared by
        :meth:`diameter`, :meth:`average_path_length`,
        :meth:`path_length_distribution`, :meth:`all_shortest_paths`,
        and the batched routing builder.  Cached until the next
        mutation: O(n * (n + E)) on a cache miss, O(1) after.
        """
        if (
            self._hops_cache is not None
            and self._hops_cache[0] == self._version
        ):
            return self._hops_cache[1]
        hops = graph_kernels.all_pairs_hop_counts(self.adjacency())
        self._hops_cache = (self._version, hops)
        return hops

    def _hops_int_rows(self) -> List[List[int]]:
        """Hop-count rows as plain int lists (fast path enumeration)."""
        if (
            self._hops_int_cache is not None
            and self._hops_int_cache[0] == self._version
        ):
            return self._hops_int_cache[1]
        hops = self.all_pairs_hop_counts()
        rows = np.where(
            np.isfinite(hops), hops, graph_kernels.UNREACHABLE
        ).astype(np.int64).tolist()
        self._hops_int_cache = (self._version, rows)
        return rows

    def _pred_lists(self) -> List[List[int]]:
        """Per-node in-neighbor lists (cached view of ``_in``)."""
        if (
            self._pred_cache is not None
            and self._pred_cache[0] == self._version
        ):
            return self._pred_cache[1]
        preds = [list(self._in[node]) for node in range(self.n)]
        self._pred_cache = (self._version, preds)
        return preds

    def _succ_lists(self) -> List[List[int]]:
        """Per-node out-neighbor lists, sliced from the cached CSR arrays.

        Plain int lists (CSR ``indices`` rows) are what the Yen spur
        searches iterate; several times faster than walking the
        dict-of-Counter rows.
        """
        if (
            self._succ_cache is not None
            and self._succ_cache[0] == self._version
        ):
            return self._succ_cache[1]
        adjacency = self.adjacency()
        indptr = adjacency.indptr
        indices = adjacency.indices.tolist()
        succ = [
            indices[indptr[node]: indptr[node + 1]] for node in range(self.n)
        ]
        self._succ_cache = (self._version, succ)
        return succ

    def min_hop_paths_from(
        self, src: int, cap: int = 6
    ) -> Dict[int, List[List[int]]]:
        """Minimum-hop path sets from ``src`` to every reachable server.

        Batched equivalent of calling :meth:`all_shortest_paths` for
        each destination: the BFS layering comes from the cached
        all-pairs matrix, so only the output-bounded path backtracking
        (O(cap * path length) per destination) remains per call.

        Returns
        -------
        Mapping of destination -> list of up to ``cap`` minimum-hop
        paths (each a node list starting at ``src``); unreachable
        destinations are absent.
        """
        self._check_node(src)
        return graph_kernels.min_hop_paths_from_source(
            self._hops_int_rows()[src], self._pred_lists(), src, cap
        )

    # ------------------------------------------------------------------
    # Graph algorithms
    # ------------------------------------------------------------------
    def shortest_path(self, src: int, dst: int) -> Optional[List[int]]:
        """Unweighted (hop-count) shortest path, or None if unreachable."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return [src]
        prev: Dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nbr in self._out[node]:
                if nbr in prev:
                    continue
                prev[nbr] = node
                if nbr == dst:
                    return self._backtrack(prev, src, dst)
                queue.append(nbr)
        return None

    def shortest_paths_from(self, src: int) -> Dict[int, Tuple[int, ...]]:
        """The :meth:`shortest_path` of ``src`` to every reachable server.

        One BFS tree instead of one search per destination.  Neighbours
        are visited in :meth:`shortest_path`'s order, so each path is
        the one that method returns for its pair.
        """
        self._check_node(src)
        paths: Dict[int, Tuple[int, ...]] = {src: (src,)}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nbr in self._out[node]:
                if nbr not in paths:
                    paths[nbr] = paths[node] + (nbr,)
                    queue.append(nbr)
        return paths

    def shortest_path_lengths_from(self, src: int) -> Dict[int, int]:
        """Hop counts from ``src`` to every reachable server."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nbr in self._out[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
        return dist

    def all_shortest_paths(
        self, src: int, dst: int, cap: int = 6
    ) -> List[List[int]]:
        """Up to ``cap`` distinct minimum-hop paths (ECMP path set).

        The BFS layering comes from the cached all-pairs hop-count
        matrix; only the bounded backtrack from ``dst`` through
        strictly-decreasing-distance predecessors runs per call.
        """
        self._check_node(src)
        self._check_node(dst)
        return graph_kernels.enumerate_min_hop_paths(
            self._hops_int_rows()[src], self._pred_lists(), src, dst, cap
        )

    def _all_shortest_paths_bfs(
        self, src: int, dst: int, cap: int = 6
    ) -> List[List[int]]:
        """Seed per-pair BFS implementation (reference/benchmark only)."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return [[src]]
        dist = self.shortest_path_lengths_from(src)
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
            for pred in self._in[head]:
                if dist.get(pred, -1) == dist[head] - 1:
                    stack.append(partial + [pred])
        return paths

    def k_shortest_paths(self, src: int, dst: int, k: int) -> List[List[int]]:
        """Yen's algorithm for up to ``k`` loopless shortest paths.

        The spur searches run on the out-neighbor lists sliced from the
        cached CSR adjacency (:meth:`_succ_lists`): root-path edges are
        excluded through a ``removed`` edge set instead of mutating and
        restoring the graph, so the loop never invalidates the caches.
        The seed implementation survives as
        :meth:`_k_shortest_paths_reference` for the equivalence tests.
        """
        self._check_node(src)
        self._check_node(dst)
        succ = self._succ_lists()
        first = graph_kernels.shortest_path_avoiding(succ, src, dst)
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
                removed = {
                    (path[i], path[i + 1])
                    for path in paths
                    if len(path) > i and path[: i + 1] == root
                }
                spur = graph_kernels.shortest_path_avoiding(
                    succ, spur_node, dst, root[:-1], removed
                )
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

    def _k_shortest_paths_reference(
        self, src: int, dst: int, k: int
    ) -> List[List[int]]:
        """Seed Yen's implementation (mutate-and-restore spur searches).

        Reference for the equivalence tests only: path *lengths* are
        uniquely determined by Yen's algorithm, so the CSR-backed
        :meth:`k_shortest_paths` must match it hop-for-hop even when
        equal-length ties resolve to different concrete paths.
        """
        first = self.shortest_path(src, dst)
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
                removed: List[Edge] = []
                for path in paths:
                    if len(path) > i and path[: i + 1] == root:
                        edge = (path[i], path[i + 1])
                        if self.multiplicity(*edge) > 0:
                            removed.append((edge, self.multiplicity(*edge)))
                            self._out[edge[0]].pop(edge[1])
                            self._in[edge[1]].pop(edge[0])
                banned = set(root[:-1])
                spur = self._shortest_path_avoiding(spur_node, dst, banned)
                for (edge, count) in removed:
                    self._out[edge[0]][edge[1]] = count
                    self._in[edge[1]][edge[0]] = count
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
        self, src: int, dst: int, banned: Iterable[int]
    ) -> Optional[List[int]]:
        banned = set(banned)
        if src in banned:
            return None
        if src == dst:
            return [src]
        prev = {src: src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nbr in self._out[node]:
                if nbr in prev or nbr in banned:
                    continue
                prev[nbr] = node
                if nbr == dst:
                    return self._backtrack(prev, src, dst)
                queue.append(nbr)
        return None

    def is_strongly_connected(self) -> bool:
        return graph_kernels.is_strongly_connected(self.adjacency())

    def _finite_hops(self) -> np.ndarray:
        """All-pairs hop counts; raises if any pair is unreachable."""
        hops = self.all_pairs_hop_counts()
        if not np.all(np.isfinite(hops)):
            raise ValueError("topology is not strongly connected")
        return hops

    def diameter(self) -> int:
        """Longest shortest-path hop count; raises if disconnected."""
        return int(self._finite_hops().max())

    def average_path_length(self) -> float:
        """Mean hop count over all ordered server pairs."""
        if self.n < 2:
            return 0.0
        return float(self._finite_hops().sum() / (self.n * (self.n - 1)))

    def path_length_distribution(self) -> List[int]:
        """Hop counts for every ordered pair of distinct servers."""
        hops = self.all_pairs_hop_counts()
        off_diagonal = ~np.eye(self.n, dtype=bool)
        finite = np.isfinite(hops) & off_diagonal
        return [int(h) for h in hops[finite]]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ValueError(f"server id {node} out of range [0, {self.n})")

    @staticmethod
    def _backtrack(prev: Dict[int, int], src: int, dst: int) -> List[int]:
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DirectConnectTopology(n={self.n}, d={self.degree}, "
            f"links={self.num_links()})"
        )
