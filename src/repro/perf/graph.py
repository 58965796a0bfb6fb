"""Array-based graph kernels for direct-connect topologies.

All-pairs hop counts run as one C-level unweighted BFS per source via
:mod:`scipy.sparse.csgraph`, replacing the per-pair Python BFS the seed
used for ``diameter``/``average_path_length`` and routing construction.
Path enumeration then works off the precomputed distance matrix: a
node ``p`` precedes ``head`` on some minimum-hop ``src -> dst`` path
iff ``dist[src, p] == dist[src, head] - 1``, so no further searches are
needed once the matrix exists.  :func:`min_hop_routes` builds the
capped min-hop path sets of every source in one NumPy pass and returns
them as flat arrays (:class:`MinHopRoutes`), the form the routing table
and the cost-model kernel consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

#: Marker for unreachable pairs in integer hop-count rows.
UNREACHABLE = -1

#: Every route of one ordered pair, each a tuple of node ids; traffic
#: splits evenly across them.
PathSet = Tuple[Tuple[int, ...], ...]


def all_pairs_hop_counts(adjacency: sparse.csr_matrix) -> np.ndarray:
    """Hop-count matrix of a directed graph (``np.inf`` if unreachable).

    ``adjacency`` is any (n x n) sparse matrix whose nonzero pattern is
    the edge set; multiplicities are ignored (hop counts only care
    about connectivity).
    """
    n = adjacency.shape[0]
    if adjacency.nnz == 0:
        hops = np.full((n, n), np.inf)
        np.fill_diagonal(hops, 0.0)
        return hops
    return csgraph.shortest_path(
        adjacency, method="D", directed=True, unweighted=True
    )


def is_strongly_connected(adjacency: sparse.csr_matrix) -> bool:
    """True iff every node reaches every other node."""
    if adjacency.shape[0] <= 1:
        return True
    num_components, _ = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    return num_components == 1


def shortest_path_avoiding(
    successors: Sequence[Sequence[int]],
    src: int,
    dst: int,
    banned: Iterable[int] = (),
    removed_edges: Optional[Set[Tuple[int, int]]] = None,
) -> Optional[List[int]]:
    """BFS shortest path over out-neighbor lists, avoiding nodes/edges.

    The workhorse of Yen's spur loop: ``successors`` comes from the
    topology's cached CSR adjacency (plain int lists, one per node), so
    the spur search neither iterates dict-of-Counter rows nor mutates
    the graph -- root-path edges are excluded through ``removed_edges``
    and root-path nodes through ``banned``.

    Returns the node list from ``src`` to ``dst``, or ``None`` when no
    path avoids the exclusions.
    """
    if src == dst:
        return [src] if src not in set(banned) else None
    prev = [-1] * len(successors)
    for node in banned:
        prev[node] = -2  # visited-marker: never expanded
    if prev[src] == -2:
        return None
    prev[src] = src
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nbr in successors[node]:
            if prev[nbr] != -1:
                continue
            if removed_edges and (node, nbr) in removed_edges:
                continue
            prev[nbr] = node
            if nbr == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(nbr)
    return None


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """``out[i] = counts[:i].sum()``: where each run starts in a flat array."""
    out = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs ``starts[i] .. starts[i] + counts[i] - 1``, one by one."""
    total = int(counts.sum())
    return np.repeat(starts - _exclusive_cumsum(counts), counts) + np.arange(
        total, dtype=np.int64
    )


@dataclass(frozen=True, eq=False)
class MinHopRoutes:
    """Min-hop path sets of every ordered pair, as three flat arrays.

    Pair ``src * n + dst`` owns paths ``pair_ptr[pair]`` up to
    ``pair_ptr[pair + 1]``; path ``i`` is the node sequence
    ``nodes[path_ptr[i]:path_ptr[i + 1]]`` from ``src`` to ``dst``.
    Diagonal and unreachable pairs own no path.  The arrays are made
    read-only, so a deep copy shares them instead of copying.
    """

    n: int
    pair_ptr: np.ndarray  # (n * n + 1,) int64
    path_ptr: np.ndarray  # (paths + 1,) int64
    nodes: np.ndarray     # (path_ptr[-1],) int32

    def __post_init__(self):
        for array in (self.pair_ptr, self.path_ptr, self.nodes):
            array.flags.writeable = False

    def __deepcopy__(self, memo) -> "MinHopRoutes":
        return self

    def path_counts(self) -> np.ndarray:
        """Number of paths of every pair, indexed by ``src * n + dst``."""
        return np.diff(self.pair_ptr)

    def _paths(self, first: int, last: int) -> List[List[int]]:
        """Paths ``first`` up to ``last - 1`` as node lists."""
        bounds = self.path_ptr[first: last + 1].tolist()
        base = bounds[0]
        flat = self.nodes[base: bounds[-1]].tolist()
        return [flat[a - base: b - base] for a, b in zip(bounds, bounds[1:])]

    def path_set(self, src: int, dst: int) -> PathSet:
        """The paths of one pair as int tuples (``()`` when it has none)."""
        pair = src * self.n + dst
        first, last = self.pair_ptr[pair: pair + 2].tolist()
        return tuple(map(tuple, self._paths(first, last)))

    def path_sets(self) -> Iterator[Tuple[Tuple[int, int], PathSet]]:
        """``((src, dst), paths)`` of every pair with a path, in pair order."""
        paths = self._paths(0, self.path_ptr.size - 1)
        ptr = self.pair_ptr.tolist()
        for pair in np.flatnonzero(self.path_counts()).tolist():
            yield divmod(pair, self.n), tuple(
                map(tuple, paths[ptr[pair]: ptr[pair + 1]])
            )

    def paths_from(self, src: int) -> Dict[int, List[List[int]]]:
        """Destination -> path lists of one source, nearest first.

        Destinations come in (hop count, id) order, the order the
        per-source reference DP (:func:`repro.oracles.
        min_hop_paths_from_source`) fills its dict in.
        """
        n = self.n
        ptr = self.pair_ptr[src * n: (src + 1) * n + 1].tolist()
        paths = self._paths(ptr[0], ptr[-1])
        by_dst = [
            (dst, paths[ptr[dst] - ptr[0]: ptr[dst + 1] - ptr[0]])
            for dst in range(n)
            if ptr[dst + 1] > ptr[dst]
        ]
        by_dst.sort(key=lambda item: (len(item[1][0]), item[0]))
        return dict(by_dst)

    def first(self, keep: np.ndarray) -> "MinHopRoutes":
        """The first ``keep[pair]`` paths of every pair (all, if fewer)."""
        counts = self.path_counts()
        take = np.minimum(counts, keep)
        if np.array_equal(take, counts):
            return self
        kept = _ranges(self.pair_ptr[:-1], take)
        lens = np.diff(self.path_ptr)[kept]
        return MinHopRoutes(
            n=self.n,
            pair_ptr=np.concatenate(([0], np.cumsum(take))),
            path_ptr=np.concatenate(([0], np.cumsum(lens))),
            nodes=self.nodes[_ranges(self.path_ptr[kept], lens)],
        )


def min_hop_routes(
    hops: np.ndarray,
    pred_ptr: np.ndarray,
    pred_idx: np.ndarray,
    cap: int,
) -> MinHopRoutes:
    """Up to ``cap`` min-hop paths of every ordered pair, in one pass.

    Dynamic programming over all sources at once, one hop-count layer
    at a time: a pair ``(src, v)`` at hop ``k`` walks the in-neighbours
    of ``v`` in CSR order (``pred_idx[pred_ptr[v]:pred_ptr[v + 1]]``),
    concatenates the paths of every ``(src, p)`` at hop ``k - 1``,
    keeps the first ``cap`` of that concatenation and appends ``v``.
    That is the per-source DP of :func:`repro.oracles.
    min_hop_paths_from_source`, path for path and in the same order:
    capping each predecessor's own list is lossless for the capped
    result (``sum(min(cap, c_p)) >= min(cap, sum(c_p))``).  Like that
    DP, every reachable pair keeps at least one path, even for
    ``cap < 1``.

    ``hops`` is the ``(n, n)`` hop-count matrix (``np.inf`` for
    unreachable pairs).  Each layer is a handful of NumPy gathers over
    its candidate paths, so the work is bounded by the output plus one
    pass over each layer's (pair, predecessor) entries.
    """
    n = hops.shape[0]
    cap = max(int(cap), 1)
    dist = np.where(np.isfinite(hops), hops, UNREACHABLE).astype(
        np.int64
    ).reshape(-1)
    by_hops = np.argsort(dist, kind="stable")
    layer_bounds = np.searchsorted(
        dist[by_hops], np.arange(int(dist.max(initial=0)) + 2)
    )
    # Each pair's paths sit at start[pair]:start[pair] + count[pair] of
    # its own layer's node matrix.
    start = np.zeros(n * n, dtype=np.int64)
    count = np.zeros(n * n, dtype=np.int64)
    diagonal = np.arange(n, dtype=np.int64) * (n + 1)
    start[diagonal] = np.arange(n)
    count[diagonal] = 1
    layer = np.arange(n, dtype=np.int32).reshape(n, 1)
    # Every path grown, layer after layer: its pair, length and nodes.
    path_pairs = [np.zeros(0, dtype=np.int64)]
    path_lens = [np.zeros(0, dtype=np.int64)]
    path_nodes = [np.zeros(0, dtype=np.int32)]
    for hop in range(1, layer_bounds.size - 1):
        pairs = by_hops[layer_bounds[hop]: layer_bounds[hop + 1]]
        src, dst = np.divmod(pairs, n)
        degrees = pred_ptr[dst + 1] - pred_ptr[dst]
        preds = pred_idx[_ranges(pred_ptr[dst], degrees)]
        # (pair, predecessor) candidates, pair by pair in CSR order;
        # only predecessors one hop nearer the source lie on the DAG.
        cand = np.repeat(np.arange(pairs.size), degrees)
        prev = src[cand] * n + preds
        on_dag = dist[prev] == hop - 1
        cand, prev = cand[on_dag], prev[on_dag]
        avail = count[prev]
        # Paths already taken by the pair's earlier predecessors.
        before = _exclusive_cumsum(avail)
        group_first = np.searchsorted(cand, cand)
        before -= before[group_first]
        take = np.clip(cap - before, 0, avail)
        picked = _ranges(start[prev], take)
        owner = np.repeat(cand, take)
        grown = np.empty((picked.size, hop + 1), dtype=np.int32)
        grown[:, :hop] = layer[picked]
        grown[:, hop] = dst[owner]
        taken = np.bincount(owner, minlength=pairs.size)
        count[pairs] = taken
        start[pairs] = _exclusive_cumsum(taken)
        path_pairs.append(pairs[owner])
        path_lens.append(np.full(picked.size, hop + 1, dtype=np.int64))
        path_nodes.append(grown.reshape(-1))
        layer = grown
    # Layers hold pairs in hop order; a stable sort by pair id keeps
    # each pair's paths in DP order.
    count[diagonal] = 0
    order = np.argsort(np.concatenate(path_pairs), kind="stable")
    lens = np.concatenate(path_lens)
    return MinHopRoutes(
        n=n,
        pair_ptr=np.concatenate(([0], np.cumsum(count))),
        path_ptr=np.concatenate(([0], np.cumsum(lens[order]))),
        nodes=np.concatenate(path_nodes)[
            _ranges(_exclusive_cumsum(lens)[order], lens[order])
        ],
    )
