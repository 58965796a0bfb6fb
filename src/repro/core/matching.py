"""Maximum-weight matching for the MP sub-topology.

Paper reference: Algorithm 1, step 3.

TopoOpt connects servers exchanging Model-Parallel (MP) traffic with a
sequence of maximum-weight matchings (Edmonds' Blossom algorithm): each
matching round consumes one interface per matched server, and the demand
on freshly matched pairs is halved before the next round so repeated
rounds diversify connectivity instead of piling parallel links onto the
single heaviest pair (the "diminishing return" of Algorithm 1 line 17).

:func:`max_weight_matching` decomposes the demand graph into connected
components (``scipy.sparse.csgraph``) and solves each *bipartite*
component -- paths, stars, even cycles, and most real MP demand graphs
-- with the Hungarian kernel
(:func:`scipy.optimize.linear_sum_assignment` over a zero-padded
bipartite weight matrix, which is exact for non-negative weights
because any matching extends to a padded perfect matching of equal
weight).  Components containing odd cycles fall back to Galil's
O(n^3) Blossom from :mod:`networkx`, so every input is solved exactly.
The historical all-Blossom implementation is retained as
:func:`max_weight_matching_reference`, the tests' equivalence oracle.
:mod:`networkx` is imported only where Blossom runs: it is costly to
import, and most processes never reach Blossom.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

Pair = Tuple[int, int]


def max_weight_matching_reference(demand: np.ndarray) -> Set[Pair]:
    """The seed implementation: Blossom over an explicit nx graph.

    Kept verbatim as the equivalence oracle for
    :func:`max_weight_matching` -- both return a maximum-weight
    matching, and the tests assert equal total weight on every
    structure either can see.
    """
    import networkx as nx

    n = demand.shape[0]
    if demand.shape != (n, n):
        raise ValueError(f"demand must be square, got {demand.shape}")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            weight = float(demand[i, j]) + float(demand[j, i])
            if weight > 0:
                graph.add_edge(i, j, weight=weight)
    matching = nx.max_weight_matching(graph, maxcardinality=False)
    return {(min(a, b), max(a, b)) for a, b in matching}


def _bipartite_component_matching(
    nodes: np.ndarray, color: np.ndarray, weights: np.ndarray,
    matched: Set[Pair],
) -> None:
    """Hungarian solve of one 2-colored component into ``matched``."""
    from scipy.optimize import linear_sum_assignment

    left = nodes[color[nodes] == 0]
    right = nodes[color[nodes] == 1]
    size = max(left.size, right.size)
    # Zero padding to square: unmatched vertices pair with a phantom
    # partner at zero weight, so maximizing the assignment maximizes
    # the matching weight exactly (weights are non-negative).
    cost = np.zeros((size, size))
    cost[:left.size, :right.size] = weights[np.ix_(left, right)]
    rows, cols = linear_sum_assignment(cost, maximize=True)
    keep = cost[rows, cols] > 0
    for r, c in zip(rows[keep], cols[keep]):
        a, b = int(left[r]), int(right[c])
        matched.add((min(a, b), max(a, b)))


def max_weight_matching(demand: np.ndarray) -> Set[Pair]:
    """One round of maximum-weight matching over a demand matrix.

    Parameters
    ----------
    demand:
        ``n x n`` array of (symmetrized) traffic demand in bytes.  Entries
        ``demand[i, j] + demand[j, i]`` form the undirected edge weight.

    Returns
    -------
    Set of matched pairs ``(i, j)`` with ``i < j``.  Zero-demand pairs are
    never matched.
    """
    n = demand.shape[0]
    if demand.shape != (n, n):
        raise ValueError(f"demand must be square, got {demand.shape}")
    from scipy import sparse
    from scipy.sparse import csgraph

    dense = np.asarray(demand, dtype=float)
    weights = dense + dense.T
    np.fill_diagonal(weights, 0.0)
    if not (weights > 0).any():
        return set()
    adjacency = sparse.csr_matrix(weights > 0)
    num_components, labels = csgraph.connected_components(
        adjacency, directed=False
    )
    indptr, indices = adjacency.indptr, adjacency.indices
    color = np.full(n, -1, dtype=np.int8)
    matched: Set[Pair] = set()
    for component in range(num_components):
        nodes = np.flatnonzero(labels == component)
        if nodes.size < 2:
            continue
        # 2-coloring BFS: bipartite components go to the Hungarian
        # kernel, odd-cycle components to the Blossom oracle.
        bipartite = True
        color[nodes[0]] = 0
        stack = [int(nodes[0])]
        while stack:
            u = stack.pop()
            for v in indices[indptr[u]:indptr[u + 1]]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    stack.append(int(v))
                elif color[v] == color[u]:
                    bipartite = False
        if bipartite:
            _bipartite_component_matching(nodes, color, weights, matched)
            continue
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(int(u) for u in nodes)
        for u in nodes:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if u < v:
                    graph.add_edge(
                        int(u), int(v), weight=float(weights[u, v])
                    )
        blossom = nx.max_weight_matching(graph, maxcardinality=False)
        matched.update((min(a, b), max(a, b)) for a, b in blossom)
    return matched


def halve_discount(value: float) -> float:
    """The paper's default diminishing-return: divide demand by two."""
    return value / 2.0


def mp_matchings(
    demand: np.ndarray,
    rounds: int,
    discount: Optional[Callable[[float], float]] = None,
) -> List[Set[Pair]]:
    """Run ``rounds`` of matching with demand discounting between rounds.

    Implements Algorithm 1 lines 13-17: after each matching, the demand on
    every matched pair is passed through ``discount`` (default: halving) so
    later rounds favour unmatched pairs.

    Returns a list of matchings, one per round.  Rounds where no positive
    demand remains produce empty matchings.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    if discount is None:
        discount = halve_discount
    work = np.array(demand, dtype=float, copy=True)
    matchings: List[Set[Pair]] = []
    for _ in range(rounds):
        matched = max_weight_matching(work)
        matchings.append(matched)
        for (i, j) in matched:
            work[i, j] = discount(work[i, j])
            work[j, i] = discount(work[j, i])
    return matchings


def matching_edge_counts(matchings: List[Set[Pair]]) -> Dict[Pair, int]:
    """Aggregate how many rounds selected each pair (parallel-link count)."""
    counts: Dict[Pair, int] = {}
    for matched in matchings:
        for pair in matched:
            counts[pair] = counts.get(pair, 0) + 1
    return counts
