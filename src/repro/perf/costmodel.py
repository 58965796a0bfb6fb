"""Sparse incremental iteration-cost kernels for the strategy search.

The alternating co-optimization (section 4.1) only works because the
analytic cost model is orders of magnitude faster than simulating,
letting MCMC take thousands of placement steps.  This module supplies
the kernels that make each step cheap:

* :class:`CostModelKernel` -- per fabric, a pair -> link routing-
  fraction matrix ``R`` is assembled **once** (one per traffic kind),
  so a phase's link loads are a single sparse mat-vec ``R.T @ demand``
  and the busiest-link time is a NumPy max over ``link_bits /
  capacity``, replacing the per-path Python loops of the seed
  ``IterationCostModel``.
* :class:`CompiledLayerTraffic` -- one layer's contribution to the
  traffic summary, pre-multiplied through ``R`` into a per-link load
  vector, so re-placing a layer touches O(links) state instead of
  re-routing all n^2 pairs.
* :class:`IncrementalCostEvaluator` -- the delta-updated cost state a
  Metropolis chain mutates: proposing a move subtracts the moved
  layer's old load vector and adds the new one; rejecting undoes in
  O(delta).  Cached aggregates are re-synchronized from the per-layer
  vectors every :data:`SYNC_INTERVAL` deltas so floating-point drift
  stays bounded, and the full rebuild
  (:meth:`IncrementalCostEvaluator.rebuild`) is retained as the
  equivalence oracle -- exactness never rests on the delta path.

The pure-Python seed cost model is the oracle
:class:`repro.oracles.ReferenceIterationCostModel`; equivalence tests
pin the two together (``tests/test_costmodel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy import sparse

if TYPE_CHECKING:  # break the repro.parallel <-> repro.perf import cycle
    from repro.parallel.traffic import LayerTraffic, TrafficSummary

Link = Tuple[int, int]

#: Deltas applied between full re-synchronizations of the cached
#: aggregate load vectors (bounds floating-point drift the same way
#: ``IncrementalFairShare.SYNC_INTERVAL`` does for the flow solver).
SYNC_INTERVAL = 256


def _flatten_pair_paths(
    fabric, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair's MP paths, flattened pair by pair.

    The generic source of :meth:`CostModelKernel.mp_routing`: asks
    ``fabric.paths`` for every ordered pair of the ``n``-server id space
    and returns what the ``mp_route_arrays()`` hook does -- the pair ids
    ``src * n + dst`` with a path, paths per pair, every path's node
    count, and the nodes of all paths back to back.
    """
    pairs: List[int] = []
    path_counts: List[int] = []
    paths_flat: List[Sequence[int]] = []
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            paths = fabric.paths(src, dst, "mp")
            if paths:
                pairs.append(src * n + dst)
                path_counts.append(len(paths))
                paths_flat.extend(paths)
    lens = np.fromiter(
        map(len, paths_flat), dtype=np.int64, count=len(paths_flat)
    )
    nodes = np.fromiter(
        chain.from_iterable(paths_flat), dtype=np.int64,
        count=int(lens.sum()),
    )
    return (
        np.asarray(pairs, dtype=np.int64),
        np.asarray(path_counts, dtype=np.int64),
        lens,
        nodes,
    )


@dataclass
class _MPRouting:
    """MP routing state for one pair-space size ``n``."""

    matrix: sparse.csr_matrix  # (n*n pairs) x (links), routing fractions
    unroutable: np.ndarray     # bool per pair: demand here costs inf


@dataclass
class CompiledLayerTraffic:
    """One layer's traffic contribution, pre-routed onto the links.

    ``mp_loads[l]`` is the byte load layer demand places on link ``l``
    after ECMP splitting -- i.e. ``R.T @ demand`` restricted to the
    layer's pairs, computed once and cached so a placement delta is a
    vector add/subtract.
    """

    source: "LayerTraffic"
    mp_loads: np.ndarray       # (num_links,) routed byte loads
    unroutable_bytes: float    # MP bytes falling on pathless pairs

    @property
    def dp_replicas(self) -> Optional[Tuple[int, ...]]:
        return self.source.dp_replicas

    @property
    def dp_bytes(self) -> float:
        return self.source.dp_bytes


class CostModelKernel:
    """Per-fabric routing matrices and vectorized phase times.

    Assembled once per fabric and shared across MCMC proposals, search
    restarts, and alternating-optimization rounds.  The three queries:

    * :meth:`mp_time` / :meth:`allreduce_time` / :meth:`cost` -- full
      evaluations of a :class:`TrafficSummary` (the fast path behind
      :class:`repro.parallel.mcmc.IterationCostModel`);
    * :meth:`compile_layer` -- pre-route one layer's contribution for
      the incremental evaluator;
    * :meth:`allreduce_unit_loads` -- per-link byte loads of a 1-byte
      AllReduce over a member set (loads scale linearly in the group's
      bytes, so one unit vector serves every byte count).
    """

    def __init__(self, fabric):
        self.fabric = fabric
        caps = fabric.capacities()
        self.links: List[Link] = list(caps)
        self.link_index: Dict[Link, int] = {
            link: i for i, link in enumerate(self.links)
        }
        self.capacities_bps = np.asarray(
            [caps[link] for link in self.links], dtype=float
        )
        self.num_links = len(self.links)
        self._mp_routing: Dict[int, _MPRouting] = {}
        self._ar_units: Dict[Tuple[int, ...], Optional[np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Routing-matrix assembly
    # ------------------------------------------------------------------
    def _link_id(self, a: int, b: int) -> int:
        try:
            return self.link_index[(a, b)]
        except KeyError:
            raise KeyError(f"routed traffic uses unknown link {(a, b)}")

    def _link_ids(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Link index of every ``heads[i] -> tails[i]`` hop.

        Looked up in a sorted table of ``a * stride + b`` link codes
        with :func:`np.searchsorted`; a hop on a link the fabric lacks
        raises :class:`KeyError` naming the first such link, as
        :meth:`_link_id` does.
        """
        ends = np.asarray(self.links, dtype=np.int64).reshape(-1, 2)
        stride = 1 + int(max(
            ends.max(initial=0), heads.max(initial=0), tails.max(initial=0)
        ))
        link_codes = ends[:, 0] * stride + ends[:, 1]
        order = np.argsort(link_codes)
        sorted_codes = link_codes[order]
        codes = heads * stride + tails
        pos = np.searchsorted(sorted_codes, codes)
        known = pos < sorted_codes.size
        known[known] = sorted_codes[pos[known]] == codes[known]
        if not known.all():
            bad = int(np.argmin(known))
            link = (int(heads[bad]), int(tails[bad]))
            raise KeyError(f"routed traffic uses unknown link {link}")
        return order[pos]

    def mp_routing(self, n: int) -> _MPRouting:
        """The (n*n x links) MP routing-fraction matrix, built lazily.

        Row ``src * n + dst`` holds the fraction of that pair's bytes
        each link carries under equal splitting over the fabric's MP
        path set; pairs without any path are flagged ``unroutable``
        (demand there makes the phase time infinite, as in the seed).
        The routes come from the fabric's ``mp_route_arrays()`` hook
        while it has them (TopoOpt's route arrays), else from its
        ``paths`` pair by pair.  The COO triplets run in pair, path,
        hop order, so the matrix is the same bit for bit as one
        assembled hop by hop.
        """
        routing = self._mp_routing.get(n)
        if routing is not None:
            return routing
        arrays = None
        hook = getattr(self.fabric, "mp_route_arrays", None)
        if hook is not None and getattr(self.fabric, "num_servers", None) == n:
            arrays = hook()
        if arrays is None:
            arrays = _flatten_pair_paths(self.fabric, n)
        pairs, per_pair, lens, nodes = arrays
        flat = np.asarray(nodes, dtype=np.int64)
        unroutable = np.ones(n * n, dtype=bool)
        unroutable[:: n + 1] = False
        unroutable[pairs] = False
        # Every node but the last of each path heads one hop.
        is_head = np.ones(flat.size, dtype=bool)
        is_head[np.cumsum(lens) - 1] = False
        head_pos = np.flatnonzero(is_head)
        hops = lens - 1
        rows = np.repeat(np.repeat(pairs, per_pair), hops)
        cols = self._link_ids(flat[head_pos], flat[head_pos + 1])
        data = np.repeat(np.repeat(1.0 / per_pair, per_pair), hops)
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(n * n, self.num_links)
        )
        routing = _MPRouting(matrix=matrix, unroutable=unroutable)
        self._mp_routing[n] = routing
        return routing

    def allreduce_unit_loads(
        self, members: Tuple[int, ...]
    ) -> Optional[np.ndarray]:
        """Per-link byte loads of a 1-byte AllReduce over ``members``.

        Mirrors the seed accounting: dedicated ring edges when the
        fabric advertises them (``ring_edge_paths``), otherwise the
        ring-neighbor transfers ECMP-split over the fabric's AllReduce
        paths.  Returns ``None`` when some neighbor pair has no path
        (any positive byte count is then unroutable -> infinite time).
        """
        members = tuple(members)
        if members in self._ar_units:
            return self._ar_units[members]
        loads = self._compute_allreduce_unit(members)
        self._ar_units[members] = loads
        return loads

    def _compute_allreduce_unit(
        self, members: Tuple[int, ...]
    ) -> Optional[np.ndarray]:
        from repro.parallel.collectives import allreduce_edge_bytes

        k = len(members)
        loads = np.zeros(self.num_links)
        if k < 2:
            return loads
        ring_paths = []
        if hasattr(self.fabric, "ring_edge_paths"):
            ring_paths = self.fabric.ring_edge_paths(members)
        if ring_paths:
            for path, num_rings in ring_paths:
                per_edge = allreduce_edge_bytes(1.0, k, num_rings)
                for a, b in zip(path, path[1:]):
                    loads[self._link_id(a, b)] += per_edge
            return loads
        per_edge = allreduce_edge_bytes(1.0, k)
        for i in range(k):
            src, dst = members[i], members[(i + 1) % k]
            paths = self.fabric.paths(src, dst, "allreduce")
            if not paths:
                return None
            share = per_edge / len(paths)
            for path in paths:
                for a, b in zip(path, path[1:]):
                    loads[self._link_id(a, b)] += share
        return loads

    # ------------------------------------------------------------------
    # Phase times (vectorized)
    # ------------------------------------------------------------------
    def phase_time(self, link_loads_bytes: np.ndarray) -> float:
        """Busiest-link time of a phase given per-link byte loads."""
        if self.num_links == 0 or link_loads_bytes.size == 0:
            return 0.0
        worst = float(np.max(link_loads_bytes / self.capacities_bps))
        # Delta updates can leave -1e-25-scale residues on idle links.
        return max(0.0, 8.0 * worst)

    def compile_layer(self, contribution: LayerTraffic) -> CompiledLayerTraffic:
        """Pre-route a layer contribution into a per-link load vector.

        Gathers the layer's rows straight from the CSR arrays and sums
        ``data * bytes`` per link with :func:`np.bincount`, which adds
        in row, then entry order -- the order of scipy's
        ``matrix[idx].T.dot(values)`` -- so the loads are bitwise the
        same without building three sparse objects per call.
        """
        n = contribution.n
        routing = self.mp_routing(n)
        idx = contribution.mp_pair_indices
        values = contribution.mp_pair_bytes
        if idx.size:
            matrix = routing.matrix
            starts = matrix.indptr[idx]
            counts = matrix.indptr[idx + 1] - starts
            # Positions of the selected rows' entries, row after row.
            firsts = np.cumsum(counts) - counts
            entries = np.repeat(starts - firsts, counts) + np.arange(
                int(counts.sum())
            )
            # bincount returns integer zeros when no selected pair has a
            # path (diagonal or unroutable pairs only); loads are float.
            mp_loads = np.bincount(
                matrix.indices[entries],
                weights=matrix.data[entries] * np.repeat(values, counts),
                minlength=self.num_links,
            ).astype(float, copy=False)
            unroutable = float(values[routing.unroutable[idx]].sum())
        else:
            mp_loads = np.zeros(self.num_links)
            unroutable = 0.0
        return CompiledLayerTraffic(
            source=contribution,
            mp_loads=mp_loads,
            unroutable_bytes=unroutable,
        )

    def mp_time(self, traffic: TrafficSummary) -> float:
        """Vectorized equivalent of the seed per-pair MP routing loop."""
        routing = self.mp_routing(traffic.n)
        demand = np.asarray(traffic.mp_matrix, dtype=float).reshape(-1)
        if float(demand[routing.unroutable].sum()) > 0.0:
            return math.inf
        loads = np.asarray(routing.matrix.T.dot(demand)).reshape(-1)
        return self.phase_time(loads)

    def allreduce_time(self, traffic: TrafficSummary) -> float:
        """Vectorized equivalent of the seed per-group AllReduce loop."""
        loads = np.zeros(self.num_links)
        for group in traffic.allreduce_groups:
            if group.size < 2 or group.total_bytes <= 0:
                continue
            unit = self.allreduce_unit_loads(group.members)
            if unit is None:
                return math.inf
            loads += group.total_bytes * unit
        return self.phase_time(loads)

    def cost(self, traffic: TrafficSummary, compute_s: float) -> float:
        return compute_s + self.mp_time(traffic) + self.allreduce_time(traffic)


class IncrementalCostEvaluator:
    """Delta-updated iteration cost over compiled layer contributions.

    State: the per-layer compiled contributions, the aggregate MP
    link-load vector, the per-replica-set AllReduce byte totals, and
    the aggregate AllReduce link-load vector.  Invariants:

    * **Additivity.**  Every aggregate equals the sum of the current
      per-layer terms; :meth:`set_layer` maintains this with one
      vector subtract + add (O(links)), whatever ``n`` is.
    * **Bounded drift.**  After :data:`SYNC_INTERVAL` deltas the
      aggregates are rebuilt from the per-layer vectors
      (:meth:`rebuild`), so accumulated float error cannot grow
      unboundedly along a long Metropolis chain.
    * **Oracle equivalence.**  :meth:`rebuild` *is* the full-rebuild
      evaluation; the incremental state must match it (and the
      pure-Python reference cost model) to ~1e-12 relative at every
      step -- enforced by ``tests/test_costmodel.py`` and
      ``tests/test_mcmc.py``.
    """

    def __init__(self, kernel: CostModelKernel, compute_s: float):
        self.kernel = kernel
        self.compute_s = compute_s
        self._layers: Dict[str, CompiledLayerTraffic] = {}
        self._mp_loads = np.zeros(kernel.num_links)
        # Unroutability is tracked as exact integer counts of the
        # contributing layers, not float byte sums: add/subtract
        # residues must never leave a spurious "still unroutable" (or
        # "became routable") state behind.
        self._mp_unroutable_layers = 0
        self._ar_bytes: Dict[Tuple[int, ...], float] = {}
        self._ar_loads = np.zeros(kernel.num_links)
        self._ar_unroutable_layers = 0
        self._deltas_since_sync = 0

    # ------------------------------------------------------------------
    def reset(self, layers: Mapping[str, CompiledLayerTraffic]) -> None:
        """Load a full strategy's contributions and rebuild aggregates."""
        self._layers = dict(layers)
        self.rebuild()

    def layer(self, name: str) -> CompiledLayerTraffic:
        return self._layers[name]

    def set_layer(self, name: str, compiled: CompiledLayerTraffic) -> None:
        """Replace one layer's contribution (O(links) delta update)."""
        old = self._layers.get(name)
        if old is not None:
            self._apply(old, -1.0)
        self._layers[name] = compiled
        self._apply(compiled, +1.0)
        self._deltas_since_sync += 1
        if self._deltas_since_sync >= SYNC_INTERVAL:
            self.rebuild()

    def _apply(self, compiled: CompiledLayerTraffic, sign: float) -> None:
        self._mp_loads += sign * compiled.mp_loads
        if compiled.unroutable_bytes > 0:
            self._mp_unroutable_layers += int(sign)
        if compiled.dp_replicas is not None:
            members = compiled.dp_replicas
            delta = sign * compiled.dp_bytes
            self._ar_bytes[members] = self._ar_bytes.get(members, 0.0) + delta
            unit = self.kernel.allreduce_unit_loads(members)
            if unit is None:
                # Layers only report dp_replicas with positive bytes, so
                # a non-zero count is exactly "some group is unroutable".
                self._ar_unroutable_layers += int(sign)
            else:
                self._ar_loads += delta * unit

    def rebuild(self) -> None:
        """Recompute every aggregate from the per-layer contributions.

        This is the oracle the delta path must agree with; it also
        resets the drift clock.
        """
        kernel = self.kernel
        self._mp_loads = np.zeros(kernel.num_links)
        self._mp_unroutable_layers = 0
        self._ar_bytes = {}
        self._ar_loads = np.zeros(kernel.num_links)
        self._ar_unroutable_layers = 0
        for compiled in self._layers.values():
            self._mp_loads += compiled.mp_loads
            if compiled.unroutable_bytes > 0:
                self._mp_unroutable_layers += 1
            if compiled.dp_replicas is not None:
                members = compiled.dp_replicas
                self._ar_bytes[members] = (
                    self._ar_bytes.get(members, 0.0) + compiled.dp_bytes
                )
                if kernel.allreduce_unit_loads(members) is None:
                    self._ar_unroutable_layers += 1
        for members, total in self._ar_bytes.items():
            if len(members) < 2 or total <= 0:
                continue
            unit = kernel.allreduce_unit_loads(members)
            if unit is not None:
                self._ar_loads += total * unit
        self._deltas_since_sync = 0

    # ------------------------------------------------------------------
    def mp_time(self) -> float:
        if self._mp_unroutable_layers > 0:
            return math.inf
        return self.kernel.phase_time(self._mp_loads)

    def allreduce_time(self) -> float:
        if self._ar_unroutable_layers > 0:
            return math.inf
        return self.kernel.phase_time(self._ar_loads)

    def cost(self) -> float:
        return self.compute_s + self.mp_time() + self.allreduce_time()
