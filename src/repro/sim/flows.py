"""Flows for the fluid simulator, and the one compiler that lowers them.

:class:`Flow` is one transfer as a Python object -- the public phase
API (:func:`repro.sim.fluid.simulate_phase`) and the oracles speak it.
Every runtime stepper runs on a :class:`FlowSet` instead: flows
compiled against a link table into link rows and sizes, built by
:meth:`FlowSet.from_paths` alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

Link = Tuple[int, int]

_flow_ids = itertools.count()

#: Per-hop propagation delay (the paper sets 1 us throughout section 5).
PER_HOP_LATENCY_S = 1e-6

#: Entries one :class:`FlowSet`'s rate memo may hold.  A shard phase
#: walks one active mask per completion event and every phase of a
#: template replays the same walk: ``bench scenario_fleet --n 1000``
#: peaks at 184 masks (a 275-flow DLRM shard).  The cap only bounds
#: memory where masks never repeat.
_RATE_MEMO_CAP = 512


@dataclass
class Flow:
    """One transfer traversing an explicit node path.

    Attributes
    ----------
    path:
        Node sequence (length >= 2); links are consecutive pairs.
    size_bits:
        Total bits to move.
    kind:
        "allreduce" or "mp" -- used for accounting and routing policy.
    tag:
        Free-form owner tag (job id, collective id) for grouping.
    """

    path: Tuple[int, ...]
    size_bits: float
    kind: str = "mp"
    tag: Optional[object] = None
    flow_id: int = field(default_factory=lambda: next(_flow_ids))
    remaining_bits: float = field(default=None)  # type: ignore[assignment]
    rate_bps: float = 0.0

    def __post_init__(self):
        if len(self.path) < 2:
            raise ValueError("a flow path needs at least two nodes")
        if self.size_bits <= 0:
            raise ValueError(f"flow size must be positive, got {self.size_bits}")
        if self.remaining_bits is None:
            self.remaining_bits = float(self.size_bits)

    @property
    def links(self) -> List[Link]:
        return [
            (self.path[i], self.path[i + 1])
            for i in range(len(self.path) - 1)
        ]

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1

    @property
    def propagation_delay_s(self) -> float:
        return self.hop_count * PER_HOP_LATENCY_S

    @property
    def src(self) -> int:
        return self.path[0]

    @property
    def dst(self) -> int:
        return self.path[-1]

    def __hash__(self):
        return self.flow_id

    def __eq__(self, other):
        return isinstance(other, Flow) and other.flow_id == self.flow_id


class FlowSet:
    """Flows compiled against a link table: rows, sizes and a rate memo.

    ``links`` is the table; a flow's rows are the positions of the
    links it crosses, each once and in ascending order, laid out flow
    after flow (``nnz[f]`` rows for flow ``f``).  ``sizes`` holds bits
    per flow.  The (links x flows) CSR incidence and its transpose are
    built on first use.  A set compiled on a shard-local TopoOpt fabric
    serves every admission of that template: shards are contiguous
    server blocks and relabeling keeps the capacity table's link order,
    so rows, flow order and sizes are the same on every block.  A set
    is immutable except for its rate memo: max-min rate vectors solved
    over its incidence, keyed by the bytes of the capacity vector and
    active mask they were solved for (see :meth:`memo_rates`).
    Callers copy what they keep.
    """

    def __init__(
        self,
        links: Sequence[Link],
        rows: np.ndarray,
        nnz: np.ndarray,
        sizes: np.ndarray,
    ):
        self.links = links
        self.rows = rows
        self.nnz = nnz
        self.sizes = sizes
        self.num_links = len(links)
        self.count = len(nnz)
        self._matrices = None
        self._rate_memo: Dict[Tuple[bytes, bytes], np.ndarray] = {}

    @classmethod
    def from_paths(
        cls,
        paths: Sequence[Sequence[int]],
        sizes_bits: Sequence[float],
        links: Sequence[Link],
    ) -> "FlowSet":
        """Compile integer node ``paths`` against the table ``links``.

        Each hop is encoded as ``a * stride + b`` and looked up in the
        sorted codes of ``links``, and a path that crosses a link twice
        counts it once (the set semantics of the reference allocator),
        so the whole set compiles in a few NumPy passes.

        Raises ``KeyError`` naming the first hop, in flow order, that is
        not in ``links``.

        Example -- two flows on the path 0 -> 1 -> 2, the second only
        over its first hop; row ``r`` is ``links[r]``:

        >>> from repro.sim.flows import FlowSet
        >>> flows = FlowSet.from_paths(
        ...     [(0, 1, 2), (0, 1)], [8e9, 2e9], [(1, 2), (0, 1)]
        ... )
        >>> flows.rows.tolist(), flows.nnz.tolist()
        ([0, 1, 1], [2, 1])
        >>> flows.sizes.tolist()
        [8000000000.0, 2000000000.0]
        >>> flows.link_bytes()
        {(1, 2): 1000000000.0, (0, 1): 1250000000.0}
        """
        links = list(links)
        count = len(paths)
        sizes = np.array(sizes_bits, dtype=float)
        lens = np.fromiter(map(len, paths), dtype=np.int64, count=count)
        flat = np.fromiter(
            itertools.chain.from_iterable(paths),
            dtype=np.int64,
            count=int(lens.sum()),
        )
        table = np.fromiter(
            itertools.chain.from_iterable(links),
            dtype=np.int64,
            count=2 * len(links),
        )
        stride = int(max(flat.max(initial=0), table.max(initial=0))) + 1
        # Every path position but the last of each path heads a hop.
        heads = np.ones(flat.size, dtype=bool)
        heads[np.cumsum(lens) - 1] = False
        head = np.flatnonzero(heads)
        codes = flat[head] * stride + flat[head + 1]
        flow_ids = np.repeat(np.arange(count, dtype=np.int64), lens - 1)
        link_codes = table[0::2] * stride + table[1::2]
        order = np.argsort(link_codes, kind="stable")
        known = link_codes[order]
        at = np.searchsorted(known, codes)
        found = at < known.size
        found[found] = known[at[found]] == codes[found]
        if not found.all():
            bad = int(np.flatnonzero(~found)[0])
            link = (int(flat[head[bad]]), int(flat[head[bad] + 1]))
            raise KeyError(
                f"flow {int(flow_ids[bad])} uses link {link} which does "
                "not exist in the network"
            )
        num_links = len(links)
        pairs = np.unique(flow_ids * num_links + order[at])
        cols, rows = np.divmod(pairs, num_links)
        nnz = np.bincount(cols, minlength=count)
        return cls(links, rows, nnz, sizes)

    def matrices(self) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """``(incidence, incidence.T)`` in CSR form, built once."""
        if self._matrices is None:
            indptr = np.zeros(self.count + 1, dtype=np.int64)
            np.cumsum(self.nnz, out=indptr[1:])
            incidence_t = sparse.csr_matrix(
                (np.ones(len(self.rows)), self.rows, indptr),
                shape=(self.count, self.num_links),
            )
            self._matrices = (incidence_t.T.tocsr(), incidence_t)
        return self._matrices

    def link_bytes(self) -> Dict[Link, float]:
        """Bytes each crossed link carries over the set (Figure 15's CDF).

        Each link's total adds its flows' bytes in flow order.
        """
        incidence = self.matrices()[0]
        totals = incidence @ (self.sizes / 8.0)
        used = np.flatnonzero(np.diff(incidence.indptr))
        return {self.links[row]: float(totals[row]) for row in used.tolist()}

    def memo_rates(self, key: Tuple[bytes, bytes]) -> Optional[np.ndarray]:
        """A copy of the rates memoized under ``key``, or ``None``.

        ``key`` is ``(capacities.tobytes(), active.tobytes())``: with
        the incidence fixed, max-min rates are a pure function of the
        two, so a memoized vector is the one a fresh solve would give.
        """
        rates = self._rate_memo.get(key)
        return None if rates is None else rates.copy()

    def memoize_rates(
        self, key: Tuple[bytes, bytes], rates: np.ndarray
    ) -> None:
        """Remember a copy of ``rates`` under ``key`` (until the cap)."""
        if len(self._rate_memo) < _RATE_MEMO_CAP:
            self._rate_memo[key] = rates.copy()


def matrix_paths(
    matrix, paths_fn
) -> Tuple[List[Tuple[int, ...]], List[float]]:
    """Lower a traffic byte matrix to flow paths and sizes in bits.

    Positive off-diagonal entries are taken in row-major order;
    ``paths_fn(src, dst)`` returns candidate paths and the bytes split
    evenly across them (the simulator's ECMP stand-in).  Raises
    ``ValueError`` for a pair with no path.
    """
    dense = np.asarray(matrix, dtype=float)
    paths: List[Tuple[int, ...]] = []
    sizes: List[float] = []
    # Row-major scan over just the nonzero entries (the Python loop
    # over all n^2 cells dominated fleet-scale scenarios, where the
    # global-id matrix is large and almost empty).
    srcs, dsts = np.nonzero(dense > 0)
    for src, dst in zip(srcs.tolist(), dsts.tolist()):
        if src == dst:
            continue
        byte_count = float(dense[src, dst])
        candidates = paths_fn(src, dst)
        if not candidates:
            raise ValueError(
                f"no path from {src} to {dst}; cannot route "
                f"{byte_count} bytes"
            )
        share = byte_count / len(candidates)
        for path in candidates:
            paths.append(tuple(path))
            sizes.append(share * 8.0)
    return paths, sizes


def flows_from_matrix(
    matrix, paths_fn, kind: str = "mp", tag=None
) -> List[Flow]:
    """:func:`matrix_paths` as :class:`Flow` objects of ``kind``."""
    paths, sizes = matrix_paths(matrix, paths_fn)
    return [
        Flow(path=path, size_bits=size, kind=kind, tag=tag)
        for path, size in zip(paths, sizes)
    ]
