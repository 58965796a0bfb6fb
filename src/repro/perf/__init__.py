"""Vectorized performance kernels shared by the hot simulation paths.

This package is the array-based kernel layer the rest of the system
leans on for cluster-scale runs:

- :mod:`repro.perf.fairshare` -- a batched progressive-filling solver
  over a sparse flow--link incidence (compiled by
  :class:`repro.sim.flows.FlowSet`) that computes the max-min fair
  rate allocation with NumPy/scipy.sparse instead of per-(link, flow)
  Python loops, plus its incremental delta-repair counterpart.
- :mod:`repro.perf.graph` -- all-pairs hop counts (one C-level BFS
  sweep per source via ``scipy.sparse.csgraph``), strong-connectivity
  checks, the all-sources min-hop route DP
  (:func:`~repro.perf.graph.min_hop_routes`, whose flat
  :class:`~repro.perf.graph.MinHopRoutes` arrays TopologyFinder's
  routing table keeps and the cost model compiles), and the
  node/edge-avoiding BFS behind Yen's spur searches.
- :mod:`repro.perf.costmodel` -- the sparse iteration-cost kernel for
  the strategy search: per-fabric pair -> link routing matrices
  (compiled straight from a fabric's ``mp_route_arrays()`` when it
  has them),
  compiled per-layer load vectors, and the delta-updated
  :class:`~repro.perf.costmodel.IncrementalCostEvaluator` the MCMC
  inner loop mutates.
- :mod:`repro.perf.bench` -- the micro-benchmark entries and their
  gate table, behind ``benchmarks/bench_perf_kernels.py`` and
  ``repro.cli bench-smoke``.

Consumers: :mod:`repro.sim.fluid` (rate allocation, phase simulation),
:mod:`repro.network.topology` (graph queries, routing support),
:mod:`repro.core.routing_lp` (sparse LP assembly), and
:mod:`repro.parallel.mcmc` / :mod:`repro.core.alternating` (the
incremental cost model).
"""

from repro.perf.fairshare import progressive_filling_rates
from repro.perf.graph import (
    all_pairs_hop_counts,
    is_strongly_connected,
    min_hop_routes,
)

__all__ = [
    "progressive_filling_rates",
    "all_pairs_hop_counts",
    "is_strongly_connected",
    "min_hop_routes",
]
