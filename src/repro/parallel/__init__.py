"""Parallelization strategies, traffic extraction, and the MCMC search.

This subpackage is the reproduction's FlexFlow analog (the Comp. x Comm.
plane of the alternating optimization):

* :mod:`repro.parallel.strategy` -- layer placements (data parallel,
  model parallel on a server, sharded all-to-all) and whole-job
  strategies.
* :mod:`repro.parallel.traffic` -- extraction of AllReduce groups and the
  MP traffic matrix from (model, strategy, batch), i.e. the traffic
  heatmaps of Figures 1/4/8/9, decomposed into additive per-layer
  contributions (:func:`~repro.parallel.traffic.layer_traffic`).
* :mod:`repro.parallel.collectives` -- collective algorithms (ring,
  multi-ring, double binary tree, parameter server, hierarchical).
* :mod:`repro.parallel.mcmc` -- the MCMC strategy search with a
  topology-aware iteration-time cost model, delta-scored through the
  sparse kernel in :mod:`repro.perf.costmodel` (seed full-rebuild path
  retained as the oracle).
"""

from repro.parallel.strategy import (
    LayerPlacement,
    ParallelizationStrategy,
    PlacementKind,
    data_parallel_strategy,
    hybrid_strategy,
)
from repro.parallel.traffic import (
    LayerTraffic,
    TrafficSummary,
    extract_traffic,
    layer_traffic,
)
from repro.parallel.collectives import (
    CollectiveAlgorithm,
    allreduce_edge_bytes,
    collective_traffic,
)
from repro.parallel.mcmc import (
    IterationCostModel,
    MCMCResult,
    MCMCSearch,
)

__all__ = [
    "LayerPlacement",
    "ParallelizationStrategy",
    "PlacementKind",
    "data_parallel_strategy",
    "hybrid_strategy",
    "LayerTraffic",
    "TrafficSummary",
    "extract_traffic",
    "layer_traffic",
    "CollectiveAlgorithm",
    "allreduce_edge_bytes",
    "collective_traffic",
    "MCMCSearch",
    "MCMCResult",
    "IterationCostModel",
]
