"""The alternating optimization framework (section 4.1, Figure 6).

The joint (computation x communication x topology) space is too large to
search directly; TopoOpt alternates between two planes:

* **Comp. x Comm.**: a strategy search (MCMC, injected as ``search``)
  finds the best parallelization strategy *for a fixed topology*;
* **Comm. x Topo.**: TopologyFinder (Algorithm 1) builds the best
  topology and routing *for the resulting traffic*.

The loop repeats until the estimated iteration time stops improving or
``max_rounds`` is hit (the paper's configurable ``k``).  The search
object is injected so the core stays independent of the strategy-search
implementation; :class:`repro.parallel.mcmc.MCMCSearch` is the intended
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.topology_finder import TopologyFinderResult, topology_finder
from repro.obs import TRACER


@dataclass
class AlternatingRound:
    """Record of one alternating-optimization round."""

    round_index: int
    cost_s: float
    allreduce_bytes: float
    mp_bytes: float


@dataclass
class AlternatingResult:
    """Final co-optimized strategy, topology, and fabric."""

    strategy: object
    traffic: object
    topology_result: TopologyFinderResult
    fabric: object
    cost_s: float
    rounds: List[AlternatingRound] = field(default_factory=list)


class AlternatingOptimizer:
    """Alternate MCMC strategy search with TopologyFinder until converged."""

    def __init__(
        self,
        num_servers: int,
        degree: int,
        link_bandwidth_bps: float,
        search,
        max_rounds: int = 4,
        mcmc_iterations: int = 200,
        primes_only: bool = False,
        tolerance: float = 1e-3,
        mcmc_restarts: int = 1,
    ):
        if max_rounds < 1:
            raise ValueError("need at least one round")
        self.num_servers = num_servers
        self.degree = degree
        self.link_bandwidth_bps = link_bandwidth_bps
        self.search = search
        self.max_rounds = max_rounds
        self.mcmc_iterations = mcmc_iterations
        self.primes_only = primes_only
        self.tolerance = tolerance
        #: Independent MCMC chains per round (best-of); cheap with the
        #: incremental kernel since chains share the routing matrices.
        self.mcmc_restarts = mcmc_restarts

    # ------------------------------------------------------------------
    def _initial_fabric(self):
        """Round-0 fabric: FlexFlow's full-mesh assumption.

        FlexFlow ignores topology by assuming a full mesh; an Ideal
        Switch at aggregate bandwidth ``d x B`` plays that role for the
        first strategy search.
        """
        from repro.network.fattree import IdealSwitchFabric

        return IdealSwitchFabric(
            self.num_servers, self.degree, self.link_bandwidth_bps
        )

    def _fabric_for(self, topology_result: TopologyFinderResult):
        from repro.network.topoopt import TopoOptFabric

        return TopoOptFabric(topology_result, self.link_bandwidth_bps)

    def _cost_model(self, fabric):
        """The cost model that scores a round's strategy on ``fabric``.

        Its routing kernel (``kernel``) carries over to the next
        round's search on the same fabric.
        """
        from repro.parallel.mcmc import IterationCostModel

        return IterationCostModel(fabric, self.search.compute_s)

    def run(self, seed: int = 0) -> AlternatingResult:
        """Run the alternating loop and return the best configuration.

        The per-fabric routing kernel is assembled once per round and
        shared between the round's scoring pass and the *next* round's
        MCMC search on the same fabric, so the search plane never
        re-routes a fabric it has already seen.
        """
        fabric = self._initial_fabric()
        kernel = None  # the first search assembles its own
        best: Optional[AlternatingResult] = None
        rounds: List[AlternatingRound] = []
        previous_cost = float("inf")

        for round_index in range(self.max_rounds):
            with TRACER.span("pipeline.round", cat="pipeline",
                             round=round_index):
                with TRACER.span("pipeline.mcmc_search", cat="pipeline",
                                 round=round_index):
                    mcmc = self.search.search(
                        fabric,
                        iterations=self.mcmc_iterations,
                        restarts=self.mcmc_restarts,
                        kernel=kernel,
                    )
                traffic = mcmc.traffic
                with TRACER.span("pipeline.topology_solve", cat="pipeline",
                                 round=round_index):
                    topology_result = topology_finder(
                        self.num_servers,
                        self.degree,
                        traffic.allreduce_groups,
                        traffic.mp_matrix,
                        primes_only=self.primes_only,
                    )
                fabric = self._fabric_for(topology_result)
                # Score the strategy on its own optimized topology; the
                # kernel carries over to the next round's search.
                with TRACER.span("pipeline.lp_assembly", cat="pipeline",
                                 round=round_index):
                    cost_model = self._cost_model(fabric)
                kernel = cost_model.kernel
                cost = cost_model.cost(traffic)
            TRACER.count("pipeline.rounds")
            rounds.append(
                AlternatingRound(
                    round_index=round_index,
                    cost_s=cost,
                    allreduce_bytes=traffic.total_allreduce_bytes,
                    mp_bytes=traffic.total_mp_bytes,
                )
            )
            if best is None or cost < best.cost_s:
                best = AlternatingResult(
                    strategy=mcmc.strategy,
                    traffic=traffic,
                    topology_result=topology_result,
                    fabric=fabric,
                    cost_s=cost,
                )
            if abs(previous_cost - cost) <= self.tolerance * max(cost, 1e-12):
                break
            previous_cost = cost

        assert best is not None
        best.rounds = rounds
        return best
