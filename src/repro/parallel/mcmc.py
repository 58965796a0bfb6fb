"""FlexFlow-style MCMC parallelization-strategy search (section 4.1).

FlexFlow explores parallelization strategies with Markov Chain Monte
Carlo over placement moves, scoring candidates with a fast analytic
execution simulator.  This module reimplements that loop for the
placement space the paper's workloads occupy:

* toggle an embedding layer between data-parallel, model-parallel on
  some owner server, and sharded (all-to-all);
* move a model-parallel layer to a different owner.

Candidates are scored by :class:`IterationCostModel`, a topology-aware
analytic estimator (the "FlexNet coarse" model): compute time from the
roofline, plus per-phase communication time lower-bounded by the most
loaded link after routing all transfers over the fabric's paths.  The
Metropolis criterion accepts worse states with probability
``exp(-delta / T)``, and the best state ever visited is returned.

The paper's premise is that this cost model is "orders of magnitude
faster than simulating", so the implementation treats the inner loop as
a hot path: routing lives in a per-fabric sparse matrix
(:class:`repro.perf.costmodel.CostModelKernel`), a proposal re-routes
only the moved layer through a delta update on the cached link-load
vector, and a rejected proposal undoes in O(delta)
(:class:`repro.perf.costmodel.IncrementalCostEvaluator`).  The seed
full-rebuild discipline -- re-extract the whole traffic summary and
re-route all n^2 pairs in Python per proposal -- is the oracle
:class:`repro.oracles.ReferenceMCMCSearch`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.models.base import DNNModel
from repro.obs import TRACER
from repro.models.compute import GPUSpec, A100, compute_time_seconds
from repro.parallel.strategy import (
    LayerPlacement,
    ParallelizationStrategy,
    PlacementKind,
    data_parallel_strategy,
    hybrid_strategy,
)
from repro.parallel.traffic import (
    TrafficSummary,
    extract_traffic,
    layer_traffic,
)
from repro.perf.costmodel import CostModelKernel, IncrementalCostEvaluator
from repro.perf.warmcache import kernel_for as _warm_kernel

#: Cost deltas below this relative threshold are accepted without
#: consuming a random draw.  An analytically-neutral move (e.g. moving
#: an MP owner on a symmetric fabric) produces delta == 0.0 exactly
#: under a full rebuild but an O(1e-16)-relative residue under delta
#: updates; snapping both to "accept" keeps the incremental and
#: full-rebuild scorers on identical trajectories -- the property the
#: per-step equivalence tests rely on.  Real placement deltas in these
#: models are many orders of magnitude above the threshold.
ACCEPT_TOL = 1e-9


class IterationCostModel:
    """Analytic iteration-time estimate on a fabric (FlexNet coarse).

    ``cost(traffic)`` = compute + busiest-link time of the MP phase +
    busiest-link time of the AllReduce phase.  The busiest-link bound is
    the fluid simulator's makespan when the bottleneck link is shared by
    flows of equal length, and a tight lower bound otherwise -- accurate
    enough to rank strategies.  Evaluated through the sparse
    routing-matrix kernel: link loads are one ``R.T @ demand`` mat-vec
    and the busiest-link time a NumPy max.  The seed's per-path Python
    loops are the oracle
    :class:`repro.oracles.ReferenceIterationCostModel`.  Pass
    ``kernel`` to share one assembled
    :class:`~repro.perf.costmodel.CostModelKernel` across cost models of
    the same fabric (the alternating optimizer does).
    """

    def __init__(
        self,
        fabric,
        compute_s: float,
        kernel: Optional[CostModelKernel] = None,
    ):
        self.fabric = fabric
        self.compute_s = compute_s
        self.kernel = kernel if kernel is not None else _warm_kernel(fabric)

    def mp_time(self, traffic: TrafficSummary) -> float:
        return self.kernel.mp_time(traffic)

    def allreduce_time(self, traffic: TrafficSummary) -> float:
        return self.kernel.allreduce_time(traffic)

    def cost(self, traffic: TrafficSummary) -> float:
        return self.kernel.cost(traffic, self.compute_s)


@dataclass
class MCMCResult:
    """Outcome of one MCMC search (best state over all chains)."""

    strategy: ParallelizationStrategy
    traffic: TrafficSummary
    cost_s: float
    accepted_moves: int
    proposed_moves: int
    cost_trace: List[float] = field(default_factory=list)
    chains: int = 1
    chain_best_costs: List[float] = field(default_factory=list)


class _IncrementalScorer:
    """Kernel scoring discipline: delta-update only the moved layer."""

    def __init__(
        self,
        search: "MCMCSearch",
        fabric,
        kernel: Optional[CostModelKernel] = None,
    ):
        self.search = search
        self.kernel = kernel if kernel is not None else _warm_kernel(fabric)
        self.evaluator = IncrementalCostEvaluator(
            self.kernel, search.compute_s
        )
        self._layers = {layer.name: layer for layer in search.model.layers}
        self._compiled: Dict[Tuple[str, LayerPlacement], object] = {}
        self._pending: Optional[Tuple[str, object]] = None

    def _compiled_for(self, name: str, placement: LayerPlacement):
        key = (name, placement)
        compiled = self._compiled.get(key)
        if compiled is None:
            contribution = layer_traffic(
                self._layers[name],
                placement,
                self.search.batch_per_server,
                self.search.num_servers,
            )
            compiled = self.kernel.compile_layer(contribution)
            self._compiled[key] = compiled
        return compiled

    def begin(self, strategy: ParallelizationStrategy) -> float:
        strategy.validate_against(self.search.model)
        self.evaluator.reset({
            name: self._compiled_for(name, strategy.placement(name))
            for name in self._layers
        })
        return self.evaluator.cost()

    def candidate(
        self,
        candidate: ParallelizationStrategy,
        name: str,
        old_placement: LayerPlacement,
        new_placement: LayerPlacement,
    ) -> float:
        self._pending = (name, self.evaluator.layer(name))
        self.evaluator.set_layer(name, self._compiled_for(name, new_placement))
        return self.evaluator.cost()

    def accept(self) -> None:
        self._pending = None

    def reject(self) -> None:
        name, old = self._pending
        self.evaluator.set_layer(name, old)  # O(delta) undo
        self._pending = None


class MCMCSearch:
    """Markov Chain Monte Carlo over layer placements."""

    def __init__(
        self,
        model: DNNModel,
        num_servers: int,
        batch_per_gpu: Optional[int] = None,
        gpus_per_server: int = 4,
        gpu: GPUSpec = A100,
        temperature: float = 0.05,
        seed: int = 0,
    ):
        self.model = model
        self.num_servers = num_servers
        self.batch_per_gpu = batch_per_gpu or model.default_batch_per_gpu
        self.gpus_per_server = gpus_per_server
        self.gpu = gpu
        self.temperature = temperature
        self.seed = seed
        self.rng = random.Random(seed)
        self.compute_s = compute_time_seconds(
            model, self.batch_per_gpu, gpus_per_server, gpu
        )
        self._movable = [layer.name for layer in model.embedding_layers]

    @property
    def batch_per_server(self) -> int:
        return self.batch_per_gpu * self.gpus_per_server

    # ------------------------------------------------------------------
    def initial_strategy(self) -> ParallelizationStrategy:
        """Start from the Meta-style hybrid if embeddings exist, else DP."""
        if self._movable:
            return hybrid_strategy(self.model, self.num_servers)
        return data_parallel_strategy(self.model, self.num_servers)

    def _propose_move(
        self, strategy: ParallelizationStrategy, rng: random.Random
    ) -> Optional[Tuple[str, LayerPlacement]]:
        """Draw one placement move; None when identity (nothing moves)."""
        if not self._movable:
            return None
        layer_name = rng.choice(self._movable)
        current = strategy.placement(layer_name)
        move = rng.random()
        all_servers = tuple(range(self.num_servers))
        if move < 0.60:
            # Move / assign a model-parallel owner.
            owner = rng.randrange(self.num_servers)
            new = LayerPlacement(PlacementKind.MODEL_PARALLEL, (owner,))
        elif move < 0.85:
            new = LayerPlacement(PlacementKind.DATA_PARALLEL, all_servers)
        else:
            new = LayerPlacement(PlacementKind.SHARDED)
        if new == current:
            return None
        return layer_name, new

    def propose(
        self, strategy: ParallelizationStrategy
    ) -> ParallelizationStrategy:
        """One random placement move (identity when nothing is movable)."""
        move = self._propose_move(strategy, self.rng)
        if move is None:
            return strategy
        return strategy.with_placement(*move)

    # ------------------------------------------------------------------
    def _run_chain(
        self,
        iterations: int,
        initial: Optional[ParallelizationStrategy],
        rng: random.Random,
        scorer,
    ) -> MCMCResult:
        """Run one Metropolis chain; return its best state."""
        strategy = initial or self.initial_strategy()
        cost = scorer.begin(strategy)
        best_strategy, best_cost = strategy, cost
        trace = [cost]
        accepted = 0
        for _ in range(iterations):
            move = self._propose_move(strategy, rng)
            if move is None:
                trace.append(cost)
                continue
            name, new_placement = move
            old_placement = strategy.placement(name)
            candidate = strategy.with_placement(name, new_placement)
            candidate_cost = scorer.candidate(
                candidate, name, old_placement, new_placement
            )
            delta = candidate_cost - cost
            scale = max(cost, 1e-9) * self.temperature
            if delta <= ACCEPT_TOL * max(cost, 1e-9) or rng.random() < (
                math.exp(-delta / scale)
            ):
                scorer.accept()
                strategy, cost = candidate, candidate_cost
                accepted += 1
                if cost < best_cost:
                    best_strategy, best_cost = strategy, cost
            else:
                scorer.reject()
            trace.append(cost)
        traffic = extract_traffic(
            self.model, best_strategy, self.batch_per_gpu,
            self.gpus_per_server,
        )
        return MCMCResult(
            strategy=best_strategy,
            traffic=traffic,
            cost_s=best_cost,
            accepted_moves=accepted,
            proposed_moves=iterations,
            cost_trace=trace,
        )

    def _chain_rng(self, chain: int) -> random.Random:
        """Chain 0 reuses ``self.rng`` (seed-compatible); others derive.

        Extra chains are seeded from ``self.rng`` *after* the previous
        chain ran, so they stay deterministic for a given search seed
        yet decorrelated across repeated ``search`` calls (the
        alternating optimizer searches once per round).
        """
        if chain == 0:
            return self.rng
        return random.Random(self.rng.getrandbits(64))

    def _scorer(self, fabric, kernel: Optional[CostModelKernel]):
        """The scoring discipline of one search: delta-update the kernel."""
        return _IncrementalScorer(self, fabric, kernel)

    def search(
        self,
        fabric,
        iterations: int = 200,
        initial: Optional[ParallelizationStrategy] = None,
        *,
        restarts: int = 1,
        kernel: Optional[CostModelKernel] = None,
    ) -> MCMCResult:
        """Run the Metropolis chain(s) on ``fabric``; return the best state.

        Proposals are scored by :meth:`_scorer`.

        Parameters
        ----------
        restarts:
            Number of independent seeded chains (best-of).  Cheap now
            that a step no longer re-routes all n^2 pairs; chains share
            one routing kernel and compiled-layer cache.
        kernel:
            Optional pre-assembled routing kernel for ``fabric``; the
            alternating optimizer passes one to reuse it across rounds.
        """
        if restarts < 1:
            raise ValueError("need at least one chain")
        scorer = self._scorer(fabric, kernel)
        results = []
        for c in range(restarts):
            # Spans time the chain; counters come from the chain's own
            # tallies afterwards, so the Metropolis RNG stream is never
            # touched by instrumentation.
            with TRACER.span("mcmc.chain", cat="pipeline", chain=c,
                             iterations=iterations, model=self.model.name):
                result = self._run_chain(
                    iterations, initial, self._chain_rng(c), scorer
                )
            results.append(result)
            if TRACER.enabled:
                TRACER.count("mcmc.proposed", result.proposed_moves)
                TRACER.count("mcmc.accepted", result.accepted_moves)
        best = min(results, key=lambda result: result.cost_s)
        best.chains = restarts
        best.chain_best_costs = [result.cost_s for result in results]
        if restarts > 1:
            best.accepted_moves = sum(r.accepted_moves for r in results)
            best.proposed_moves = sum(r.proposed_moves for r in results)
        return best
