"""Unit and behavioural tests for the MCMC strategy search."""

import math

import numpy as np
import pytest

from repro.core.topology_finder import topology_finder
from repro.models import build_bert, build_dlrm, build_vgg
from repro.network.fattree import IdealSwitchFabric
from repro.network.topoopt import TopoOptFabric
from repro.oracles import ReferenceIterationCostModel, ReferenceMCMCSearch
from repro.parallel.mcmc import IterationCostModel, MCMCSearch
from repro.parallel.strategy import (
    data_parallel_strategy,
    hybrid_strategy,
)
from repro.parallel.traffic import extract_traffic

GBPS = 1e9


def small_dlrm():
    return build_dlrm(
        num_embedding_tables=4,
        embedding_rows=100_000,
        embedding_dim=256,
        num_dense_layers=2,
        dense_layer_size=512,
        num_feature_layers=2,
        feature_layer_size=512,
        batch_per_gpu=32,
    )


def small_bert():
    return build_bert(num_blocks=2, hidden=256, seq_len=32, heads=4,
                      embedding_size=128, vocab_size=10_000, batch_per_gpu=8)


def topoopt_fabric(model, n=8, degree=4):
    search = MCMCSearch(model, num_servers=n, seed=0)
    traffic = extract_traffic(
        model, search.initial_strategy(), search.batch_per_gpu
    )
    result = topology_finder(
        n, degree, traffic.allreduce_groups, traffic.mp_matrix
    )
    return TopoOptFabric(result, 100 * GBPS)


class TestIterationCostModel:
    def test_cost_includes_compute(self):
        fabric = IdealSwitchFabric(4, 2, 100 * GBPS)
        model = build_vgg(16)
        traffic = extract_traffic(
            model, data_parallel_strategy(model, 4), 8
        )
        cost_model = IterationCostModel(fabric, compute_s=1.0)
        assert cost_model.cost(traffic) > 1.0

    def test_allreduce_time_formula(self):
        n, d, B = 8, 4, 100 * GBPS
        fabric = IdealSwitchFabric(n, d, B)
        model = build_vgg(16)
        traffic = extract_traffic(
            model, data_parallel_strategy(model, n), 8
        )
        cost_model = IterationCostModel(fabric, 0.0)
        expected = (
            2 * (n - 1) / n * model.total_params_bytes * 8 / (d * B)
        )
        assert cost_model.allreduce_time(traffic) == pytest.approx(
            expected, rel=1e-6
        )

    def test_unroutable_traffic_is_infinite(self):
        class DeadFabric:
            name = "dead"

            def capacities(self):
                return {(0, 1): GBPS}

            def paths(self, src, dst, kind="mp"):
                return []

        model = small_dlrm()
        traffic = extract_traffic(model, hybrid_strategy(model, 4), 8)
        cost_model = IterationCostModel(DeadFabric(), 0.0)
        assert math.isinf(cost_model.cost(traffic))


class TestProposals:
    def test_vgg_has_no_moves(self):
        model = build_vgg(16)
        search = MCMCSearch(model, num_servers=4, batch_per_gpu=8)
        strategy = search.initial_strategy()
        assert search.propose(strategy) is strategy

    def test_dlrm_moves_change_placement(self):
        model = small_dlrm()
        search = MCMCSearch(model, num_servers=8, seed=3)
        strategy = search.initial_strategy()
        changed = 0
        for _ in range(20):
            candidate = search.propose(strategy)
            if candidate is not strategy:
                changed += 1
        assert changed > 0


class TestSearch:
    def test_best_cost_never_worse_than_initial(self):
        model = small_dlrm()
        search = MCMCSearch(model, num_servers=8, seed=0)
        fabric = IdealSwitchFabric(8, 4, 100 * GBPS)
        initial = search.initial_strategy()
        initial_traffic = extract_traffic(
            model, initial, search.batch_per_gpu
        )
        initial_cost = IterationCostModel(fabric, search.compute_s).cost(
            initial_traffic
        )
        result = search.search(fabric, iterations=100)
        assert result.cost_s <= initial_cost + 1e-12

    def test_cost_trace_length(self):
        model = small_dlrm()
        search = MCMCSearch(model, num_servers=4, seed=1)
        fabric = IdealSwitchFabric(4, 4, 100 * GBPS)
        result = search.search(fabric, iterations=50)
        assert len(result.cost_trace) == 51  # initial + one per step

    def test_deterministic_for_seed(self):
        model = small_dlrm()
        fabric = IdealSwitchFabric(4, 4, 100 * GBPS)
        r1 = MCMCSearch(model, 4, seed=7).search(fabric, iterations=60)
        r2 = MCMCSearch(model, 4, seed=7).search(fabric, iterations=60)
        assert r1.cost_s == pytest.approx(r2.cost_s)

    def test_pure_dp_model_stays_dp(self):
        model = build_vgg(16)
        search = MCMCSearch(model, num_servers=4, batch_per_gpu=8)
        fabric = IdealSwitchFabric(4, 4, 100 * GBPS)
        result = search.search(fabric, iterations=10)
        assert result.strategy.is_pure_data_parallel()

    def test_identical_trace_for_same_seed(self):
        # Determinism of the incremental default path: two fresh
        # searches with the same seed must walk the exact same chain.
        model = small_dlrm()
        fabric = topoopt_fabric(model)
        t1 = MCMCSearch(model, 8, seed=9).search(fabric, 80).cost_trace
        t2 = MCMCSearch(model, 8, seed=9).search(fabric, 80).cost_trace
        assert t1 == t2

    def test_incremental_matches_full_rebuild_oracle(self):
        # The headline equivalence: the delta-updated kernel must score
        # every step of the chain like the seed full-rebuild discipline
        # (same seed => same proposal stream => comparable traces).
        for model in (small_dlrm(), small_bert()):
            for fabric in (
                topoopt_fabric(model),
                IdealSwitchFabric(8, 4, 100 * GBPS),
            ):
                ref = ReferenceMCMCSearch(model, 8, seed=4).search(
                    fabric, 120
                )
                inc = MCMCSearch(model, 8, seed=4).search(fabric, 120)
                a = np.asarray(ref.cost_trace)
                b = np.asarray(inc.cost_trace)
                assert ref.accepted_moves == inc.accepted_moves
                assert np.all(
                    np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), 1e-300)
                )
                assert inc.cost_s == pytest.approx(ref.cost_s, rel=1e-12)

    def test_best_cost_matches_reference_cost_model(self):
        # The returned best cost must be reproducible by scoring the
        # returned strategy's traffic with the pure-Python reference.
        model = small_dlrm()
        fabric = topoopt_fabric(model)
        search = MCMCSearch(model, 8, seed=6)
        result = search.search(fabric, iterations=60)
        expected = ReferenceIterationCostModel(
            fabric, search.compute_s
        ).cost(result.traffic)
        assert result.cost_s == pytest.approx(expected, rel=1e-12)

    def test_multi_chain_restarts_best_of(self):
        model = small_dlrm()
        fabric = topoopt_fabric(model)
        single = MCMCSearch(model, 8, seed=2).search(fabric, 60)
        multi = MCMCSearch(model, 8, seed=2).search(fabric, 60, restarts=3)
        assert multi.chains == 3
        assert len(multi.chain_best_costs) == 3
        assert multi.proposed_moves == 180
        # Chain 0 reuses the single-chain rng, so best-of can only help.
        assert multi.cost_s <= single.cost_s + 1e-12
        again = MCMCSearch(model, 8, seed=2).search(fabric, 60, restarts=3)
        assert multi.chain_best_costs == again.chain_best_costs

    def test_invalid_restarts_rejected(self):
        model = small_dlrm()
        fabric = IdealSwitchFabric(4, 4, 100 * GBPS)
        with pytest.raises(ValueError):
            MCMCSearch(model, 4).search(fabric, 10, restarts=0)

    def test_search_avoids_pure_dp_for_huge_embeddings(self):
        # The whole point of hybrid parallelism: with enormous embedding
        # tables, data parallelism's AllReduce is ruinous, so the search
        # should keep embeddings model-parallel.
        model = build_dlrm(
            num_embedding_tables=4,
            embedding_rows=5_000_000,
            embedding_dim=512,
            num_dense_layers=2,
            dense_layer_size=256,
            num_feature_layers=2,
            feature_layer_size=256,
            batch_per_gpu=8,
        )
        search = MCMCSearch(model, num_servers=8, seed=2)
        fabric = IdealSwitchFabric(8, 4, 100 * GBPS)
        result = search.search(fabric, iterations=150)
        placements = result.strategy.mp_owner_servers()
        sharded = [
            name
            for name, p in result.strategy.placements.items()
            if p.kind.value == "sharded"
        ]
        # Every huge table stays off the AllReduce path.
        assert len(placements) + len(sharded) == 4
