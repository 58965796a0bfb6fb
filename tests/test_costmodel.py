"""Equivalence tests: the sparse cost-model kernel vs. the seed loops.

The kernel layer (repro.perf.costmodel) must produce the same phase
times and iteration costs as the seed pure-Python oracle
(repro.oracles.ReferenceIterationCostModel), and the delta-updated incremental
evaluator must track the full rebuild exactly across randomized move
sequences -- including past the re-synchronization interval.  The
routing matrix and compiled layer loads must match their per-hop and
scipy oracles byte for byte.
"""

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.topology_finder import AllReduceGroup, topology_finder
from repro.models import build_dlrm, build_vgg
from repro.network.fattree import (
    FatTreeFabric,
    IdealSwitchFabric,
    LeafSpineFabric,
    OversubscribedFatTreeFabric,
)
from repro.network.topoopt import TopoOptFabric
from repro.oracles import ReferenceIterationCostModel
from repro.parallel.mcmc import MCMCSearch
from repro.parallel.strategy import (
    LayerPlacement,
    PlacementKind,
    all_sharded_strategy,
    data_parallel_strategy,
    hybrid_strategy,
)
from repro.parallel.traffic import (
    LayerTraffic,
    _add_model_parallel_traffic,
    _add_sharded_traffic,
    extract_traffic,
    layer_traffic,
)
from repro.perf.costmodel import (
    SYNC_INTERVAL,
    CostModelKernel,
    IncrementalCostEvaluator,
)

GBPS = 1e9
N = 8


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


def topoopt_fabric(model, n=N, degree=4):
    search = MCMCSearch(model, num_servers=n, seed=0)
    traffic = extract_traffic(
        model, search.initial_strategy(), search.batch_per_gpu
    )
    result = topology_finder(
        n, degree, traffic.allreduce_groups, traffic.mp_matrix
    )
    return TopoOptFabric(result, 100 * GBPS)


def fabrics_for(model):
    return [
        IdealSwitchFabric(N, 4, 100 * GBPS),
        LeafSpineFabric(N, 4, 100 * GBPS, servers_per_rack=2, num_spines=2),
        OversubscribedFatTreeFabric(N, 4, 100 * GBPS, servers_per_rack=4),
        topoopt_fabric(model),
    ]


def strategies_for(model):
    return [
        data_parallel_strategy(model, N),
        hybrid_strategy(model, N),
        all_sharded_strategy(model, N),
    ]


class TestKernelEquivalence:
    def test_phase_times_match_reference(self):
        model = small_dlrm()
        for fabric in fabrics_for(model):
            kernel = CostModelKernel(fabric)
            reference = ReferenceIterationCostModel(fabric, 0.0)
            for strategy in strategies_for(model):
                traffic = extract_traffic(model, strategy, 32)
                assert kernel.mp_time(traffic) == pytest.approx(
                    reference.mp_time(traffic), rel=1e-12
                )
                assert kernel.allreduce_time(traffic) == pytest.approx(
                    reference.allreduce_time(traffic), rel=1e-12
                )

    def test_pure_dp_model_matches(self):
        model = build_vgg(16)
        strategy = data_parallel_strategy(model, N)
        traffic = extract_traffic(model, strategy, 8)
        for fabric in fabrics_for(model):
            kernel = CostModelKernel(fabric)
            reference = ReferenceIterationCostModel(fabric, 1.0)
            assert kernel.cost(traffic, 1.0) == pytest.approx(
                reference.cost(traffic), rel=1e-12
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
        kernel = CostModelKernel(DeadFabric())
        assert math.isinf(kernel.cost(traffic, 0.0))


class TestLayerDecomposition:
    def test_contributions_sum_to_extracted_matrix(self):
        model = small_dlrm()
        for strategy in strategies_for(model):
            summary = extract_traffic(model, strategy, 32)
            total = np.zeros(N * N)
            groups = {}
            for layer in model.layers:
                contribution = layer_traffic(
                    layer, strategy.placement(layer.name), 32 * 4, N
                )
                np.add.at(
                    total,
                    contribution.mp_pair_indices,
                    contribution.mp_pair_bytes,
                )
                if contribution.dp_replicas is not None:
                    groups[contribution.dp_replicas] = (
                        groups.get(contribution.dp_replicas, 0.0)
                        + contribution.dp_bytes
                    )
            assert np.array_equal(total.reshape(N, N), summary.mp_matrix)
            assert groups == {
                g.members: g.total_bytes for g in summary.allreduce_groups
            }

    def test_matches_seed_accumulators(self):
        model = small_dlrm()
        layer = model.embedding_layers[0]
        batch_per_server = 128

        mp = layer_traffic(
            layer,
            LayerPlacement(PlacementKind.MODEL_PARALLEL, (3,)),
            batch_per_server,
            N,
        )
        expected = np.zeros((N, N))
        _add_model_parallel_traffic(
            expected, (3,), layer.activation_bytes_per_sample,
            batch_per_server, N,
        )
        got = np.zeros(N * N)
        np.add.at(got, mp.mp_pair_indices, mp.mp_pair_bytes)
        assert np.array_equal(got.reshape(N, N), expected)

        sharded = layer_traffic(
            layer, LayerPlacement(PlacementKind.SHARDED), batch_per_server, N
        )
        expected = np.zeros((N, N))
        _add_sharded_traffic(
            expected, layer.activation_bytes_per_sample, batch_per_server, N
        )
        got = np.zeros(N * N)
        np.add.at(got, sharded.mp_pair_indices, sharded.mp_pair_bytes)
        assert np.array_equal(got.reshape(N, N), expected)


def random_placement(rng, n):
    move = rng.random()
    if move < 0.45:
        return LayerPlacement(
            PlacementKind.MODEL_PARALLEL, (rng.randrange(n),)
        )
    if move < 0.8:
        return LayerPlacement(PlacementKind.DATA_PARALLEL, tuple(range(n)))
    return LayerPlacement(PlacementKind.SHARDED)


class TestIncrementalEvaluator:
    def _evaluator(self, model, fabric, strategy):
        search = MCMCSearch(model, num_servers=N, seed=0)
        kernel = CostModelKernel(fabric)
        evaluator = IncrementalCostEvaluator(kernel, search.compute_s)
        compiled = {
            layer.name: kernel.compile_layer(layer_traffic(
                layer,
                strategy.placement(layer.name),
                search.batch_per_server,
                N,
            ))
            for layer in model.layers
        }
        evaluator.reset(compiled)
        return search, kernel, evaluator

    def test_random_moves_track_full_rebuild_oracle(self):
        model = small_dlrm()
        rng = random.Random(11)
        movable = [layer.name for layer in model.embedding_layers]
        for fabric in (
            IdealSwitchFabric(N, 4, 100 * GBPS),
            topoopt_fabric(model),
        ):
            strategy = hybrid_strategy(model, N)
            search, kernel, evaluator = self._evaluator(
                model, fabric, strategy
            )
            reference = ReferenceIterationCostModel(fabric, search.compute_s)
            layers = {layer.name: layer for layer in model.layers}
            for _ in range(120):
                name = rng.choice(movable)
                placement = random_placement(rng, N)
                strategy = strategy.with_placement(name, placement)
                evaluator.set_layer(name, kernel.compile_layer(layer_traffic(
                    layers[name], placement, search.batch_per_server, N
                )))
                expected = reference.cost(extract_traffic(
                    model, strategy, search.batch_per_gpu
                ))
                assert evaluator.cost() == pytest.approx(
                    expected, rel=1e-12
                )

    def test_undo_is_exact(self):
        model = small_dlrm()
        fabric = topoopt_fabric(model)
        strategy = hybrid_strategy(model, N)
        search, kernel, evaluator = self._evaluator(model, fabric, strategy)
        name = model.embedding_layers[0].name
        layers = {layer.name: layer for layer in model.layers}
        before = evaluator.cost()
        old = evaluator.layer(name)
        evaluator.set_layer(name, kernel.compile_layer(layer_traffic(
            layers[name],
            LayerPlacement(PlacementKind.SHARDED),
            search.batch_per_server,
            N,
        )))
        assert evaluator.cost() != pytest.approx(before, rel=1e-6)
        evaluator.set_layer(name, old)
        assert evaluator.cost() == pytest.approx(before, rel=1e-12)

    def test_unroutable_state_is_exact_after_moves(self):
        # Regression: unroutability must be tracked by exact counting,
        # not float byte sums -- moving every unroutable layer away
        # must return the evaluator to a finite cost immediately (not
        # only at the next re-sync), matching the rebuild oracle.
        class OneWayBlockedFabric:
            # Fully routable except 0 -> 2 (the reverse direction and
            # the AllReduce ring 0 -> 1 -> 2 -> 0 still work).
            name = "partial"
            num_servers = 3

            def capacities(self):
                caps = {}
                for a in range(3):
                    for b in range(3):
                        if a != b and (a, b) != (0, 2):
                            caps[(a, b)] = GBPS
                return caps

            def paths(self, src, dst, kind="mp"):
                if src == dst:
                    return [[src]]
                if (src, dst) == (0, 2):
                    return []
                return [[src, dst]]

        model = small_dlrm()
        n = 3
        fabric = OneWayBlockedFabric()
        search = MCMCSearch(model, num_servers=n, seed=0)
        kernel = CostModelKernel(fabric)
        evaluator = IncrementalCostEvaluator(kernel, search.compute_s)
        # Two embedding tables model-parallel on server 0: each puts
        # MP demand on the pathless (0, 2) pair.
        strategy = hybrid_strategy(
            model, n,
            embedding_owners={
                layer.name: 0 for layer in model.embedding_layers
            },
        )
        compiled = {
            layer.name: kernel.compile_layer(layer_traffic(
                layer, strategy.placement(layer.name),
                search.batch_per_server, n,
            ))
            for layer in model.layers
        }
        evaluator.reset(compiled)
        assert math.isinf(evaluator.cost())
        layers = {layer.name: layer for layer in model.layers}
        dp = LayerPlacement(PlacementKind.DATA_PARALLEL, tuple(range(n)))
        for layer in model.embedding_layers:
            strategy = strategy.with_placement(layer.name, dp)
            evaluator.set_layer(layer.name, kernel.compile_layer(
                layer_traffic(
                    layers[layer.name], dp, search.batch_per_server, n
                )
            ))
        cost = evaluator.cost()
        assert math.isfinite(cost)
        expected = ReferenceIterationCostModel(fabric, search.compute_s).cost(
            extract_traffic(model, strategy, search.batch_per_gpu)
        )
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_drift_bounded_past_sync_interval(self):
        model = small_dlrm()
        fabric = IdealSwitchFabric(N, 4, 100 * GBPS)
        strategy = hybrid_strategy(model, N)
        search, kernel, evaluator = self._evaluator(model, fabric, strategy)
        name = model.embedding_layers[0].name
        layers = {layer.name: layer for layer in model.layers}
        rng = random.Random(3)
        for _ in range(SYNC_INTERVAL + 50):
            placement = random_placement(rng, N)
            strategy = strategy.with_placement(name, placement)
            evaluator.set_layer(name, kernel.compile_layer(layer_traffic(
                layers[name], placement, search.batch_per_server, N
            )))
        reference = ReferenceIterationCostModel(fabric, search.compute_s)
        expected = reference.cost(extract_traffic(
            model, strategy, search.batch_per_gpu
        ))
        assert evaluator.cost() == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------
# Bitwise oracles for the routing matrix and the layer compiler
# ----------------------------------------------------------------------

def hop_by_hop_routing(kernel, n):
    """The per-hop assembly ``mp_routing`` replaced (the bitwise oracle).

    One COO triplet per hop, appended in pair, path, hop order.
    """
    rows, cols, data = [], [], []
    unroutable = np.zeros(n * n, dtype=bool)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            pair = src * n + dst
            paths = kernel.fabric.paths(src, dst, "mp")
            if not paths:
                unroutable[pair] = True
                continue
            fraction = 1.0 / len(paths)
            for path in paths:
                for a, b in zip(path, path[1:]):
                    rows.append(pair)
                    cols.append(kernel.link_index[(a, b)])
                    data.append(fraction)
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(n * n, kernel.num_links)
    )
    return matrix, unroutable


def assert_bitwise(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class SkipRingFabric:
    """Ring links ``i -> i+1``; only pairs one or two hops apart route.

    Every other pair has no path, so its demand is unroutable.
    """

    name = "skip-ring"

    def __init__(self, n):
        self.num_servers = n

    def capacities(self):
        n = self.num_servers
        return {(i, (i + 1) % n): GBPS for i in range(n)}

    def paths(self, src, dst, kind="mp"):
        n = self.num_servers
        if src == dst:
            return ((src,),)
        hops = (dst - src) % n
        if hops > 2:
            return ()
        return (tuple((src + h) % n for h in range(hops + 1)),)


def routed_fabrics(n, degree, seed, density):
    rng = np.random.default_rng(seed)
    demand = rng.random((n, n)) * 1e8 * (rng.random((n, n)) < density)
    np.fill_diagonal(demand, 0.0)
    group = AllReduceGroup(
        members=tuple(range(n)), total_bytes=float(rng.uniform(1e6, 1e9))
    )
    result = topology_finder(n, degree, [group], demand)
    # TopoOpt twice: compiled from the fresh table's route arrays, and
    # pair by pair from a copy whose dict view has retired them.
    from_arrays = TopoOptFabric(result, 100 * GBPS)
    materialized = copy.deepcopy(result)
    assert materialized.routing.mp_paths
    pairwise = TopoOptFabric(materialized, 100 * GBPS)
    assert from_arrays.mp_route_arrays() is not None
    assert pairwise.mp_route_arrays() is None
    return [
        from_arrays,
        pairwise,
        IdealSwitchFabric(n, degree, 100 * GBPS),
        FatTreeFabric(n, degree, 40 * GBPS),
        SkipRingFabric(n),
    ]


def layer_contributions(n, rng):
    """DP, MP (one and two owners), sharded, and repeated raw pairs."""
    model = small_dlrm()
    dense = model.layers[-1]
    table = model.embedding_layers[0]
    owners = tuple(int(o) for o in rng.choice(n, size=2, replace=False))
    placements = [
        (dense, LayerPlacement(
            PlacementKind.DATA_PARALLEL, tuple(range(n))
        )),
        (table, LayerPlacement(PlacementKind.MODEL_PARALLEL, owners[:1])),
        (table, LayerPlacement(PlacementKind.MODEL_PARALLEL, owners)),
        (table, LayerPlacement(PlacementKind.SHARDED)),
    ]
    contributions = [
        layer_traffic(layer, placement, 128, n)
        for layer, placement in placements
    ]
    # Repeated pair indices (diagonal ones too) with bytes spanning
    # twelve decades, so any change in summation order shows.
    size = int(rng.integers(1, 4 * n * n))
    idx = rng.integers(0, n * n, size=size).astype(np.int64)
    values = rng.random(size) * 10.0 ** rng.integers(0, 12, size=size)
    contributions.append(LayerTraffic(n, None, 0.0, idx, values))
    return contributions


class TestBitwiseKernel:
    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(4, 24),
        degree=st.integers(2, 4),
        seed=st.integers(0, 2 ** 32 - 1),
        density=st.floats(0.0, 1.0),
    )
    def test_matrix_and_layer_loads_match_oracles(
        self, n, degree, seed, density
    ):
        rng = np.random.default_rng(seed)
        contributions = layer_contributions(n, rng)
        for fabric in routed_fabrics(n, degree, seed, density):
            kernel = CostModelKernel(fabric)
            routing = kernel.mp_routing(n)
            matrix, unroutable = hop_by_hop_routing(kernel, n)
            assert_bitwise(routing.matrix.data, matrix.data)
            assert_bitwise(routing.matrix.indices, matrix.indices)
            assert_bitwise(routing.matrix.indptr, matrix.indptr)
            assert_bitwise(routing.unroutable, unroutable)
            for contribution in contributions:
                idx = contribution.mp_pair_indices
                values = contribution.mp_pair_bytes
                compiled = kernel.compile_layer(contribution)
                expected = np.asarray(
                    routing.matrix[idx].T.dot(values)
                ).reshape(-1)
                assert_bitwise(compiled.mp_loads, expected)
                assert compiled.unroutable_bytes == float(
                    values[unroutable[idx]].sum()
                )

    def test_skip_ring_unroutable_demand(self):
        # The property's partial fabric must exercise unroutable pairs.
        n = 6
        kernel = CostModelKernel(SkipRingFabric(n))
        routing = kernel.mp_routing(n)
        assert routing.unroutable.sum() == n * (n - 3)
        sharded = layer_traffic(
            small_dlrm().embedding_layers[0],
            LayerPlacement(PlacementKind.SHARDED), 128, n,
        )
        assert kernel.compile_layer(sharded).unroutable_bytes > 0
        # Only a diagonal and pathless pairs: no link carries a byte,
        # and the loads are still float zeros, as scipy's product.
        idx = np.array([0, 0 * n + 3, 0 * n + 3, 1 * n + 5], dtype=np.int64)
        values = np.array([5.0, 2.0, 3.0, 4.0])
        assert routing.unroutable[idx].tolist() == [False, True, True, True]
        compiled = kernel.compile_layer(
            LayerTraffic(n, None, 0.0, idx, values)
        )
        assert_bitwise(compiled.mp_loads, np.zeros(kernel.num_links))
        assert compiled.unroutable_bytes == 9.0

    def test_unknown_link_raises_key_error_naming_it(self):
        class MissingLinkFabric:
            # (1, 3) and (2, 0) are routed over but never provisioned;
            # pair (0, 3) comes first in pair order.
            name = "missing"
            num_servers = 4

            def capacities(self):
                return {(0, 1): GBPS, (1, 2): GBPS, (2, 3): GBPS}

            def paths(self, src, dst, kind="mp"):
                if (src, dst) == (0, 3):
                    return ((0, 1, 3),)
                if (src, dst) == (2, 1):
                    return ((2, 0, 1),)
                return ()

        kernel = CostModelKernel(MissingLinkFabric())
        with pytest.raises(KeyError, match=r"unknown link \(1, 3\)"):
            kernel.mp_routing(4)
