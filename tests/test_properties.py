"""Property-based tests (hypothesis) on the core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coin_change import CoinChangeRouter, coin_change_mod
from repro.core.mutability import ring_traffic_matrix
from repro.core.ocs_reconfig import ocs_reconfig
from repro.core.select_perms import select_permutations
from repro.core.topology_finder import AllReduceGroup, topology_finder
from repro.core.totient import (
    coprime_strides,
    euler_phi,
    ring_permutation,
)
from repro.oracles import FluidNetwork
from repro.sim.flows import Flow

group_sizes = st.integers(min_value=2, max_value=64)
cluster_sizes = st.integers(min_value=4, max_value=32)
degrees = st.integers(min_value=1, max_value=6)


class TestTotientProperties:
    @given(group_sizes)
    def test_phi_counts_coprime_strides(self, k):
        assert len(coprime_strides(k)) == euler_phi(k)

    @given(group_sizes, st.integers(min_value=0, max_value=200))
    def test_every_coprime_stride_is_a_permutation(self, k, index):
        strides = coprime_strides(k)
        stride = strides[index % len(strides)]
        order = ring_permutation(list(range(k)), stride)
        assert sorted(order) == list(range(k))

    @given(group_sizes)
    def test_ring_traffic_volume_invariant_under_stride(self, k):
        """Mutability: every stride carries the same total volume."""
        n = k
        totals = set()
        for stride in coprime_strides(k)[:4]:
            matrix = ring_traffic_matrix(list(range(k)), 1000.0, n, stride)
            totals.add(round(matrix.sum(), 6))
        assert len(totals) == 1


class TestSelectPermProperties:
    @given(cluster_sizes, degrees)
    def test_selection_is_subset_and_sized(self, n, dk):
        candidates = coprime_strides(n)
        chosen = select_permutations(n, dk, candidates)
        assert set(chosen) <= set(candidates)
        assert len(chosen) == dk  # repeats fill the budget when needed

    @given(cluster_sizes, st.integers(min_value=1, max_value=4))
    def test_seed_stride_always_included(self, n, dk):
        candidates = coprime_strides(n)
        chosen = select_permutations(n, dk, candidates)
        assert min(candidates) in chosen


class TestCoinChangeProperties:
    @given(st.integers(min_value=3, max_value=48), st.data())
    def test_routes_sum_to_distance(self, n, data):
        strides = coprime_strides(n)
        count = data.draw(st.integers(1, min(3, len(strides))))
        coins = data.draw(
            st.lists(
                st.sampled_from(strides),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        routes = coin_change_mod(n, coins)
        for distance, seq in routes.items():
            assert sum(seq) % n == distance
            assert all(c in {x % n for x in coins} for c in seq)

    @given(st.integers(min_value=3, max_value=32))
    def test_router_paths_connect_endpoints(self, n):
        coins = coprime_strides(n)[:2]
        router = CoinChangeRouter(n, coins)
        for src in range(0, n, max(n // 4, 1)):
            for dst in range(0, n, max(n // 4, 1)):
                path = router.path(src, dst)
                assert path[0] == src and path[-1] == dst


class TestTopologyFinderProperties:
    @settings(deadline=None, max_examples=25)
    @given(cluster_sizes, st.integers(min_value=2, max_value=5))
    def test_result_connected_and_degree_bounded(self, n, d):
        group = AllReduceGroup(members=tuple(range(n)), total_bytes=1e9)
        result = topology_finder(n, d, [group])
        topo = result.topology
        assert topo.is_strongly_connected()
        for node in range(n):
            assert topo.out_degree(node) <= d
            assert topo.in_degree(node) <= d

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=4, max_value=16), st.data())
    def test_with_random_mp_demand(self, n, data):
        rows = data.draw(
            st.lists(
                st.lists(
                    st.floats(min_value=0, max_value=1e6),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
        mp = np.array(rows)
        np.fill_diagonal(mp, 0.0)
        group = AllReduceGroup(members=tuple(range(n)), total_bytes=1e8)
        result = topology_finder(n, 4, [group], mp)
        assert result.topology.is_strongly_connected()
        # Every MP demand is routable.
        for src in range(n):
            for dst in range(n):
                if src != dst and mp[src, dst] > 0:
                    assert result.routing.paths_for(src, dst, "mp")


class TestOcsReconfigProperties:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=1, max_value=4), st.randoms())
    def test_degree_never_exceeded(self, n, d, rng):
        demand = np.zeros((n, n))
        for _ in range(n * 2):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                demand[i, j] += rng.random() * 100
        topo = ocs_reconfig(demand, degree=d, ensure_connected=False)
        for node in range(n):
            assert topo.out_degree(node) <= d
            assert topo.in_degree(node) <= d


class TestFluidProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_max_min_never_oversubscribes(self, data):
        n_links = data.draw(st.integers(2, 6))
        caps = {
            (i, i + 1): data.draw(
                st.floats(min_value=1e6, max_value=1e9)
            )
            for i in range(n_links)
        }
        network = FluidNetwork(caps)
        n_flows = data.draw(st.integers(1, 8))
        flows = []
        for _ in range(n_flows):
            start = data.draw(st.integers(0, n_links - 1))
            end = data.draw(st.integers(start + 1, n_links))
            flow = Flow(
                path=tuple(range(start, end + 1)),
                size_bits=data.draw(st.floats(1e3, 1e6)),
            )
            flows.append(flow)
            network.add_flow(flow)
        network.recompute_rates()
        for link, state in network.links.items():
            used = sum(f.rate_bps for f in state.flows)
            assert used <= state.capacity_bps * (1 + 1e-9)
        # Work conservation: every flow crosses at least one saturated
        # link (the definition of max-min fairness).
        for flow in flows:
            saturated = any(
                sum(f.rate_bps for f in network.links[link].flows)
                >= network.links[link].capacity_bps * (1 - 1e-9)
                for link in flow.links
            )
            assert saturated
