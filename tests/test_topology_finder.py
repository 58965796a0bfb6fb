"""Unit and integration tests for TopologyFinder (Algorithm 1)."""

import copy
import gc

import numpy as np
import pytest

from repro.core.topology_finder import (
    AllReduceGroup,
    GroupPlan,
    _distribute_degree,
    topology_finder,
)
from repro.sim.failures import FailureManager


def full_group(n, size_bytes):
    return AllReduceGroup(members=tuple(range(n)), total_bytes=size_bytes)


def uniform_mp(n, per_pair):
    matrix = np.full((n, n), float(per_pair))
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestAllReduceGroup:
    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            AllReduceGroup(members=(0, 0, 1), total_bytes=10)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            AllReduceGroup(members=(0, 1), total_bytes=-1)

    def test_size(self):
        assert AllReduceGroup(members=(3, 5, 7), total_bytes=1).size == 3


class TestDistributeDegree:
    def test_pure_allreduce_takes_all(self):
        assert _distribute_degree(4, 100.0, 0.0) == (4, 0)

    def test_pure_mp_still_reserves_one(self):
        d_ar, d_mp = _distribute_degree(4, 0.0, 100.0)
        assert d_ar == 1 and d_mp == 3

    def test_no_traffic_defaults_to_allreduce(self):
        assert _distribute_degree(4, 0.0, 0.0) == (4, 0)

    def test_proportional_split(self):
        d_ar, d_mp = _distribute_degree(4, 50.0, 50.0)
        assert d_ar + d_mp == 4
        assert d_ar == 2

    def test_ceiling_favors_allreduce(self):
        d_ar, d_mp = _distribute_degree(4, 30.0, 70.0)
        assert d_ar == 2  # ceil(1.2)


class TestPureDataParallel:
    def test_all_degree_to_rings(self):
        n, d = 16, 4
        result = topology_finder(n, d, [full_group(n, 1e9)])
        assert result.allreduce_degree == d
        assert result.mp_degree == 0
        assert len(result.group_plans) == 1
        assert len(result.group_plans[0].rings) == d

    def test_topology_connected(self):
        result = topology_finder(16, 4, [full_group(16, 1e9)])
        assert result.topology.is_strongly_connected()

    def test_rings_use_selected_strides(self):
        result = topology_finder(16, 3, [full_group(16, 1e9)])
        plan = result.group_plans[0]
        assert len(plan.strides) == 3
        assert plan.strides[0] == 1
        for stride, ring in zip(plan.strides, plan.rings):
            # Each ring hop advances by the stride (positions == ids here).
            assert (ring[1] - ring[0]) % 16 == stride

    def test_degree_budget_respected(self):
        result = topology_finder(12, 4, [full_group(12, 1e9)])
        topo = result.topology
        for node in range(12):
            assert topo.out_degree(node) <= 4
            assert topo.in_degree(node) <= 4


class TestHybrid:
    def test_mp_degree_allocated(self):
        n = 12
        # MP volume dominates the (tiny) AllReduce volume.
        result = topology_finder(
            n, 4, [full_group(n, 1e3)], uniform_mp(n, 1e9)
        )
        assert result.mp_degree >= 1
        assert result.mp_link_counts

    def test_mp_links_bidirectional(self):
        n = 8
        result = topology_finder(
            n, 4, [full_group(n, 1e3)], uniform_mp(n, 1e9)
        )
        for (a, b) in result.mp_link_counts:
            assert result.topology.has_link(a, b)
            assert result.topology.has_link(b, a)

    def test_hot_pair_gets_direct_link(self):
        n = 8
        mp = np.zeros((n, n))
        mp[2, 5] = mp[5, 2] = 1e9
        result = topology_finder(n, 2, [full_group(n, 1e3)], mp)
        assert result.topology.has_link(2, 5)

    def test_small_diameter_from_totient_perms(self):
        # 64 servers, d = 4 pure DP: diameter well below the +1-only 63.
        result = topology_finder(64, 4, [full_group(64, 1e9)])
        assert result.topology.diameter() <= 12


class TestSubsetGroups:
    def test_two_disjoint_groups(self):
        g1 = AllReduceGroup(members=tuple(range(0, 8)), total_bytes=1e9)
        g2 = AllReduceGroup(members=tuple(range(8, 16)), total_bytes=1e9)
        result = topology_finder(16, 4, [g1, g2])
        # Both groups got at least one ring.
        ringed = [p for p in result.group_plans if p.rings]
        assert len(ringed) == 2
        assert result.topology.is_strongly_connected()

    def test_tiny_group_skipped(self):
        g1 = full_group(8, 1e9)
        g2 = AllReduceGroup(members=(3,), total_bytes=1e9)
        result = topology_finder(8, 4, [g1, g2])
        assert all(p.group.size >= 2 for p in result.group_plans)


class TestRouting:
    def test_allreduce_paths_within_group(self):
        n = 12
        result = topology_finder(n, 4, [full_group(n, 1e9)])
        paths = result.routing.paths_for(0, 7, "allreduce")
        assert paths
        for path in paths:
            assert path[0] == 0 and path[-1] == 7

    def test_allreduce_paths_use_physical_links(self):
        n = 12
        result = topology_finder(n, 4, [full_group(n, 1e9)])
        for (src, dst), paths in result.routing.allreduce_paths.items():
            for path in paths:
                for a, b in zip(path, path[1:]):
                    assert result.topology.has_link(a, b)

    def test_mp_paths_exist_for_demands(self):
        n = 8
        mp = uniform_mp(n, 1e6)
        result = topology_finder(n, 4, [full_group(n, 1e9)], mp)
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    assert result.routing.paths_for(src, dst, "mp")

    def test_mp_paths_are_minimum_hop(self):
        n = 8
        mp = uniform_mp(n, 1e6)
        result = topology_finder(n, 4, [full_group(n, 1e9)], mp)
        for (src, dst), paths in result.routing.mp_paths.items():
            shortest = result.topology.shortest_path(src, dst)
            assert all(len(p) == len(shortest) for p in paths)


def assert_routes_untracked(routing):
    """No route of ``routing`` is left for the cyclic collector to scan."""
    # Read the tables first: a lazy table builds its tuples on that
    # read, and a new tuple stays tracked until a collection sees it.
    tables = (routing.mp_paths, routing.allreduce_paths)
    # A container is untracked only once everything it holds is: the
    # first full collection untracks each int-only path, the second the
    # path sets holding them and the tables holding those.
    gc.collect()
    gc.collect()
    for table in tables:
        assert table
        assert not gc.is_tracked(table)
        for paths in table.values():
            assert not gc.is_tracked(paths)
            for path in paths:
                assert not gc.is_tracked(path)


def held_path_sets(routing):
    """The path-set tuples ``routing`` holds, its group plans aside."""
    found, stack = [], [vars(routing)]
    while stack:
        item = stack.pop()
        if isinstance(item, GroupPlan):
            continue
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            if item and all(isinstance(path, tuple) for path in item):
                found.append(item)
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
    return found


class TestRoutesUntracked:
    """Cached results anchor their routes for the life of the process,
    so every path set must be an immutable, untrackable int tuple."""

    def _result(self, n=40):
        rng = np.random.default_rng(40)
        demand = rng.random((n, n)) * 1e8 * (rng.random((n, n)) < 0.2)
        np.fill_diagonal(demand, 0.0)
        # Two overlapping groups: some pairs hold routes of both plans.
        groups = [
            full_group(n, 1e9),
            AllReduceGroup(members=tuple(range(0, n, 2)), total_bytes=4e9),
        ]
        return topology_finder(n, 4, groups, demand)

    def test_fresh_result(self):
        routing = self._result().routing
        # A fresh table keeps its MP routes as arrays until asked.
        assert held_path_sets(routing) == []
        assert_routes_untracked(routing)

    def test_copy_on_write_fault_path(self):
        # The scenario engine's fault path: a private deep copy, a
        # detour, then the port-swap repair that collapses it.
        isolated = copy.deepcopy(self._result())
        assert_routes_untracked(isolated.routing)
        manager = FailureManager(isolated)
        link = manager.ring_edges()[0]
        manager.fail_link(*link)
        assert_routes_untracked(isolated.routing)
        manager.repair_permanently(*link)
        assert_routes_untracked(isolated.routing)


class TestValidation:
    def test_wrong_mp_shape_rejected(self):
        with pytest.raises(ValueError):
            topology_finder(8, 4, [full_group(8, 1)], np.zeros((4, 4)))

    def test_primes_only_mode(self):
        result = topology_finder(
            16, 4, [full_group(16, 1e9)], primes_only=True
        )
        for plan in result.group_plans:
            for stride in plan.strides:
                assert stride == 1 or _is_prime(stride)


def _is_prime(p):
    return p >= 2 and all(p % q != 0 for q in range(2, int(p ** 0.5) + 1))
