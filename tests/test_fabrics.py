"""Unit tests for the switch, expander, and TopoOpt fabrics."""

import dataclasses

import numpy as np
import pytest

from repro.core.topology_finder import (
    AllReduceGroup,
    RoutingTable,
    topology_finder,
)
from repro.network.expander import ExpanderFabric, random_regular_topology
from repro.network.fattree import (
    FatTreeFabric,
    IdealSwitchFabric,
    OversubscribedFatTreeFabric,
)
from repro.network.topoopt import RemappedFabric, TopoOptFabric

GBPS = 1e9


class TestIdealSwitch:
    def test_capacity_per_server(self):
        fabric = IdealSwitchFabric(8, 4, 100 * GBPS)
        caps = fabric.capacities()
        assert caps[(0, fabric.hub)] == 400 * GBPS
        assert caps[(fabric.hub, 0)] == 400 * GBPS

    def test_paths_via_hub(self):
        fabric = IdealSwitchFabric(8, 4, 100 * GBPS)
        assert fabric.paths(0, 5) == [[0, fabric.hub, 5]]

    def test_self_path(self):
        fabric = IdealSwitchFabric(8, 4, 100 * GBPS)
        assert fabric.paths(3, 3) == [[3]]

    def test_out_of_range_rejected(self):
        fabric = IdealSwitchFabric(8, 4, 100 * GBPS)
        with pytest.raises(ValueError):
            fabric.paths(0, 9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            IdealSwitchFabric(0, 4, GBPS)
        with pytest.raises(ValueError):
            IdealSwitchFabric(4, 0, GBPS)
        with pytest.raises(ValueError):
            IdealSwitchFabric(4, 4, 0.0)


class TestFatTree:
    def test_cost_equivalent_bandwidth_lower(self):
        ideal = IdealSwitchFabric(8, 4, 100 * GBPS)
        fattree = FatTreeFabric(8, 4, 30 * GBPS)
        assert (
            fattree.server_bandwidth_bps < ideal.server_bandwidth_bps
        )


class TestOversubFatTree:
    def test_uplink_is_half(self):
        fabric = OversubscribedFatTreeFabric(
            32, 4, 100 * GBPS, servers_per_rack=16
        )
        caps = fabric.capacities()
        tor0 = fabric.tor_of(0)
        assert caps[(tor0, fabric.core)] == pytest.approx(
            16 * 400 * GBPS / 2
        )

    def test_same_rack_path_avoids_core(self):
        fabric = OversubscribedFatTreeFabric(
            32, 4, 100 * GBPS, servers_per_rack=16
        )
        path = fabric.paths(0, 5)[0]
        assert fabric.core not in path

    def test_cross_rack_path_uses_core(self):
        fabric = OversubscribedFatTreeFabric(
            32, 4, 100 * GBPS, servers_per_rack=16
        )
        path = fabric.paths(0, 20)[0]
        assert fabric.core in path

    def test_partial_last_rack(self):
        fabric = OversubscribedFatTreeFabric(
            20, 4, 100 * GBPS, servers_per_rack=16
        )
        caps = fabric.capacities()
        last_tor = fabric.tor_of(19)
        assert caps[(last_tor, fabric.core)] == pytest.approx(
            4 * 400 * GBPS / 2
        )


class TestRandomRegular:
    def test_degree_exact(self):
        topo = random_regular_topology(16, 4, seed=1)
        for node in range(16):
            assert topo.out_degree(node) == 4
            assert topo.in_degree(node) == 4

    def test_connected(self):
        for seed in range(3):
            assert random_regular_topology(12, 3, seed).is_strongly_connected()

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular_topology(5, 3)

    def test_deterministic_for_seed(self):
        a = random_regular_topology(12, 3, seed=5)
        b = random_regular_topology(12, 3, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())


class TestExpanderFabric:
    def test_capacities_match_topology(self):
        fabric = ExpanderFabric(16, 4, 25 * GBPS, seed=2)
        caps = fabric.capacities()
        total = sum(caps.values())
        assert total == pytest.approx(16 * 4 * 25 * GBPS)

    def test_paths_exist_for_all_pairs(self):
        fabric = ExpanderFabric(12, 3, 25 * GBPS, seed=2)
        for src in range(12):
            for dst in range(12):
                if src != dst:
                    assert fabric.paths(src, dst)

    def test_path_cache_stable(self):
        fabric = ExpanderFabric(12, 3, 25 * GBPS, seed=2)
        assert fabric.paths(0, 5) is fabric.paths(0, 5)


def _topoopt(n=12, d=4):
    group = AllReduceGroup(members=tuple(range(n)), total_bytes=1e9)
    mp = np.zeros((n, n))
    mp[0, n - 1] = mp[n - 1, 0] = 1e8
    result = topology_finder(n, d, [group], mp)
    return TopoOptFabric(result, 25 * GBPS)


class TestTopoOptFabric:
    def test_capacities_respect_multiplicity(self):
        fabric = _topoopt()
        caps = fabric.capacities()
        total_links = fabric.result.topology.num_links()
        assert sum(caps.values()) == pytest.approx(total_links * 25 * GBPS)

    def test_paths_always_available(self):
        fabric = _topoopt()
        for src in range(12):
            for dst in range(12):
                if src != dst:
                    assert fabric.paths(src, dst, "mp")
                    assert fabric.paths(src, dst, "allreduce")

    def test_returned_paths_cannot_rewrite_routes(self):
        # Every caller (and every job sharing a cached pipeline result)
        # gets the routing table's own path sets, so they must be
        # immutable: editing one used to rewrite the table for all.
        fabric = _topoopt(n=8, d=4)
        routing = fabric.result.routing
        before = (dict(routing.mp_paths), dict(routing.allreduce_paths))
        remapped = fabric.relabel([10 + i for i in range(8)])
        # Without routing-table entries, paths fall back to a cached
        # shortest path.
        unrouted = TopoOptFabric(
            dataclasses.replace(fabric.result, routing=RoutingTable()),
            25 * GBPS,
        )
        for paths in (
            fabric.paths(0, 5),
            fabric.paths(0, 5, "allreduce"),
            fabric.paths(3, 3),
            remapped.paths(10, 15),
            unrouted.paths(0, 5),
        ):
            assert isinstance(paths, tuple)
            with pytest.raises(AttributeError):
                paths[0].append(99)
            with pytest.raises(TypeError):
                paths[0][-1] = 99
            with pytest.raises(AttributeError):
                paths.append((0, 99))
        assert (dict(routing.mp_paths), dict(routing.allreduce_paths)) == (
            before
        )
        assert fabric.paths(0, 5) == routing.mp_paths[(0, 5)]

    def test_ring_edges_are_direct(self):
        fabric = _topoopt()
        members = tuple(range(12))
        for path, _ in fabric.ring_edge_paths(members):
            assert len(path) == 2

    def test_ring_strides_match_plan(self):
        fabric = _topoopt()
        strides = fabric.ring_strides_for(tuple(range(12)))
        assert strides and strides[0] == 1

    def test_unknown_group_defaults_to_plus_one(self):
        fabric = _topoopt()
        assert fabric.ring_strides_for((0, 1, 2)) == [1]

    def test_invalid_bandwidth_rejected(self):
        result = _topoopt().result
        with pytest.raises(ValueError):
            TopoOptFabric(result, 0.0)


class TestRemappedFabric:
    def test_translation(self):
        fabric = _topoopt(n=4, d=2)
        remapped = RemappedFabric(fabric, [10, 11, 12, 13])
        paths = remapped.paths(10, 12)
        for path in paths:
            assert all(node >= 10 for node in path)
            assert path[0] == 10 and path[-1] == 12

    def test_capacities_translated(self):
        fabric = _topoopt(n=4, d=2)
        remapped = RemappedFabric(fabric, [10, 11, 12, 13])
        for (src, dst) in remapped.capacities():
            assert src >= 10 and dst >= 10

    def test_wrong_size_map_rejected(self):
        fabric = _topoopt(n=4, d=2)
        with pytest.raises(ValueError):
            RemappedFabric(fabric, [1, 2])

    def test_non_injective_map_rejected(self):
        fabric = _topoopt(n=4, d=2)
        with pytest.raises(ValueError):
            RemappedFabric(fabric, [1, 1, 2, 3])

    def test_ring_strides_delegated(self):
        # A relabeled shard must expose the same fabric interface as
        # TopoOptFabric: ring_strides_for translates members back to
        # local ids and returns the underlying plan's strides.
        fabric = _topoopt(n=12, d=4)
        server_map = [20 + i for i in range(12)]
        remapped = fabric.relabel(server_map)
        local_members = tuple(range(12))
        global_members = tuple(server_map[m] for m in local_members)
        assert remapped.ring_strides_for(global_members) == (
            fabric.ring_strides_for(local_members)
        )
        assert remapped.ring_strides_for(tuple(server_map[:3])) == [1]

    def test_relabel_round_trip(self):
        # Translating every query through the map and back must
        # reproduce the local fabric exactly.
        fabric = _topoopt(n=6, d=3)
        server_map = [13, 7, 42, 0, 9, 21]
        remapped = fabric.relabel(server_map)
        inverse = {g: l for l, g in enumerate(server_map)}

        assert {
            (inverse[s], inverse[d]): cap
            for (s, d), cap in remapped.capacities().items()
        } == fabric.capacities()
        for src in range(6):
            for dst in range(6):
                if src == dst:
                    continue
                for kind in ("mp", "allreduce"):
                    local = fabric.paths(src, dst, kind)
                    translated = tuple(
                        tuple(inverse[node] for node in path)
                        for path in remapped.paths(
                            server_map[src], server_map[dst], kind
                        )
                    )
                    assert translated == local
        members = tuple(range(6))
        mapped = tuple(server_map[m] for m in members)
        assert [
            ([inverse[node] for node in path], rings)
            for path, rings in remapped.ring_edge_paths(mapped)
        ] == fabric.ring_edge_paths(members)
        assert remapped.ring_strides_for(mapped) == (
            fabric.ring_strides_for(members)
        )
