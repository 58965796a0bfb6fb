"""Unit tests for the direct-connect topology abstraction."""

import random

import pytest

from repro.network.topology import (
    DegreeExceededError,
    DirectConnectTopology,
)


def ring_topology(n, degree=2):
    topo = DirectConnectTopology(n, degree)
    topo.add_ring(list(range(n)))
    return topo


class TestConstruction:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            DirectConnectTopology(0, 4)

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            DirectConnectTopology(4, 0)

    def test_starts_with_no_links(self):
        topo = DirectConnectTopology(4, 2)
        assert topo.num_links() == 0


class TestAddLink:
    def test_basic_link(self):
        topo = DirectConnectTopology(4, 2)
        topo.add_link(0, 1)
        assert topo.has_link(0, 1)
        assert not topo.has_link(1, 0)

    def test_parallel_links_accumulate(self):
        topo = DirectConnectTopology(4, 3)
        topo.add_link(0, 1, count=2)
        assert topo.multiplicity(0, 1) == 2

    def test_degree_budget_enforced_tx(self):
        topo = DirectConnectTopology(4, 1)
        topo.add_link(0, 1)
        with pytest.raises(DegreeExceededError):
            topo.add_link(0, 2)

    def test_degree_budget_enforced_rx(self):
        topo = DirectConnectTopology(4, 1)
        topo.add_link(0, 1)
        with pytest.raises(DegreeExceededError):
            topo.add_link(2, 1)

    def test_self_link_rejected(self):
        topo = DirectConnectTopology(4, 2)
        with pytest.raises(ValueError):
            topo.add_link(1, 1)

    def test_out_of_range_rejected(self):
        topo = DirectConnectTopology(4, 2)
        with pytest.raises(ValueError):
            topo.add_link(0, 4)

    def test_enforcement_disabled(self):
        topo = DirectConnectTopology(3, 1, enforce_degree=False)
        topo.add_link(0, 1)
        topo.add_link(0, 2)  # would exceed d=1
        assert topo.out_degree(0) == 2


class TestRemoveLink:
    def test_remove_restores_degree(self):
        topo = DirectConnectTopology(4, 1)
        topo.add_link(0, 1)
        topo.remove_link(0, 1)
        assert topo.free_tx(0) == 1
        topo.add_link(0, 2)

    def test_remove_missing_raises(self):
        topo = DirectConnectTopology(4, 2)
        with pytest.raises(ValueError):
            topo.remove_link(0, 1)


class TestAddRing:
    def test_ring_links(self):
        topo = ring_topology(5)
        for i in range(5):
            assert topo.has_link(i, (i + 1) % 5)

    def test_ring_is_atomic_on_failure(self):
        topo = DirectConnectTopology(4, 1)
        topo.add_link(2, 3)  # consumes server 2's only tx port
        with pytest.raises(DegreeExceededError):
            topo.add_ring([0, 1, 2, 3])
        # Nothing from the failed ring was laid down.
        assert not topo.has_link(0, 1)
        assert not topo.has_link(1, 2)

    def test_ring_rejects_duplicates(self):
        topo = DirectConnectTopology(4, 2)
        with pytest.raises(ValueError):
            topo.add_ring([0, 1, 1, 2])


class TestPaths:
    def test_shortest_path_direct(self):
        topo = ring_topology(6)
        assert topo.shortest_path(0, 1) == [0, 1]

    def test_shortest_path_around_ring(self):
        topo = ring_topology(6)
        # Directed ring: 5 -> 0 is one hop, 0 -> 5 is five hops.
        assert topo.shortest_path(5, 0) == [5, 0]
        assert len(topo.shortest_path(0, 5)) == 6

    def test_unreachable_returns_none(self):
        topo = DirectConnectTopology(4, 2)
        topo.add_link(0, 1)
        assert topo.shortest_path(1, 0) is None

    def test_lengths_from_source(self):
        topo = ring_topology(4)
        assert topo.shortest_path_lengths_from(0) == {0: 0, 1: 1, 2: 2, 3: 3}

    @pytest.mark.parametrize("seed", range(5))
    def test_paths_from_source_match_shortest_path(self, seed):
        # Random links in random order give many tied shortest paths;
        # the BFS tree must pick the one shortest_path picks for each.
        rng = random.Random(seed)
        topo = DirectConnectTopology(12, 3)
        for _ in range(60):
            src, dst = rng.sample(range(12), 2)
            if topo.free_tx(src) and topo.free_rx(dst):
                topo.add_link(src, dst)
        for src in range(12):
            tree = topo.shortest_paths_from(src)
            for dst in range(12):
                path = topo.shortest_path(src, dst)
                if path is None:
                    assert dst not in tree
                else:
                    assert tree[dst] == tuple(path)

    def test_all_shortest_paths_count(self):
        topo = DirectConnectTopology(4, 3)
        # Two disjoint 2-hop routes 0 -> 3.
        topo.add_link(0, 1)
        topo.add_link(1, 3)
        topo.add_link(0, 2)
        topo.add_link(2, 3)
        paths = topo.all_shortest_paths(0, 3)
        assert sorted(paths) == [[0, 1, 3], [0, 2, 3]]

    def test_all_shortest_paths_cap(self):
        topo = DirectConnectTopology(6, 5, enforce_degree=False)
        for mid in (1, 2, 3, 4):
            topo.add_link(0, mid)
            topo.add_link(mid, 5)
        assert len(topo.all_shortest_paths(0, 5, cap=2)) == 2
        assert len(topo.all_shortest_paths(0, 5, cap=10)) == 4

    def test_k_shortest_paths_distinct(self):
        topo = DirectConnectTopology(4, 3)
        topo.add_link(0, 1)
        topo.add_link(1, 3)
        topo.add_link(0, 2)
        topo.add_link(2, 3)
        topo.add_link(0, 3)
        paths = topo.k_shortest_paths(0, 3, 3)
        assert paths[0] == [0, 3]
        assert len(paths) == 3
        assert len({tuple(p) for p in paths}) == 3

    def test_k_shortest_paths_matches_reference(self):
        # Yen's path *lengths* are uniquely determined even when
        # equal-length ties resolve to different concrete paths, so the
        # CSR-backed spur loop must match the seed implementation
        # hop-for-hop on randomized topologies.
        import random

        rng = random.Random(7)
        for trial in range(15):
            n = rng.randrange(6, 14)
            topo = DirectConnectTopology(n, n, enforce_degree=False)
            topo.add_ring(list(range(n)))
            for _ in range(2 * n):
                src, dst = rng.randrange(n), rng.randrange(n)
                if src != dst:
                    topo.add_link(src, dst)
            for _ in range(4):
                src, dst = rng.randrange(n), rng.randrange(n)
                if src == dst:
                    continue
                k = rng.randrange(1, 6)
                fast = topo.k_shortest_paths(src, dst, k)
                reference = topo._k_shortest_paths_reference(src, dst, k)
                assert [len(p) for p in fast] == [len(p) for p in reference]
                assert len({tuple(p) for p in fast}) == len(fast)
                for path in fast:
                    assert path[0] == src and path[-1] == dst
                    assert len(set(path)) == len(path)  # loopless
                    for a, b in zip(path, path[1:]):
                        assert topo.has_link(a, b)

    def test_k_shortest_paths_unreachable(self):
        topo = DirectConnectTopology(3, 2)
        topo.add_link(0, 1)
        assert topo.k_shortest_paths(0, 2, 3) == []
        assert topo._k_shortest_paths_reference(0, 2, 3) == []

    def test_k_shortest_paths_cache_safe_across_mutation(self):
        # The spur loop must not poison the version-invalidated caches:
        # mutate, query, mutate again, and re-query.
        topo = DirectConnectTopology(5, 4)
        topo.add_ring([0, 1, 2, 3, 4])
        first = topo.k_shortest_paths(0, 2, 2)
        assert first[0] == [0, 1, 2]
        topo.add_link(0, 2)
        assert topo.k_shortest_paths(0, 2, 2)[0] == [0, 2]


class TestGraphMetrics:
    def test_ring_diameter(self):
        assert ring_topology(8).diameter() == 7

    def test_bidirectional_ring_diameter(self):
        topo = DirectConnectTopology(8, 2)
        for i in range(8):
            topo.add_bidirectional(i, (i + 1) % 8)
        assert topo.diameter() == 4

    def test_diameter_requires_connectivity(self):
        topo = DirectConnectTopology(4, 2)
        topo.add_link(0, 1)
        with pytest.raises(ValueError):
            topo.diameter()

    def test_strongly_connected_ring(self):
        assert ring_topology(5).is_strongly_connected()

    def test_one_way_chain_not_strongly_connected(self):
        topo = DirectConnectTopology(3, 2)
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        assert not topo.is_strongly_connected()

    def test_average_path_length_ring(self):
        # Directed n-ring: distances 1..n-1 from each node -> mean n/2.
        topo = ring_topology(6)
        assert topo.average_path_length() == pytest.approx(3.0)

    def test_path_length_distribution_size(self):
        topo = ring_topology(5)
        assert len(topo.path_length_distribution()) == 5 * 4

    def test_copy_is_independent(self):
        topo = ring_topology(4)
        clone = topo.copy()
        clone.remove_link(0, 1)
        assert topo.has_link(0, 1)
        assert not clone.has_link(0, 1)

    def test_capacity_map(self):
        topo = DirectConnectTopology(3, 2)
        topo.add_link(0, 1, count=2)
        caps = topo.capacity_map(10e9)
        assert caps.capacity(0, 1) == 20e9
        assert caps.capacity(1, 0) == 0.0
