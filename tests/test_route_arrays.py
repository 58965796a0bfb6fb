"""Min-hop routes as arrays, and the lazy routing table built on them.

:func:`repro.perf.graph.min_hop_routes` builds every source's capped
min-hop path sets in one pass; it must equal the per-source reference
DP (:func:`repro.oracles.min_hop_paths_from_source`) destination for
destination and path for path, in order.  TopologyFinder's
:class:`~repro.core.topology_finder.RoutingTable` keeps those arrays
and builds tuples on demand: whatever it serves -- fresh, deep-copied,
pickled, patched by a link failure, or read from many threads at once
-- must equal the eagerly built table kept here.
"""

import copy
import dataclasses
import pickle
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topology_finder import (
    AllReduceGroup,
    RoutingTable,
    topology_finder,
)
from repro.network.topology import DirectConnectTopology
from repro.network.topoopt import TopoOptFabric
from repro.oracles import min_hop_paths_from_source
from repro.perf.costmodel import CostModelKernel
from repro.sim.failures import FailureManager, LinkFailureError

GBPS = 1e9


def random_digraph(n, seed, density, isolated):
    """Random multigraph, links inserted in random order.

    Nodes in ``isolated`` get no in-links, so no other node reaches
    them; repeated ``add_link`` calls stack parallel links.
    """
    rng = random.Random(seed)
    links = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and b not in isolated and rng.random() < density
    ]
    links += rng.sample(links, len(links) // 4)
    rng.shuffle(links)
    topo = DirectConnectTopology(n, degree=4 * n, enforce_degree=False)
    for a, b in links:
        topo.add_link(a, b, rng.randint(1, 2))
    return topo


def hop_rows(topo):
    """Hop counts as int lists, -1 where unreachable (the oracle's input)."""
    hops = topo.all_pairs_hop_counts()
    return np.where(np.isfinite(hops), hops, -1).astype(int).tolist()


def assert_routes_match_oracle(topo, cap):
    routes = topo.min_hop_routes(cap)
    rows = hop_rows(topo)
    preds = topo._pred_lists()
    n = topo.n
    assert routes.pair_ptr.shape == (n * n + 1,)
    for src in range(n):
        expected = min_hop_paths_from_source(rows[src], preds, src, cap)
        # Same destinations, in the same order, with the same paths.
        assert list(routes.paths_from(src).items()) == list(expected.items())
        assert list(topo.min_hop_paths_from(src, cap).items()) == list(
            expected.items()
        )
        for dst in range(n):
            assert routes.path_set(src, dst) == tuple(
                map(tuple, expected.get(dst, []))
            )


class TestMinHopRoutes:
    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 48),
        cap=st.integers(1, 8),
        seed=st.integers(0, 2 ** 32 - 1),
        density=st.floats(0.0, 0.25),
        isolated_share=st.floats(0.0, 0.3),
    )
    def test_matches_per_source_dp(self, n, cap, seed, density,
                                   isolated_share):
        rng = random.Random(seed + 1)
        isolated = set(rng.sample(range(n), int(n * isolated_share)))
        assert_routes_match_oracle(
            random_digraph(n, seed, density, isolated), cap
        )

    def test_cap_spans_the_whole_concatenation(self):
        # 0 -> {1, 2, 3} -> 4 -> 5: node 4 has three one-path
        # predecessors, so a cap of 2 keeps the first two of the three
        # concatenated paths, not two per predecessor.
        topo = DirectConnectTopology(6, degree=6, enforce_degree=False)
        for mid in (3, 1, 2):
            topo.add_link(0, mid)
            topo.add_link(mid, 4)
        topo.add_link(4, 5)
        routes = topo.min_hop_routes(2)
        assert routes.path_set(0, 4) == ((0, 3, 4), (0, 1, 4))
        assert routes.path_set(0, 5) == ((0, 3, 4, 5), (0, 1, 4, 5))
        assert_routes_match_oracle(topo, 2)

    def test_unreachable_and_diagonal_pairs_have_no_paths(self):
        topo = DirectConnectTopology(3, degree=2)
        topo.add_link(0, 1)
        routes = topo.min_hop_routes(4)
        assert routes.path_counts().reshape(3, 3).tolist() == [
            [0, 1, 0], [0, 0, 0], [0, 0, 0],
        ]
        assert routes.path_set(1, 0) == ()
        assert topo.min_hop_paths_from(2) == {}

    def test_arrays_are_read_only_and_shared_by_copies(self):
        topo = random_digraph(12, 3, 0.3, set())
        routes = topo.min_hop_routes(6)
        with pytest.raises(ValueError):
            routes.nodes[0] = 99
        assert copy.deepcopy(routes) is routes


class TestCopyKeepsNeighbourOrder:
    def test_copy_routes_like_the_original(self):
        # In-links of 0 arrive from 2 before 1, out of edge order.
        topo = DirectConnectTopology(4, degree=3)
        topo.add_link(2, 0)
        topo.add_link(3, 2)
        topo.add_link(1, 0)
        topo.add_link(3, 1)
        clone = topo.copy()
        assert clone._pred_lists() == topo._pred_lists() == [
            [2, 1], [3], [3], [],
        ]
        assert clone.min_hop_paths_from(3, 1) == {
            1: [[3, 1]], 2: [[3, 2]], 0: [[3, 2, 0]],
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_copy_of_random_topology(self, seed):
        topo = random_digraph(20, seed, 0.2, set())
        clone = topo.copy()
        assert clone._pred_lists() == topo._pred_lists()
        assert clone._succ_lists() == topo._succ_lists()
        original, copied = topo.min_hop_routes(3), clone.min_hop_routes(3)
        for field in ("pair_ptr", "path_ptr", "nodes"):
            assert np.array_equal(
                getattr(original, field), getattr(copied, field)
            )
        for src in range(topo.n):
            assert clone.min_hop_paths_from(src, 3) == (
                topo.min_hop_paths_from(src, 3)
            )
        clone.add_link(0, 1)
        assert topo.multiplicity(0, 1) < clone.multiplicity(0, 1)


# ----------------------------------------------------------------------
# The routing table
# ----------------------------------------------------------------------

def tf_case(seed):
    """A TopologyFinder result on random inputs, and its MP demand.

    Overlapping AllReduce groups and sparse MP demand; seeds whose
    inputs leave no degree to connect the topology are skipped over.
    """
    while True:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        degree = int(rng.integers(2, 7))
        demand = rng.random((n, n)) * 1e8 * (
            rng.random((n, n)) < rng.random()
        )
        np.fill_diagonal(demand, 0.0)
        groups = [
            AllReduceGroup(tuple(range(n)), float(rng.uniform(1e6, 1e9)))
        ]
        if n >= 6:
            groups.append(AllReduceGroup(
                tuple(range(0, n, 2)), float(rng.uniform(1e6, 1e9))
            ))
        try:
            return topology_finder(n, degree, groups, demand), demand
        except ValueError:
            seed += 2 ** 32


def eager_table(result, demand, cap=6):
    """The table built in full: every tuple up front, from the oracles."""
    topo = result.topology
    rows, preds = hop_rows(topo), topo._pred_lists()
    mp = {}
    for src in range(topo.n):
        found = min_hop_paths_from_source(rows[src], preds, src, cap)
        for dst, paths in found.items():
            keep = paths if demand[src, dst] > 0 else paths[:1]
            mp[(src, dst)] = tuple(map(tuple, keep))
    allreduce = {}
    for plan in result.group_plans:
        if plan.router is None:
            continue
        members = plan.group.members
        for i, src in enumerate(members):
            for j, dst in enumerate(members):
                if src != dst:
                    path = tuple(members[p] for p in plan.router.path(i, j))
                    allreduce[(src, dst)] = (
                        allreduce.get((src, dst), ()) + (path,)
                    )
    return RoutingTable(allreduce_paths=allreduce, mp_paths=mp)


def assert_serves(routing, eager, n):
    for src in range(n):
        for dst in range(n):
            for kind in ("mp", "allreduce"):
                assert routing.paths_for(src, dst, kind) == eager.paths_for(
                    src, dst, kind
                )


def assert_same_tables(routing, eager):
    assert dict(routing.mp_paths) == eager.mp_paths
    assert dict(routing.allreduce_paths) == eager.allreduce_paths


def routing_matrix(result):
    kernel = CostModelKernel(TopoOptFabric(result, 100 * GBPS))
    routing = kernel.mp_routing(result.topology.n)
    return routing.matrix, routing.unroutable


def assert_same_kernel(result, eager_result):
    (matrix, unroutable), (expected, expected_unroutable) = (
        routing_matrix(result), routing_matrix(eager_result)
    )
    for field in ("data", "indices", "indptr"):
        assert getattr(matrix, field).tobytes() == (
            getattr(expected, field).tobytes()
        )
    assert unroutable.tobytes() == expected_unroutable.tobytes()


class TestLazyRoutingTable:
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_serves_the_eager_table(self, seed):
        result, demand = tf_case(seed)
        n = result.topology.n
        eager = eager_table(result, demand)
        # A deep copy and a pickle of the fresh table, and a deep copy
        # taken once some tuples exist.
        copied = copy.deepcopy(result)
        pickled = pickle.loads(pickle.dumps(result))
        result.routing.paths_for(0, n - 1)
        partial = copy.deepcopy(result)
        for table in (result, copied, pickled, partial):
            assert table.routing.mp_routes is not None
            assert_serves(table.routing, eager, n)
            assert_same_tables(table.routing, eager)
            assert table.routing.mp_routes is None
            assert_serves(table.routing, eager, n)

    @pytest.mark.parametrize("seed", range(6))
    def test_failure_patch_and_repair_match_eager(self, seed):
        result, demand = tf_case(100 + seed)
        eager_result = dataclasses.replace(
            copy.deepcopy(result), routing=eager_table(result, demand)
        )
        assert_same_kernel(result, eager_result)
        before = dict(eager_result.routing.mp_paths)
        # The busiest MP link whose loss leaves the fabric connected,
        # so the detour moves MP routes.
        hops = [
            (a, b)
            for paths in before.values()
            for path in paths
            for a, b in zip(path, path[1:])
        ]
        lazy, eager = FailureManager(result), FailureManager(eager_result)
        for link in sorted(set(hops), key=lambda hop: -hops.count(hop)):
            try:
                action = eager.fail_link(*link)
            except LinkFailureError:
                continue
            break
        else:
            pytest.fail("every MP link's loss disconnects the fabric")
        assert lazy.fail_link(*link) == action
        assert eager_result.routing.mp_paths != before
        assert_same_tables(result.routing, eager_result.routing)
        assert_same_kernel(result, eager_result)
        assert lazy.repair_permanently(*link) == eager.repair_permanently(
            *link
        )
        assert_same_tables(result.routing, eager_result.routing)
        assert_same_kernel(result, eager_result)

    def test_materialized_table_retires_its_arrays(self):
        result, _ = tf_case(7)
        fabric = TopoOptFabric(result, 100 * GBPS)
        assert fabric.mp_route_arrays() is not None
        result.routing.mp_paths[(0, 1)] = ((0, 1),)
        assert fabric.mp_route_arrays() is None
        assert result.routing.paths_for(0, 1) == ((0, 1),)

    def test_concurrent_first_reads_agree(self):
        # Eight threads look pairs up in one fresh table while another
        # reads its whole AllReduce table (and, every other round, its
        # MP table); a tiny switch interval interleaves them densely.
        pristine, demand = tf_case(11)
        n = pristine.topology.n
        eager = eager_table(pristine, demand)
        errors = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.0
            rounds = 0
            while time.monotonic() < deadline or rounds < 2:
                routing = copy.deepcopy(pristine).routing
                start = threading.Barrier(9, timeout=30)

                def lookups(seed):
                    rng = random.Random(seed)
                    start.wait()
                    for _ in range(300):
                        src, dst = rng.randrange(n), rng.randrange(n)
                        kind = rng.choice(("mp", "allreduce"))
                        got = routing.paths_for(src, dst, kind)
                        if got != eager.paths_for(src, dst, kind):
                            errors.append((src, dst, kind, got))

                def whole_tables(materialize):
                    start.wait()
                    if routing.allreduce_paths != eager.allreduce_paths:
                        errors.append("allreduce table")
                    if materialize and routing.mp_paths != eager.mp_paths:
                        errors.append("mp table")

                def recording(body, *args):
                    # A thread's exception is an error, not a warning.
                    try:
                        body(*args)
                    except Exception as exc:  # pragma: no cover
                        errors.append(repr(exc))

                threads = [
                    threading.Thread(
                        target=recording, args=(lookups, rounds * 8 + i)
                    )
                    for i in range(8)
                ] + [threading.Thread(
                    target=recording, args=(whole_tables, rounds % 2 == 1)
                )]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert_same_tables(routing, eager)
                rounds += 1
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
