"""Equivalence tests: vectorized kernels vs. the retained seed code.

The kernel layer (repro.perf) must produce the same rate allocations,
hop counts, and path sets as the pure-Python reference implementations
it replaced -- on randomized inputs, and across cache invalidation.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing_lp import _normalize_splits
from repro.network.topology import DirectConnectTopology
from repro.oracles import (
    FluidNetwork,
    ReferenceFluidNetwork,
    all_shortest_paths_bfs,
    build_incidence,
    simulate_phase_reference,
)
from repro.perf.bench import run_benchmarks
from repro.perf.fairshare import progressive_filling_rates
from repro.sim.flows import Flow, FlowSet
from repro.sim.fluid import simulate_phase

GBPS = 1e9


def random_topology(rng, n, extra_edges, enforce=False):
    """Ring (for connectivity) plus random extra directed links."""
    topo = DirectConnectTopology(n, degree=n, enforce_degree=enforce)
    topo.add_ring(list(range(n)))
    for _ in range(extra_edges):
        src, dst = rng.integers(0, n, size=2)
        if src != dst:
            topo.add_link(int(src), int(dst))
    return topo


def random_flows(rng, topo, count):
    """Flows over random min-hop paths with random sizes."""
    flows = []
    n = topo.n
    while len(flows) < count:
        src, dst = rng.integers(0, n, size=2)
        if src == dst:
            continue
        paths = topo.all_shortest_paths(int(src), int(dst), cap=3)
        if not paths:
            continue
        path = paths[int(rng.integers(0, len(paths)))]
        size = float(rng.uniform(1e8, 5e9))
        flows.append(Flow(path=tuple(path), size_bits=size))
    return flows


@st.composite
def compiler_inputs(draw):
    """Walks of 1-5 hops (links may repeat) over a random link table.

    Returns ``(paths, capacities)``, the capacity table's keys in
    random order.
    """
    n = draw(st.integers(2, 7))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    links = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    out = {}
    for src, dst in links:
        out.setdefault(src, []).append(dst)
    paths = []
    for _ in range(draw(st.integers(1, 40))):
        path = list(draw(st.sampled_from(links)))
        for _ in range(draw(st.integers(0, 4))):
            nexts = out.get(path[-1])
            if not nexts:
                break
            path.append(draw(st.sampled_from(nexts)))
        paths.append(tuple(path))
    caps = draw(st.lists(
        st.floats(1.0, 400.0), min_size=len(links), max_size=len(links)
    ))
    return paths, {link: cap * GBPS for link, cap in zip(links, caps)}


class TestFluidRateEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_rates_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 14))
        topo = random_topology(rng, n, extra_edges=3 * n)
        capacities = {
            (s, d): count * float(rng.uniform(1, 10)) * GBPS
            for s, d, count in topo.edges()
        }
        flows_ref = random_flows(rng, topo, count=4 * n)
        flows_vec = [
            Flow(path=f.path, size_bits=f.size_bits) for f in flows_ref
        ]
        ref = ReferenceFluidNetwork(capacities)
        for f in flows_ref:
            ref.add_flow(f)
        ref.recompute_rates()
        vec = FluidNetwork(capacities)
        for f in flows_vec:
            vec.add_flow(f)
        vec.recompute_rates()
        ref_rates = np.array([f.rate_bps for f in flows_ref])
        vec_rates = np.array([f.rate_bps for f in flows_vec])
        assert np.allclose(ref_rates, vec_rates, rtol=1e-6)

    def test_kernel_direct_vs_reference_simple(self):
        # Textbook 3-flow example solved by the raw kernel.
        links = [(0, 1), (1, 2)]
        paths = [(0, 1), (0, 1, 2), (1, 2)]
        incidence, _ = FlowSet.from_paths(paths, [1.0] * 3, links).matrices()
        rates = progressive_filling_rates(np.array([GBPS, GBPS]), incidence)
        assert np.allclose(rates, [0.5 * GBPS] * 3)

    @settings(deadline=None, max_examples=200)
    @given(compiler_inputs(), st.data())
    def test_incidence_builders_agree(self, inputs, data):
        # The one compiler against the oracle builder: the same
        # (link, flow) entries once rows map through each link table,
        # bitwise-equal max-min rates, and a KeyError naming the first
        # unknown link.
        paths, capacities = inputs
        table = list(capacities)
        flows = FlowSet.from_paths(paths, [1.0] * len(paths), table)
        inc_a, cap_a, order_a = build_incidence(
            [list(zip(p, p[1:])) for p in paths], capacities
        )
        inc_b, _ = flows.matrices()
        entries_a = {
            (order_a[r], c) for r, c in zip(*inc_a.nonzero())
        }
        entries_b = {(table[r], c) for r, c in zip(*inc_b.nonzero())}
        assert entries_a == entries_b
        assert np.all(inc_a.data == 1.0) and np.all(inc_b.data == 1.0)
        cap_b = np.array([capacities[link] for link in table])
        rates_a = progressive_filling_rates(cap_a, inc_a)
        rates_b = progressive_filling_rates(cap_b, inc_b)
        assert rates_a.tobytes() == rates_b.tobytes()
        n = 1 + max(max(link) for link in table)
        unknown = data.draw(st.tuples(
            st.integers(0, n + 1), st.integers(0, n + 1)
        ).filter(lambda link: link not in capacities))
        where = data.draw(st.integers(0, len(paths)))
        bad = paths[:where] + [unknown] + paths[where:]
        with pytest.raises(KeyError, match=re.escape(str(unknown))):
            FlowSet.from_paths(bad, [1.0] * len(bad), table)

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError, match=r"\(0, 1\)"):
            FlowSet.from_paths([(0, 1)], [1.0], [(1, 0)])

    def test_active_mask_excludes_flows(self):
        paths = [(0, 1), (0, 1)]
        flows = FlowSet.from_paths(paths, [1.0, 1.0], [(0, 1)])
        incidence, _ = flows.matrices()
        rates = progressive_filling_rates(
            np.array([GBPS]), incidence, active=np.array([True, False])
        )
        assert rates[0] == pytest.approx(GBPS)
        assert rates[1] == 0.0


class TestPhaseSimEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_makespans_match(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 10))
        topo = random_topology(rng, n, extra_edges=2 * n)
        capacities = {
            (s, d): count * 10 * GBPS for s, d, count in topo.edges()
        }
        flows_ref = random_flows(rng, topo, count=2 * n)
        flows_vec = [
            Flow(path=f.path, size_bits=f.size_bits) for f in flows_ref
        ]
        ref = simulate_phase_reference(capacities, flows_ref)
        vec = simulate_phase(capacities, flows_vec)
        # The reference pads every completion batch by the 1 ns quantum;
        # the vectorized runner only extends to genuinely merged
        # completions, so agreement is to quantum resolution.
        assert vec == pytest.approx(ref, rel=1e-4)

    def test_no_quantum_inflation(self):
        # Seed behavior padded the makespan by one quantum per batch;
        # the batched runner must return the exact fluid makespan.
        capacities = {(0, 1): 8e9}
        flows = [
            Flow(path=(0, 1), size_bits=2e9),
            Flow(path=(0, 1), size_bits=6e9),
        ]
        makespan = simulate_phase(capacities, flows, include_propagation=False)
        assert makespan == pytest.approx(1.0, rel=1e-12)

    def test_simultaneous_completions_single_batch(self):
        n = 6
        capacities = {}
        flows = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    capacities[(i, j)] = GBPS
                    flows.append(Flow(path=(i, j), size_bits=1e9))
        makespan = simulate_phase(capacities, flows, include_propagation=False)
        assert makespan == pytest.approx(1.0, rel=1e-6)

    def test_deadlock_detection(self):
        # A flow crossing only a link whose capacity is consumed can't
        # happen in max-min filling, but zero-rate detection must hold
        # for genuinely unroutable inputs (guarded by capacity checks).
        with pytest.raises((RuntimeError, ValueError)):
            simulate_phase({(0, 1): 0.0}, [Flow(path=(0, 1), size_bits=1e9)])


class TestHopCountEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_pairs_matches_per_source_bfs(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 20))
        topo = DirectConnectTopology(n, degree=n, enforce_degree=False)
        for _ in range(int(rng.integers(n, 4 * n))):
            src, dst = rng.integers(0, n, size=2)
            if src != dst:
                topo.add_link(int(src), int(dst))
        if topo.num_links() == 0:
            topo.add_link(0, min(1, n - 1)) if n > 1 else None
        hops = topo.all_pairs_hop_counts()
        for src in range(n):
            bfs = topo.shortest_path_lengths_from(src)
            for dst in range(n):
                if dst in bfs:
                    assert hops[src, dst] == bfs[dst]
                else:
                    assert np.isinf(hops[src, dst])

    def test_cache_invalidation_on_mutation(self):
        topo = DirectConnectTopology(6, degree=6)
        topo.add_ring(list(range(6)))
        assert topo.all_pairs_hop_counts()[0, 3] == 3
        assert topo.diameter() == 5
        topo.add_link(0, 3)
        assert topo.all_pairs_hop_counts()[0, 3] == 1
        topo.remove_link(0, 3)
        assert topo.all_pairs_hop_counts()[0, 3] == 3
        assert topo.diameter() == 5

    def test_scalar_queries_match_seed_loops(self):
        topo = DirectConnectTopology(8, degree=4)
        topo.add_ring(list(range(8)))
        topo.add_ring([(3 * i) % 8 for i in range(8)])
        dists = [topo.shortest_path_lengths_from(s) for s in range(8)]
        seed_diameter = max(max(d.values()) for d in dists)
        seed_total = sum(sum(d.values()) for d in dists)
        assert topo.diameter() == seed_diameter
        assert topo.average_path_length() == pytest.approx(
            seed_total / (8 * 7)
        )
        assert sorted(topo.path_length_distribution()) == sorted(
            h for d in dists for node, h in d.items() if h > 0
        )


class TestPathEnumerationEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_paths_match_per_pair_bfs(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(5, 12))
        topo = random_topology(rng, n, extra_edges=2 * n)
        big_cap = 10_000
        for src in range(n):
            batched = topo.min_hop_paths_from(src, big_cap)
            for dst in range(n):
                if dst == src:
                    continue
                ref = all_shortest_paths_bfs(topo, src, dst, big_cap)
                new = batched.get(dst, [])
                assert sorted(map(tuple, ref)) == sorted(map(tuple, new))

    def test_post_mutation_path_refresh(self):
        topo = DirectConnectTopology(5, degree=5)
        topo.add_ring([0, 1, 2, 3, 4])
        assert topo.min_hop_paths_from(0)[2] == [[0, 1, 2]]
        topo.add_link(0, 2)
        assert topo.min_hop_paths_from(0)[2] == [[0, 2]]

    def test_capped_enumeration_returns_valid_min_hop_paths(self):
        topo = DirectConnectTopology(6, degree=6, enforce_degree=False)
        for mid in (1, 2, 3, 4):
            topo.add_link(0, mid)
            topo.add_link(mid, 5)
        paths = topo.all_shortest_paths(0, 5, cap=2)
        assert len(paths) == 2
        for path in paths:
            assert len(path) == 3
            assert path[0] == 0 and path[-1] == 5
            for a, b in zip(path, path[1:]):
                assert topo.has_link(a, b)


class TestDegreeCounters:
    @pytest.mark.parametrize("seed", range(3))
    def test_counters_match_counter_sums(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 10
        topo = DirectConnectTopology(n, degree=n, enforce_degree=False)
        added = []
        for _ in range(60):
            src, dst = rng.integers(0, n, size=2)
            if src == dst:
                continue
            topo.add_link(int(src), int(dst))
            added.append((int(src), int(dst)))
        rng.shuffle(added)
        for src, dst in added[: len(added) // 2]:
            topo.remove_link(src, dst)
        for node in range(n):
            assert topo.out_degree(node) == sum(topo._out[node].values())
            assert topo.in_degree(node) == sum(topo._in[node].values())

    def test_copy_preserves_counters(self):
        topo = DirectConnectTopology(4, degree=2)
        topo.add_ring([0, 1, 2, 3])
        clone = topo.copy()
        for node in range(4):
            assert clone.out_degree(node) == topo.out_degree(node)
            assert clone.in_degree(node) == topo.in_degree(node)
        # Clone must accept links up to its own budget independently.
        clone.add_link(0, 2)
        assert clone.out_degree(0) == 2
        assert topo.out_degree(0) == 1


class TestLpSplitNormalization:
    def test_zero_weight_fallback_picks_best_candidate(self):
        candidates = [[0, 1, 2], [0, 3, 2]]
        splits = _normalize_splits(candidates, [1e-12, 5e-11])
        assert splits == [([0, 3, 2], 1.0)]

    def test_normal_weights_renormalized(self):
        candidates = [[0, 1], [0, 2, 1]]
        splits = _normalize_splits(candidates, [0.6, 0.2])
        total = sum(w for _, w in splits)
        assert total == pytest.approx(1.0)
        assert splits[0] == ([0, 1], pytest.approx(0.75))


class TestBenchRunner:
    def test_smoke_sizes_report_speedups(self):
        results = run_benchmarks("smoke", scenarios=("routing",))
        assert list(results["routing"]) == ["n=16", "n=64"]
        entry = results["routing"]["n=16"]
        assert entry["hop_counts_match"]
        assert entry["reference_s"] > 0
        assert entry["vectorized_s"] > 0
