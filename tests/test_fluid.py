"""Unit tests for the max-min fair fluid network."""

import numpy as np
import pytest

from repro.core.topology_finder import AllReduceGroup
from repro.network.fattree import LeafSpineFabric
from repro.oracles import FluidNetwork
from repro.parallel.traffic import TrafficSummary
from repro.sim.flows import Flow, FlowSet
from repro.sim.fluid import simulate_phase
from repro.sim.network_sim import simulate_iteration, traffic_paths

GBPS = 1e9


def flow(path, size_bits):
    return Flow(path=tuple(path), size_bits=size_bits)


class TestRateAllocation:
    def test_single_flow_gets_full_capacity(self):
        net = FluidNetwork({(0, 1): 10 * GBPS})
        f = flow([0, 1], 1e9)
        net.add_flow(f)
        net.recompute_rates()
        assert f.rate_bps == pytest.approx(10 * GBPS)

    def test_two_flows_share_fairly(self):
        net = FluidNetwork({(0, 1): 10 * GBPS})
        f1, f2 = flow([0, 1], 1e9), flow([0, 1], 2e9)
        net.add_flow(f1)
        net.add_flow(f2)
        net.recompute_rates()
        assert f1.rate_bps == pytest.approx(5 * GBPS)
        assert f2.rate_bps == pytest.approx(5 * GBPS)

    def test_bottleneck_frees_other_links(self):
        # f1 crosses the slow link; f2 should get the leftover on (1,2).
        net = FluidNetwork({(0, 1): 2 * GBPS, (1, 2): 10 * GBPS})
        f1 = flow([0, 1, 2], 1e9)
        f2 = flow([1, 2], 1e9)
        net.add_flow(f1)
        net.add_flow(f2)
        net.recompute_rates()
        assert f1.rate_bps == pytest.approx(2 * GBPS)
        assert f2.rate_bps == pytest.approx(8 * GBPS)

    def test_max_min_textbook_example(self):
        # Three flows, two unit links: A on link1, B on both, C on link2.
        net = FluidNetwork({(0, 1): 1 * GBPS, (1, 2): 1 * GBPS})
        a = flow([0, 1], 1e9)
        b = flow([0, 1, 2], 1e9)
        c = flow([1, 2], 1e9)
        for f in (a, b, c):
            net.add_flow(f)
        net.recompute_rates()
        assert b.rate_bps == pytest.approx(0.5 * GBPS)
        assert a.rate_bps == pytest.approx(0.5 * GBPS)
        assert c.rate_bps == pytest.approx(0.5 * GBPS)

    def test_removal_restores_capacity(self):
        net = FluidNetwork({(0, 1): 10 * GBPS})
        f1, f2 = flow([0, 1], 1e9), flow([0, 1], 1e9)
        net.add_flow(f1)
        net.add_flow(f2)
        net.recompute_rates()
        net.remove_flow(f2)
        net.recompute_rates()
        assert f1.rate_bps == pytest.approx(10 * GBPS)

    def test_unknown_link_rejected(self):
        net = FluidNetwork({(0, 1): GBPS})
        with pytest.raises(KeyError):
            net.add_flow(flow([1, 0], 1e6))

    def test_capacity_conservation(self):
        # No link is oversubscribed under max-min allocation.
        caps = {(0, 1): GBPS, (1, 2): 2 * GBPS, (0, 2): GBPS}
        net = FluidNetwork(caps)
        flows = [
            flow([0, 1], 1e9),
            flow([0, 1, 2], 1e9),
            flow([0, 2], 1e9),
            flow([1, 2], 1e9),
        ]
        for f in flows:
            net.add_flow(f)
        net.recompute_rates()
        for link, cap in caps.items():
            used = sum(
                f.rate_bps for f in flows if link in f.links
            )
            assert used <= cap * (1 + 1e-9)


class TestAdvance:
    def test_completion_detection(self):
        net = FluidNetwork({(0, 1): 8e9})  # 1 GB/s
        f = flow([0, 1], 8e9)  # 1 second of work
        net.add_flow(f)
        dt = net.time_to_next_completion()
        assert dt == pytest.approx(1.0)
        done = net.advance(dt + 1e-9)
        assert done == [f]
        assert not net.active

    def test_partial_progress(self):
        net = FluidNetwork({(0, 1): 8e9})
        f = flow([0, 1], 8e9)
        net.add_flow(f)
        net.recompute_rates()
        net.advance(0.25)
        assert f.remaining_bits == pytest.approx(6e9)

    def test_negative_dt_rejected(self):
        net = FluidNetwork({(0, 1): 1e9})
        with pytest.raises(ValueError):
            net.advance(-1.0)


class TestSimulatePhase:
    def test_empty_phase_is_instant(self):
        assert simulate_phase({(0, 1): GBPS}, []) == 0.0

    def test_single_flow_makespan(self):
        t = simulate_phase(
            {(0, 1): 8e9}, [flow([0, 1], 8e9)], include_propagation=False
        )
        assert t == pytest.approx(1.0, rel=1e-6)

    def test_shared_link_serializes(self):
        t = simulate_phase(
            {(0, 1): 8e9},
            [flow([0, 1], 4e9), flow([0, 1], 4e9)],
            include_propagation=False,
        )
        assert t == pytest.approx(1.0, rel=1e-6)

    def test_short_flow_finishes_then_long_speeds_up(self):
        # 1 Gb and 3 Gb on an 8 Gbps link: share until t=0.25 (both move
        # 1 Gb), then the long one takes (3-1)/8 = 0.25 more.
        t = simulate_phase(
            {(0, 1): 8e9},
            [flow([0, 1], 2e9), flow([0, 1], 6e9)],
            include_propagation=False,
        )
        assert t == pytest.approx(1.0, rel=1e-5)

    def test_disjoint_flows_parallel(self):
        t = simulate_phase(
            {(0, 1): 8e9, (2, 3): 8e9},
            [flow([0, 1], 8e9), flow([2, 3], 8e9)],
            include_propagation=False,
        )
        assert t == pytest.approx(1.0, rel=1e-6)

    def test_propagation_delay_added(self):
        t = simulate_phase({(0, 1): 8e9}, [flow([0, 1], 8.0)])
        assert t >= 1e-6  # one hop of 1 us dominates the tiny transfer

    def test_symmetric_all_to_all_batches(self):
        # n^2 symmetric flows must complete in very few rate rounds.
        n = 8
        caps = {}
        flows = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    caps[(i, j)] = GBPS
                    flows.append(flow([i, j], 1e9))
        t = simulate_phase(caps, flows, include_propagation=False)
        assert t == pytest.approx(1.0, rel=1e-4)


class TestPhaseLinkBytes:
    def test_accumulates_per_hop(self):
        flows = FlowSet.from_paths(
            [(0, 1, 2), (0, 1)], [8e9, 8e9], [(1, 2), (0, 1), (2, 0)]
        )
        assert flows.link_bytes() == {(0, 1): 2e9, (1, 2): 1e9}

    def test_iteration_link_bytes_add_per_hop_in_flow_order(self):
        # Every MP flow, then every AllReduce flow, adds its bytes to
        # each link it crosses, in flow order: the same floats as a
        # per-hop loop, bit for bit.
        rng = np.random.default_rng(5)
        n = 16
        mp = rng.uniform(1e5, 1e7, (n, n)) * (rng.random((n, n)) < 0.3)
        groups = [
            AllReduceGroup(members=tuple(range(0, n, 2)), total_bytes=3e7),
            AllReduceGroup(members=(1, 5, 9, 13), total_bytes=7e6),
        ]
        traffic = TrafficSummary(n=n, allreduce_groups=groups, mp_matrix=mp)
        fabric = LeafSpineFabric(n, 2, 10e9, num_spines=2)
        breakdown = simulate_iteration(
            fabric, traffic, 0.0, collect_link_bytes=True
        )
        expected = {}
        for path, size in zip(*traffic_paths(fabric, traffic)):
            for link in zip(path, path[1:]):
                expected[link] = expected.get(link, 0.0) + size / 8.0
        assert breakdown.link_bytes == expected
