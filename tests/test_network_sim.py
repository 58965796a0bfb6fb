"""Integration tests for iteration simulation (the Eq. 1 model)."""

import numpy as np
import pytest

from repro.core.topology_finder import AllReduceGroup, topology_finder
from repro.models import build_model, compute_time_seconds
from repro.network.expander import ExpanderFabric
from repro.network.fattree import FatTreeFabric, IdealSwitchFabric
from repro.network.topoopt import TopoOptFabric
from repro.parallel.strategy import data_parallel_strategy, hybrid_strategy
from repro.parallel.traffic import TrafficSummary, extract_traffic
from repro.sim.network_sim import simulate_iteration

GBPS = 1e9


def dp_traffic(n, total_bytes):
    return TrafficSummary(
        n=n,
        allreduce_groups=[
            AllReduceGroup(members=tuple(range(n)), total_bytes=total_bytes)
        ],
        mp_matrix=np.zeros((n, n)),
    )


class TestAllReducePhase:
    def test_ideal_switch_allreduce_time(self):
        # 2 (k-1)/k S / (d B): the bandwidth-optimal ring time.
        n, d, B = 8, 4, 100 * GBPS
        fabric = IdealSwitchFabric(n, d, B)
        traffic = dp_traffic(n, 1e9)
        breakdown = simulate_iteration(fabric, traffic, compute_s=0.0)
        expected = 2 * 7 / 8 * 1e9 * 8 / (d * B)
        assert breakdown.allreduce_s == pytest.approx(expected, rel=1e-3)

    def test_topoopt_matches_ideal_for_pure_dp(self):
        # Figure 11a-c: with pure data parallelism, TopoOpt's d rings at
        # B each equal the Ideal Switch's single d*B pipe.
        n, d, B = 16, 4, 100 * GBPS
        traffic = dp_traffic(n, 1e9)
        result = topology_finder(n, d, traffic.allreduce_groups)
        topoopt = TopoOptFabric(result, B)
        ideal = IdealSwitchFabric(n, d, B)
        t_topo = simulate_iteration(topoopt, traffic, 0.0).allreduce_s
        t_ideal = simulate_iteration(ideal, traffic, 0.0).allreduce_s
        assert t_topo == pytest.approx(t_ideal, rel=0.01)

    def test_fattree_slower_by_bandwidth_ratio(self):
        n, d = 8, 4
        traffic = dp_traffic(n, 1e9)
        fast = IdealSwitchFabric(n, d, 100 * GBPS)
        slow = FatTreeFabric(n, d, 33 * GBPS)
        t_fast = simulate_iteration(fast, traffic, 0.0).allreduce_s
        t_slow = simulate_iteration(slow, traffic, 0.0).allreduce_s
        assert t_slow / t_fast == pytest.approx(100 / 33, rel=0.02)


class TestMpPhase:
    def test_mp_needs_paths(self):
        n = 4
        mp = np.zeros((n, n))
        mp[0, 3] = 1e9
        traffic = TrafficSummary(n=n, allreduce_groups=[], mp_matrix=mp)
        fabric = IdealSwitchFabric(n, 2, 100 * GBPS)
        breakdown = simulate_iteration(fabric, traffic, 0.0)
        assert breakdown.mp_s > 0
        assert breakdown.allreduce_s == 0.0

    def test_host_forwarding_tax_visible(self):
        # The same MP matrix takes longer on TopoOpt than on an Ideal
        # Switch of the same aggregate bandwidth (bandwidth tax).
        n, d, B = 12, 4, 25 * GBPS
        model = build_model("DLRM", scale="testbed")
        strategy = hybrid_strategy(model, n)
        traffic = extract_traffic(model, strategy, 64, 1)
        result = topology_finder(
            n, d, traffic.allreduce_groups, traffic.mp_matrix
        )
        topoopt = TopoOptFabric(result, B)
        ideal = IdealSwitchFabric(n, d, B)
        t_topo = simulate_iteration(topoopt, traffic, 0.0).mp_s
        t_ideal = simulate_iteration(ideal, traffic, 0.0).mp_s
        assert t_topo > t_ideal


class TestBreakdown:
    def test_total_is_sum_of_phases(self):
        fabric = IdealSwitchFabric(4, 2, GBPS)
        traffic = dp_traffic(4, 1e8)
        b = simulate_iteration(fabric, traffic, compute_s=0.5)
        assert b.total_s == pytest.approx(
            b.compute_s + b.mp_s + b.allreduce_s
        )

    def test_network_overhead_fraction(self):
        fabric = IdealSwitchFabric(4, 2, GBPS)
        traffic = dp_traffic(4, 1e8)
        b = simulate_iteration(fabric, traffic, compute_s=0.0)
        assert b.network_overhead_fraction == pytest.approx(1.0)

    def test_overhead_grows_with_scale(self):
        # Figure 3: more servers -> higher network overhead at fixed
        # per-server batch (weak scaling).
        model = build_model("VGG16", scale="simulation")
        compute = compute_time_seconds(model, 64)
        fractions = []
        for n in (4, 8, 16):
            fabric = IdealSwitchFabric(n, 1, 25 * GBPS)
            strategy = data_parallel_strategy(model, n)
            traffic = extract_traffic(model, strategy, 64)
            b = simulate_iteration(fabric, traffic, compute)
            fractions.append(b.network_overhead_fraction)
        assert fractions[0] < fractions[1] < fractions[2]


class TestExpanderBaseline:
    def test_expander_worse_than_topoopt_for_dp(self):
        # Figure 11: the Expander's oblivious wiring cannot carry the
        # ring AllReduce on direct links.
        n, d, B = 16, 4, 25 * GBPS
        traffic = dp_traffic(n, 1e9)
        result = topology_finder(n, d, traffic.allreduce_groups)
        topoopt = TopoOptFabric(result, B)
        expander = ExpanderFabric(n, d, B, seed=0)
        t_topo = simulate_iteration(topoopt, traffic, 0.0).allreduce_s
        t_exp = simulate_iteration(expander, traffic, 0.0).allreduce_s
        assert t_exp > t_topo
