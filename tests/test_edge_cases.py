"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.core.topology_finder import AllReduceGroup, topology_finder
from repro.core.totient import coprime_strides, totient_perms
from repro.network.fattree import IdealSwitchFabric
from repro.network.topoopt import TopoOptFabric
from repro.oracles import FluidNetwork
from repro.parallel.traffic import TrafficSummary
from repro.sim.flows import Flow
from repro.sim.fluid import simulate_phase
from repro.sim.network_sim import simulate_iteration


class TestTinyClusters:
    def test_two_server_cluster(self):
        group = AllReduceGroup(members=(0, 1), total_bytes=1e6)
        result = topology_finder(2, 2, [group])
        assert result.topology.is_strongly_connected()
        fabric = TopoOptFabric(result, 10e9)
        traffic = TrafficSummary(
            n=2, allreduce_groups=[group], mp_matrix=np.zeros((2, 2))
        )
        breakdown = simulate_iteration(fabric, traffic, 0.0)
        assert breakdown.allreduce_s > 0

    def test_single_server_no_communication(self):
        traffic = TrafficSummary(
            n=1, allreduce_groups=[], mp_matrix=np.zeros((1, 1))
        )
        fabric = IdealSwitchFabric(1, 1, 10e9)
        breakdown = simulate_iteration(fabric, traffic, compute_s=0.1)
        assert breakdown.total_s == pytest.approx(0.1)

    def test_degree_one_is_a_single_ring(self):
        group = AllReduceGroup(members=tuple(range(6)), total_bytes=1e6)
        result = topology_finder(6, 1, [group])
        assert result.topology.num_links() == 6
        assert result.topology.diameter() == 5

    def test_group_of_two_has_one_stride(self):
        assert coprime_strides(2) == [1]
        perms = totient_perms([4, 9])
        assert list(perms) == [1]


class TestDegenerateTraffic:
    def test_zero_byte_group_contributes_nothing(self):
        group = AllReduceGroup(members=(0, 1, 2), total_bytes=0.0)
        traffic = TrafficSummary(
            n=3, allreduce_groups=[group], mp_matrix=np.zeros((3, 3))
        )
        fabric = IdealSwitchFabric(3, 1, 10e9)
        breakdown = simulate_iteration(fabric, traffic, 0.0)
        assert breakdown.allreduce_s == 0.0

    def test_no_traffic_at_all(self):
        traffic = TrafficSummary(
            n=4, allreduce_groups=[], mp_matrix=np.zeros((4, 4))
        )
        fabric = IdealSwitchFabric(4, 1, 10e9)
        breakdown = simulate_iteration(fabric, traffic, compute_s=0.02)
        assert breakdown.total_s == pytest.approx(0.02)

    def test_mp_only_workload(self):
        mp = np.zeros((4, 4))
        mp[1, 2] = 1e6
        traffic = TrafficSummary(n=4, allreduce_groups=[], mp_matrix=mp)
        result = topology_finder(4, 2, [], mp)
        fabric = TopoOptFabric(result, 10e9)
        breakdown = simulate_iteration(fabric, traffic, 0.0)
        assert breakdown.mp_s > 0
        assert breakdown.allreduce_s == 0.0


class TestFluidEdgeCases:
    def test_utilization_reporting(self):
        net = FluidNetwork({(0, 1): 10e9, (1, 2): 10e9})
        net.add_flow(Flow(path=(0, 1), size_bits=1e9))
        utilization = net.utilization()
        assert utilization[(0, 1)] == pytest.approx(1.0)
        assert utilization[(1, 2)] == pytest.approx(0.0)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            FluidNetwork({})

    def test_many_tiny_flows_one_link(self):
        flows = [Flow(path=(0, 1), size_bits=8.0) for _ in range(100)]
        t = simulate_phase(
            {(0, 1): 800.0}, flows, include_propagation=False
        )
        assert t == pytest.approx(1.0, rel=1e-3)

    def test_wildly_different_sizes(self):
        flows = [
            Flow(path=(0, 1), size_bits=8.0),
            Flow(path=(0, 1), size_bits=8e9),
        ]
        t = simulate_phase(
            {(0, 1): 8e9}, flows, include_propagation=False
        )
        assert t == pytest.approx(1.0, rel=1e-6)

    def test_link_bytes_collection(self):
        group = AllReduceGroup(members=(0, 1, 2), total_bytes=3e6)
        traffic = TrafficSummary(
            n=3, allreduce_groups=[group], mp_matrix=np.zeros((3, 3))
        )
        result = topology_finder(3, 2, [group])
        fabric = TopoOptFabric(result, 10e9)
        breakdown = simulate_iteration(
            fabric, traffic, 0.0, collect_link_bytes=True
        )
        assert breakdown.link_bytes
        assert all(v > 0 for v in breakdown.link_bytes.values())


class TestLargeGroupScaling:
    def test_totient_perms_at_scale(self):
        # Prime restriction keeps the candidate pool manageable for
        # thousand-node groups (O(n / ln n)).
        group = list(range(1000))
        all_perms = totient_perms(group)
        prime_perms = totient_perms(group, primes_only=True)
        assert len(prime_perms) < len(all_perms)
        assert len(prime_perms) >= 100  # pi(1000) = 168

    def test_topology_finder_128_servers(self):
        group = AllReduceGroup(
            members=tuple(range(128)), total_bytes=1e9
        )
        result = topology_finder(128, 4, [group], primes_only=True)
        assert result.topology.is_strongly_connected()
        # Theorem 1 bound with slack.
        assert result.topology.diameter() <= 2 * 4 * 128 ** 0.25
