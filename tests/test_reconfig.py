"""Tests for the reconfigurable-fabric simulator (section 5.7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.sipml import SipMLFabric
from repro.sim.flows import Flow
from repro.sim.fluid import FluidNetwork
from repro.sim.reconfig import ReconfigurableFabricSimulator

GBPS = 1e9


def uniform_demand(n, per_pair):
    matrix = np.full((n, n), float(per_pair))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def single_pair_demand(n, src, dst, size):
    matrix = np.zeros((n, n))
    matrix[src, dst] = size
    return matrix


class TestDrainDemand:
    def test_single_pair_time(self):
        # Algorithm 5's exponential discount gives the lone hot pair
        # both interfaces: 1.25 GB over 2 x 10 Gbps = 0.5 s.
        sim = ReconfigurableFabricSimulator(
            4, 2, 10 * GBPS, reconfiguration_latency_s=0.0,
            demand_epoch_s=10.0,
        )
        t = sim.drain_demand(single_pair_demand(4, 0, 1, 1.25e9))
        assert t == pytest.approx(0.5, rel=0.01)

    def test_reconfiguration_latency_paid(self):
        fast = ReconfigurableFabricSimulator(
            4, 2, 10 * GBPS, reconfiguration_latency_s=0.0
        )
        slow = ReconfigurableFabricSimulator(
            4, 2, 10 * GBPS, reconfiguration_latency_s=0.5
        )
        demand = single_pair_demand(4, 0, 1, 1.25e8)
        assert slow.drain_demand(demand.copy()) >= (
            fast.drain_demand(demand.copy()) + 0.5
        )

    def test_uniform_demand_drains(self):
        sim = ReconfigurableFabricSimulator(
            6, 2, 10 * GBPS, reconfiguration_latency_s=1e-3,
            host_forwarding=True,
        )
        t = sim.drain_demand(uniform_demand(6, 1e7))
        assert t > 0
        assert sim.epochs  # at least one epoch ran

    def test_no_forwarding_needs_more_epochs(self):
        # Without host forwarding, unconnected pairs must wait for later
        # circuit rounds, so serving all-to-all takes more epochs.
        demand = uniform_demand(8, 1e7)
        fw = ReconfigurableFabricSimulator(
            8, 2, 10 * GBPS, reconfiguration_latency_s=1e-3,
            host_forwarding=True,
        )
        nofw = ReconfigurableFabricSimulator(
            8, 2, 10 * GBPS, reconfiguration_latency_s=1e-3,
            host_forwarding=False,
        )
        fw.drain_demand(demand.copy())
        nofw.drain_demand(demand.copy())
        assert len(nofw.epochs) >= len(fw.epochs)

    def test_reconfig_latency_dominates_many_to_many(self):
        # Figure 17's message: with many-to-many demand and no
        # forwarding, higher reconfiguration latency directly inflates
        # the completion time.
        demand = uniform_demand(8, 1e6)
        times = []
        for latency in (1e-6, 10e-3):
            sim = ReconfigurableFabricSimulator(
                8, 2, 10 * GBPS, reconfiguration_latency_s=latency,
                host_forwarding=False,
            )
            times.append(sim.drain_demand(demand.copy()))
        assert times[1] > times[0]

    def test_timeout_guard(self):
        sim = ReconfigurableFabricSimulator(4, 2, 10 * GBPS)
        with pytest.raises(RuntimeError):
            sim.drain_demand(
                single_pair_demand(4, 0, 1, 1e18), max_time_s=0.5
            )


class TestIterationTime:
    def test_phases_serialized(self):
        sim = ReconfigurableFabricSimulator(
            4, 2, 10 * GBPS, reconfiguration_latency_s=0.0,
            demand_epoch_s=10.0,
        )
        mp = single_pair_demand(4, 0, 1, 1.25e9)
        ar = single_pair_demand(4, 2, 3, 1.25e9)
        # Each phase: 1.25 GB over 2 parallel 10 Gbps circuits = 0.5 s.
        t = sim.iteration_time(mp, ar, compute_s=0.5)
        assert t == pytest.approx(0.5 + 0.5 + 0.5, rel=0.02)

    def test_empty_phases_skipped(self):
        sim = ReconfigurableFabricSimulator(4, 2, 10 * GBPS)
        t = sim.iteration_time(np.zeros((4, 4)), np.zeros((4, 4)), 0.25)
        assert t == pytest.approx(0.25)


class TestSipML:
    def test_name_and_modes(self):
        fabric = SipMLFabric(8, 4, 100 * GBPS)
        assert fabric.name == "SiP-ML"
        assert fabric.sipml_mode and not fabric.host_forwarding
        assert not fabric.supports_multiple_jobs()

    def test_low_latency_default(self):
        fabric = SipMLFabric(8, 4, 100 * GBPS)
        assert fabric.reconfiguration_latency_s == pytest.approx(25e-6)

    def test_sipml_flat_for_many_to_many(self):
        # Figure 11d/e: SiP-ML's iteration time barely improves with
        # more bandwidth when the pattern needs many reconfigurations.
        demand = uniform_demand(8, 1e6)
        times = []
        for bandwidth in (10 * GBPS, 100 * GBPS):
            fabric = SipMLFabric(
                8, 2, bandwidth, reconfiguration_latency_s=5e-3,
                demand_epoch_s=10e-3,
            )
            times.append(fabric.drain_demand(demand.copy()))
        speedup = times[0] / times[1]
        assert speedup < 3.0  # nowhere near the 10x bandwidth increase


class TestDrainThreshold:
    def test_sub_byte_leftovers_do_not_stall(self):
        # Pairs at or below one byte never get a flow, so they must not
        # keep the drain loop alive either.
        demand = np.zeros((8, 8))
        demand[0, 1] = 1e6
        demand[1, 2] = demand[2, 3] = 0.6
        sim = ReconfigurableFabricSimulator(8, 2, 100 * GBPS)
        assert sim.drain_demand(demand) == 0.010040001
        assert len(sim.epochs) == 1


# ----------------------------------------------------------------------
# Oracle: the pre-array epoch loop over the dict-based FluidNetwork and
# one shortest_path BFS per pair.  Kept here only to pin the array port.
# ----------------------------------------------------------------------

class _FluidNetworkEpochs:
    def _serve_epoch(self, topology, demand):
        flows = self._build_flows(topology, demand)
        if not flows:
            return 0.0, self.demand_epoch_s
        network = FluidNetwork(
            {
                (src, dst): count * self.link_bandwidth_bps
                for src, dst, count in topology.edges()
            }
        )
        for flow in flows:
            network.add_flow(flow)
        elapsed = 0.0
        served = 0.0
        while network.active and elapsed < self.demand_epoch_s:
            dt = network.time_to_next_completion()
            if dt is None:
                break
            dt = min(dt + 1e-9, self.demand_epoch_s - elapsed)
            before = {
                f.flow_id: f.remaining_bits for f in network.active.values()
            }
            network.advance(dt)
            elapsed += dt
            for flow in flows:
                if flow.flow_id in before:
                    moved_bits = before[flow.flow_id] - flow.remaining_bits
                    if moved_bits > 0:
                        served += moved_bits / 8.0
                        demand[flow.tag] = max(
                            0.0, demand[flow.tag] - moved_bits / 8.0
                        )
        return served, elapsed

    def _build_flows(self, topology, demand):
        flows = []
        n = self.num_servers
        for src in range(n):
            for dst in range(n):
                byte_count = demand[src, dst]
                if src == dst or byte_count <= 1.0:
                    continue
                if topology.has_link(src, dst):
                    path = [src, dst]
                elif self.host_forwarding:
                    path = topology.shortest_path(src, dst)
                else:
                    path = None
                if path is None:
                    continue
                flows.append(
                    Flow(
                        path=tuple(path),
                        size_bits=byte_count * 8.0,
                        kind="mp",
                        tag=(src, dst),
                    )
                )
        return flows


class _OracleReconfig(_FluidNetworkEpochs, ReconfigurableFabricSimulator):
    pass


class _OracleSipML(_FluidNetworkEpochs, SipMLFabric):
    pass


def _fabric_pair(kind, n, degree, bandwidth):
    if kind == "sipml":
        return (
            SipMLFabric(n, degree, bandwidth),
            _OracleSipML(n, degree, bandwidth),
        )
    forwarding = kind == "fw"
    return (
        ReconfigurableFabricSimulator(
            n, degree, bandwidth, host_forwarding=forwarding
        ),
        _OracleReconfig(n, degree, bandwidth, host_forwarding=forwarding),
    )


def _drain_exact(sim, demand):
    """Bit patterns of the drain time and every epoch field (or the error)."""
    try:
        total = sim.drain_demand(demand)
    except RuntimeError as error:
        return ("raised", str(error))
    epochs = [
        (
            float(epoch.start_s).hex(),
            float(epoch.reconfig_latency_s).hex(),
            float(epoch.served_bytes).hex(),
            epoch.active_links,
        )
        for epoch in sim.epochs
    ]
    return float(total).hex(), epochs


_byte_counts = st.one_of(
    st.floats(0.01, 1.0),  # sub-byte: never served, never blocking
    st.floats(1.0, 64.0),
    st.floats(1e3, 2e7),
)


@st.composite
def _sparse_demand(draw):
    n = draw(st.integers(4, 16))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=12,
                 unique=True)
    )
    demand = np.zeros((n, n))
    for pair in chosen:
        demand[pair] = draw(_byte_counts)
    return demand


class TestArrayPortMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        demand=_sparse_demand(),
        degree=st.integers(2, 4),
        kind=st.sampled_from(["fw", "nofw", "sipml"]),
        bandwidth=st.sampled_from([10 * GBPS, 100 * GBPS]),
    )
    def test_drain_is_bitwise_equal(self, demand, degree, kind, bandwidth):
        fabric, oracle = _fabric_pair(kind, len(demand), degree, bandwidth)
        assert _drain_exact(fabric, demand.copy()) == _drain_exact(
            oracle, demand.copy()
        )

    @pytest.mark.parametrize("kind", ["fw", "nofw", "sipml"])
    def test_caller_demand_left_as_the_oracle_leaves_it(self, kind):
        rng = np.random.default_rng(5)
        demand = np.where(
            rng.random((12, 12)) < 0.3, rng.uniform(0.2, 4e6, (12, 12)), 0.0
        )
        demand[0, 5] = 0.5
        original = demand.copy()
        fabric, oracle = _fabric_pair(kind, 12, 3, 100 * GBPS)
        ours, theirs = demand.copy(), demand.copy()
        fabric.drain_demand(ours)
        oracle.drain_demand(theirs)
        assert ours.tobytes() == theirs.tobytes() == original.tobytes()
