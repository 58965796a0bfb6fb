"""Tests for the 12-node testbed emulation (section 6)."""

import pytest

from repro.api.spec import EXPERIMENT_PRESETS
from repro.testbed.accuracy import TimeToAccuracyModel
from repro.testbed.nccl import NcclCommunicator
from repro.testbed.prototype import TestbedEmulator
from repro.core.topology_finder import AllReduceGroup, topology_finder
from repro.parallel.traffic import extract_traffic
from repro.parallel.strategy import hybrid_strategy


class TestTestbedConfig:
    def test_paper_dimensions(self):
        # The emulator's jobs run on the testbed preset's cluster.
        cluster = EXPERIMENT_PRESETS["testbed"]
        assert (
            cluster.servers, cluster.degree, cluster.bandwidth_gbps,
            cluster.gpus_per_server,
        ) == (12, 4, 25.0, 1)


class TestThroughput:
    @pytest.fixture(scope="class")
    def emulator(self):
        return TestbedEmulator()

    def test_switch100_beats_switch25(self, emulator):
        for model in ("VGG16", "BERT"):
            fast = emulator.throughput_samples_per_s(model, "Switch 100Gbps")
            slow = emulator.throughput_samples_per_s(model, "Switch 25Gbps")
            assert fast > slow

    def test_topoopt_close_to_switch100(self, emulator):
        # Figure 19: TopoOpt 4x25 ~ Switch 100Gbps for every model.
        for model in ("VGG16", "CANDLE", "ResNet50"):
            topo = emulator.throughput_samples_per_s(
                model, "TopoOpt 4x25Gbps"
            )
            fast = emulator.throughput_samples_per_s(model, "Switch 100Gbps")
            assert topo > 0.6 * fast, model

    def test_topoopt_beats_switch25(self, emulator):
        for model in ("VGG16", "CANDLE", "DLRM"):
            topo = emulator.throughput_samples_per_s(
                model, "TopoOpt 4x25Gbps"
            )
            slow = emulator.throughput_samples_per_s(model, "Switch 25Gbps")
            assert topo > slow, model

    def test_unknown_fabric_rejected(self, emulator):
        with pytest.raises(ValueError):
            emulator.iteration("VGG16", "Token Ring")

    def test_throughput_table_structure(self, emulator):
        table = emulator.throughput_table(["ResNet50"])
        assert set(table["ResNet50"]) == {
            "TopoOpt 4x25Gbps",
            "Switch 100Gbps",
            "Switch 25Gbps",
        }

    def test_alltoall_batch_sweep_monotone(self, emulator):
        # Figure 21: iteration time grows with batch size.
        times = [
            emulator.iteration("DLRM", "TopoOpt 4x25Gbps", bs).total_s
            for bs in (32, 128, 512)
        ]
        assert times[0] < times[1] < times[2]


class TestNccl:
    def _communicator(self, strides):
        group = AllReduceGroup(members=tuple(range(12)), total_bytes=1e9)
        result = topology_finder(12, 4, [group])
        laid = result.group_plans[0]
        return (
            NcclCommunicator(
                result.topology, list(range(12)), strides or laid.strides
            ),
            laid,
        )

    def test_channels_validate_against_topology(self):
        comm, laid = self._communicator(None)
        assert len(comm.channels) == len(laid.rings)

    def test_missing_ring_rejected(self):
        group = AllReduceGroup(members=tuple(range(12)), total_bytes=1e9)
        result = topology_finder(12, 2, [group])
        laid_strides = result.group_plans[0].strides
        bad = next(
            s
            for s in (1, 5, 7, 11)
            if s not in laid_strides
        )
        with pytest.raises(ValueError):
            NcclCommunicator(result.topology, list(range(12)), [bad])

    def test_payload_split_even(self):
        comm, _ = self._communicator(None)
        payloads = comm.channel_payloads(1e9)
        values = list(payloads.values())
        assert sum(values) == pytest.approx(1e9)
        assert max(values) == pytest.approx(min(values))

    def test_multi_ring_speedup(self):
        comm, _ = self._communicator(None)
        multi = comm.allreduce_time_s(1e9, 25e9)
        single_comm = NcclCommunicator(
            comm.topology, list(comm.group), [comm.channels[0].stride]
        )
        single = single_comm.allreduce_time_s(1e9, 25e9)
        assert single / multi == pytest.approx(
            comm.speedup_over_single_ring(), rel=1e-6
        )


class TestTimeToAccuracy:
    def test_faster_fabric_reaches_target_sooner(self):
        # Figure 20: TopoOpt reaches 90% ~2x faster than Switch 25Gbps.
        fast = TimeToAccuracyModel(samples_per_second=1000.0)
        slow = TimeToAccuracyModel(samples_per_second=500.0)
        assert fast.time_to_accuracy_s(0.9) == pytest.approx(
            slow.time_to_accuracy_s(0.9) / 2
        )

    def test_accuracy_saturates(self):
        model = TimeToAccuracyModel(samples_per_second=1000.0)
        assert model.accuracy_at_epoch(1000.0) == pytest.approx(
            model.max_accuracy, rel=1e-6
        )

    def test_accuracy_monotone(self):
        model = TimeToAccuracyModel(samples_per_second=1000.0)
        curve = model.curve(hours=24, points=20)
        accs = [a for _, a in curve]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_unreachable_target_rejected(self):
        model = TimeToAccuracyModel(samples_per_second=1000.0)
        with pytest.raises(ValueError):
            model.time_to_accuracy_s(0.99)

    def test_round_trip(self):
        model = TimeToAccuracyModel(samples_per_second=1234.0)
        t = model.time_to_accuracy_s(0.9)
        assert model.accuracy_at_time(t) == pytest.approx(0.9)
