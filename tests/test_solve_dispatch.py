"""The flow event engine's solve-mode rule.

A phase starts with one full progressive-filling solve per event batch
and hands over to ``IncrementalFairShare`` only once completion batches
arrive one flow at a time; the oracle ``BatchFlowEventEngine`` never
hands over.
"""

import numpy as np
import pytest

from repro.oracles import BatchFlowEventEngine
from repro.perf.bench import alltoall_flows, ring_topology, staggered_phase_flows
from repro.sim import events
from repro.sim.events import HANDOVER_RUN, FlowEventEngine
from repro.sim.flows import Flow
from repro.sim.fluid import compile_phase

GBPS = 1e9


@pytest.fixture
def handovers(monkeypatch):
    """Every ``IncrementalFairShare`` the engine builds, in order."""
    built = []
    real = events.IncrementalFairShare

    def build(*args, **kwargs):
        solver = real(*args, **kwargs)
        built.append(solver)
        return solver

    monkeypatch.setattr(events, "IncrementalFairShare", build)
    return built


def ring_capacities(topo):
    return {(s, d): c * 100 * GBPS for s, d, c in topo.edges()}


def build_engine(capacities, flows, engine_class=FlowEventEngine):
    return engine_class(
        capacities,
        compile_phase(
            capacities,
            [flow.path for flow in flows],
            [flow.size_bits for flow in flows],
        ),
    )


def run_engine(capacities, flows, engine_class=FlowEventEngine):
    engine = build_engine(capacities, flows, engine_class)
    engine.run()
    return engine


def disjoint_flows(sizes_gbit):
    """One flow per size, each on its own 1 Gb/s link."""
    flows = [
        Flow(path=(2 * i, 2 * i + 1), size_bits=size * GBPS)
        for i, size in enumerate(sizes_gbit)
    ]
    capacities = {(2 * i, 2 * i + 1): GBPS for i in range(len(sizes_gbit))}
    return capacities, flows


class TestSymmetricPhase:
    @pytest.mark.parametrize("n", [8, 16])
    def test_alltoall_never_hands_over_and_equals_batch(self, n, handovers):
        topo = ring_topology(n, 4)
        capacities = ring_capacities(topo)
        incremental = run_engine(capacities, alltoall_flows(topo))
        assert handovers == []
        batch = run_engine(
            capacities, alltoall_flows(topo), BatchFlowEventEngine
        )
        assert (
            incremental.completion_times.tobytes()
            == batch.completion_times.tobytes()
        )
        assert incremental.now == batch.now


class TestStaggeredPhase:
    def test_hands_over_and_tracks_batch(self, handovers):
        topo = ring_topology(16, 4)
        capacities = ring_capacities(topo)
        incremental = run_engine(capacities, staggered_phase_flows(topo))
        assert len(handovers) == 1
        batch = run_engine(
            capacities, staggered_phase_flows(topo), BatchFlowEventEngine
        )
        assert len(handovers) == 1  # batch never hands over
        np.testing.assert_allclose(
            incremental.completion_times, batch.completion_times, rtol=1e-9
        )
        assert np.array_equal(
            np.argsort(incremental.completion_times, kind="stable"),
            np.argsort(batch.completion_times, kind="stable"),
        )


class TestHandOverTrigger:
    def test_after_consecutive_single_completions(self, handovers):
        # Completions: {0}, {1, 2}, {3}, {4}, {5} -- the pair resets
        # the run, so the hand-over waits for {3} and {4}.
        capacities, flows = disjoint_flows([1, 2, 2, 3, 4, 5])
        engine = build_engine(capacities, flows)
        finished = []
        counts = []
        while True:
            step = engine.step()
            if step is None:
                break
            finished.append(step[1].tolist())
            counts.append(len(handovers))
        assert finished == [[0], [1, 2], [3], [4], [5]]
        assert HANDOVER_RUN == 2
        assert counts == [0, 0, 0, 1, 1]
        np.testing.assert_array_equal(
            engine.completion_times, [1.0, 2.0, 2.0, 3.0, 4.0, 5.0]
        )

    def test_last_completion_does_not_hand_over(self, handovers):
        capacities, flows = disjoint_flows([1, 2])
        run_engine(capacities, flows)
        assert handovers == []
