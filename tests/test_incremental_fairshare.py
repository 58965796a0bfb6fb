"""Equivalence tests: incremental max-min solver vs. the batch solver.

The incremental frontier solver (``repro.perf.fairshare.
IncrementalFairShare``) must reproduce the PR-1 batch solver exactly --
identical rates after arbitrary add/remove sequences, and identical
makespans and completion orders on randomized staggered phases where
every flow finishes at a distinct time, including mid-phase flow
arrival and cancellation.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.oracles import BatchFlowEventEngine
from repro.perf.bench import ring_topology, staggered_phase_flows
from repro.perf.fairshare import (
    IncrementalFairShare,
    build_incidence_from_paths,
    progressive_filling_rates,
)
from repro.sim.events import FlowEventEngine
from repro.sim.flows import Flow
from repro.sim.fluid import simulate_phase

GBPS = 1e9


def random_incidence(rng, max_links=30, max_flows=60):
    """Random 0/1 incidence with every flow crossing at least one link."""
    num_links = int(rng.integers(4, max_links))
    num_flows = int(rng.integers(5, max_flows))
    dense = (
        rng.random((num_links, num_flows)) < rng.uniform(0.1, 0.5)
    ).astype(float)
    for flow in range(num_flows):
        if dense[:, flow].sum() == 0:
            dense[int(rng.integers(0, num_links)), flow] = 1.0
    capacities = rng.uniform(0.5, 10.0, num_links)
    return sparse.csr_matrix(dense), capacities


def staggered_flows(topo, rng):
    """Single-path flows with jittered sizes (all-distinct completions)."""
    flows = []
    for src in range(topo.n):
        for dst, paths in topo.min_hop_paths_from(src, 1).items():
            flows.append(Flow(
                path=tuple(paths[0]),
                size_bits=1e9 * float(rng.uniform(0.5, 1.5)),
            ))
    return flows


class TestIncrementalSolverEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_add_remove_sequences_match_batch(self, seed):
        rng = np.random.default_rng(seed)
        incidence, capacities = random_incidence(rng)
        num_flows = incidence.shape[1]
        solver = IncrementalFairShare(capacities, incidence)
        active = np.ones(num_flows, dtype=bool)
        for _ in range(80):
            act = np.flatnonzero(active)
            inact = np.flatnonzero(~active)
            remove = (rng.random() < 0.6 and act.size) or inact.size == 0
            if remove:
                if act.size == 0:
                    break
                pick = rng.choice(
                    act, size=int(rng.integers(1, min(4, act.size) + 1)),
                    replace=False,
                )
                solver.remove_flows(pick)
                active[pick] = False
            else:
                pick = rng.choice(
                    inact, size=int(rng.integers(1, min(4, inact.size) + 1)),
                    replace=False,
                )
                solver.add_flows(pick)
                active[pick] = True
            reference = progressive_filling_rates(
                capacities, incidence, active
            )
            np.testing.assert_allclose(
                solver.rates, reference, rtol=1e-9, atol=1e-9
            )

    def test_initial_solution_matches_batch(self):
        rng = np.random.default_rng(123)
        incidence, capacities = random_incidence(rng)
        solver = IncrementalFairShare(capacities, incidence)
        reference = progressive_filling_rates(capacities, incidence)
        np.testing.assert_allclose(solver.rates, reference, rtol=1e-12)

    def test_remove_can_lower_other_rates(self):
        # The doctest scenario: freeing flow 0 lets flow 1 rise, which
        # squeezes flow 2 on the downstream link.
        incidence = sparse.csr_matrix(
            np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        )
        solver = IncrementalFairShare(np.array([4.0, 10.0]), incidence)
        np.testing.assert_allclose(solver.rates, [2.0, 2.0, 8.0])
        solver.remove_flows([0])
        np.testing.assert_allclose(solver.rates, [0.0, 4.0, 6.0])

    def test_duplicate_and_noop_deltas_ignored(self):
        incidence = sparse.csr_matrix(np.ones((1, 3)))
        solver = IncrementalFairShare(np.array([3.0]), incidence)
        solver.remove_flows([1, 1])
        solver.remove_flows([1])
        np.testing.assert_allclose(solver.rates, [1.5, 0.0, 1.5])
        solver.add_flows([1, 1])
        np.testing.assert_allclose(solver.rates, [1.0, 1.0, 1.0])

    def test_recompute_matches_incremental_state(self):
        rng = np.random.default_rng(7)
        incidence, capacities = random_incidence(rng)
        solver = IncrementalFairShare(capacities, incidence)
        solver.remove_flows([0, 2])
        before = solver.rates
        solver.recompute()
        np.testing.assert_allclose(solver.rates, before, rtol=1e-9)

    def test_aggregate_sync_does_not_drift(self):
        # Hammer a tiny network for far more events than SYNC_INTERVAL.
        incidence = sparse.csr_matrix(np.ones((2, 4)))
        capacities = np.array([4.0, 2.0])
        solver = IncrementalFairShare(capacities, incidence)
        rng = np.random.default_rng(11)
        active = np.ones(4, dtype=bool)
        for _ in range(3 * IncrementalFairShare.SYNC_INTERVAL):
            flow = int(rng.integers(0, 4))
            if active[flow]:
                solver.remove_flows([flow])
            else:
                solver.add_flows([flow])
            active[flow] = ~active[flow]
            reference = progressive_filling_rates(
                capacities, incidence, active
            )
            np.testing.assert_allclose(
                solver.rates, reference, rtol=1e-9, atol=1e-12
            )


class TestStaggeredPhaseEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_makespan_and_completion_order_match(self, seed):
        rng = np.random.default_rng(seed)
        topo = ring_topology(16, 4)
        capacities = {
            (s, d): c * 100 * GBPS for s, d, c in topo.edges()
        }
        flows = staggered_flows(topo, rng)
        batch = BatchFlowEventEngine(capacities, flows)
        batch.run()
        flows2 = staggered_flows(topo, np.random.default_rng(seed))
        incremental = FlowEventEngine(capacities, flows2)
        incremental.run()
        np.testing.assert_allclose(
            incremental.completion_times,
            batch.completion_times,
            rtol=1e-9,
        )
        assert np.array_equal(
            np.argsort(incremental.completion_times, kind="stable"),
            np.argsort(batch.completion_times, kind="stable"),
        )

    def test_simulate_phase_solvers_agree(self):
        topo = ring_topology(16, 4)
        capacities = {
            (s, d): c * 100 * GBPS for s, d, c in topo.edges()
        }
        rng = np.random.default_rng(3)
        flows = staggered_flows(topo, rng)
        batch = BatchFlowEventEngine(capacities, flows).run()
        flows2 = staggered_flows(topo, np.random.default_rng(3))
        incremental = simulate_phase(capacities, flows2, False)
        assert incremental == pytest.approx(batch, rel=1e-9)

    def test_realistic_staggered_workload_agrees(self):
        topo = ring_topology(16, 4)
        capacities = {
            (s, d): c * 100 * GBPS for s, d, c in topo.edges()
        }
        flows = staggered_phase_flows(topo, chunks=4)
        batch = BatchFlowEventEngine(capacities, flows).run()
        flows2 = staggered_phase_flows(topo, chunks=4)
        incremental = simulate_phase(capacities, flows2, False)
        assert incremental == pytest.approx(batch, rel=1e-9)


class TestMidPhaseArrivalAndRemoval:
    @pytest.mark.parametrize("seed", range(4))
    def test_staggered_arrivals_match_batch(self, seed):
        rng = np.random.default_rng(100 + seed)
        topo = ring_topology(12, 4)
        capacities = {
            (s, d): c * 100 * GBPS for s, d, c in topo.edges()
        }
        flows = staggered_flows(topo, rng)
        starts = rng.uniform(0.0, 0.05, len(flows))
        batch = BatchFlowEventEngine(capacities, flows, start_times=starts)
        batch.run()
        flows2 = staggered_flows(topo, np.random.default_rng(100 + seed))
        incremental = FlowEventEngine(
            capacities, flows2, start_times=starts.copy()
        )
        incremental.run()
        np.testing.assert_allclose(
            incremental.completion_times,
            batch.completion_times,
            rtol=1e-9,
        )

    def test_mid_phase_cancellation_matches_batch(self):
        rng = np.random.default_rng(42)
        topo = ring_topology(12, 4)
        capacities = {
            (s, d): c * 100 * GBPS for s, d, c in topo.edges()
        }

        def run(engine_class):
            flows = staggered_flows(topo, np.random.default_rng(42))
            engine = engine_class(capacities, flows)
            cancel = rng.integers(0, len(flows), size=5)
            steps = 0
            while engine.step() is not None:
                steps += 1
                if steps == 3:
                    engine.cancel_flows(cancel)
            return engine

        rng = np.random.default_rng(7)
        batch = run(BatchFlowEventEngine)
        rng = np.random.default_rng(7)
        incremental = run(FlowEventEngine)
        np.testing.assert_allclose(
            incremental.completion_times,
            batch.completion_times,
            rtol=1e-9,
            equal_nan=True,
        )
        # Cancelled flows never record a completion time.
        assert np.isnan(incremental.completion_times).sum() > 0

    def test_cancel_before_arrival_drops_flow(self):
        flows = [
            Flow(path=(0, 1), size_bits=1e9),
            Flow(path=(0, 1), size_bits=1e9),
        ]
        engine = FlowEventEngine(
            {(0, 1): GBPS}, flows, start_times=[0.0, 10.0]
        )
        engine.cancel_flows([1])
        engine.run()
        assert engine.pending_count() == 0
        assert np.isnan(engine.completion_times[1])
        assert engine.completion_times[0] == pytest.approx(1.0)

    def test_clock_never_rewinds_on_quantum_window_arrival(self):
        # Two completions merge into one batch that advances the clock
        # to the later of the pair; an arrival landing between the two
        # must not move the clock backward.
        quantum = 1e-9
        flows = [
            Flow(path=(0, 1), size_bits=1e9),                  # done at 1.0
            Flow(path=(2, 3), size_bits=1e9 + 0.9 * quantum * 1e9),
            Flow(path=(4, 5), size_bits=1e9),
        ]
        starts = [0.0, 0.0, 1.0 + 0.5 * quantum]
        engine = FlowEventEngine(
            {(0, 1): 1e9, (2, 3): 1e9, (4, 5): 1e9},
            flows, start_times=starts,
        )
        times = []
        while True:
            step = engine.step()
            if step is None:
                break
            times.append(step[0])
        assert times == sorted(times)
        assert np.all(np.diff(engine.completion_times[np.argsort(
            engine.completion_times)]) >= 0)


class TestConstructionValidation:
    def test_zero_link_flow_rejected(self):
        incidence = sparse.csr_matrix(
            np.array([[1.0, 1.0, 0.0]])  # flow 2 crosses no link
        )
        with pytest.raises(ValueError, match="at least one link"):
            IncrementalFairShare(np.array([4.0]), incidence)
