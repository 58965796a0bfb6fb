"""Equivalence tests: incremental max-min solver vs. the batch solver.

The incremental frontier solver (``repro.perf.fairshare.
IncrementalFairShare``) must reproduce the batch solver exactly --
identical rates after arbitrary removal sequences from any starting
active mask, and identical makespans and completion orders on
randomized staggered phases where every flow finishes at a distinct
time.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.oracles import BatchFlowEventEngine
from repro.perf.bench import ring_topology, staggered_phase_flows
from repro.perf.fairshare import (
    IncrementalFairShare,
    progressive_filling_rates,
)
from repro.sim.events import FlowEventEngine
from repro.sim.flows import Flow
from repro.sim.fluid import compile_phase, simulate_phase

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


def compiled(capacities, flows):
    """``flows`` as one phase's compiled flow set."""
    return compile_phase(
        capacities,
        [flow.path for flow in flows],
        [flow.size_bits for flow in flows],
    )


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
    def test_random_removal_sequences_match_batch(self, seed):
        # The engine hands over with some flows already finished, so
        # the solver starts from a random active mask.
        rng = np.random.default_rng(seed)
        incidence, capacities = random_incidence(rng)
        num_flows = incidence.shape[1]
        active = rng.random(num_flows) < 0.8
        solver = IncrementalFairShare(capacities, incidence, active=active)
        while True:
            reference = progressive_filling_rates(
                capacities, incidence, active
            )
            np.testing.assert_allclose(
                solver.rates, reference, rtol=1e-9, atol=1e-9
            )
            act = np.flatnonzero(active)
            if act.size == 0:
                break
            pick = rng.choice(
                act, size=int(rng.integers(1, min(4, act.size) + 1)),
                replace=False,
            )
            solver.remove_flows(pick)
            active[pick] = False

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

    def test_recompute_matches_incremental_state(self):
        rng = np.random.default_rng(7)
        incidence, capacities = random_incidence(rng)
        solver = IncrementalFairShare(capacities, incidence)
        solver.remove_flows([0, 2])
        before = solver.rates
        solver.recompute()
        np.testing.assert_allclose(solver.rates, before, rtol=1e-9)

    def test_aggregate_sync_does_not_drift(self):
        # Far more removal events than SYNC_INTERVAL on a tiny network.
        rng = np.random.default_rng(11)
        num_flows = 3 * IncrementalFairShare.SYNC_INTERVAL + 8
        dense = (rng.random((3, num_flows)) < 0.6).astype(float)
        dense[0, dense.sum(axis=0) == 0] = 1.0
        incidence = sparse.csr_matrix(dense)
        capacities = np.array([4.0, 2.0, 3.0])
        solver = IncrementalFairShare(capacities, incidence)
        active = np.ones(num_flows, dtype=bool)
        for flow in rng.permutation(num_flows):
            solver.remove_flows([flow])
            active[flow] = False
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
        batch = BatchFlowEventEngine(
            capacities, compiled(capacities, flows)
        )
        batch.run()
        flows2 = staggered_flows(topo, np.random.default_rng(seed))
        incremental = FlowEventEngine(
            capacities, compiled(capacities, flows2)
        )
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
        batch = BatchFlowEventEngine(
            capacities, compiled(capacities, flows)
        ).run()
        flows2 = staggered_flows(topo, np.random.default_rng(3))
        incremental = simulate_phase(capacities, flows2, False)
        assert incremental == pytest.approx(batch, rel=1e-9)

    def test_realistic_staggered_workload_agrees(self):
        topo = ring_topology(16, 4)
        capacities = {
            (s, d): c * 100 * GBPS for s, d, c in topo.edges()
        }
        flows = staggered_phase_flows(topo, chunks=4)
        batch = BatchFlowEventEngine(
            capacities, compiled(capacities, flows)
        ).run()
        flows2 = staggered_phase_flows(topo, chunks=4)
        incremental = simulate_phase(capacities, flows2, False)
        assert incremental == pytest.approx(batch, rel=1e-9)


class TestConstructionValidation:
    def test_zero_link_flow_rejected(self):
        incidence = sparse.csr_matrix(
            np.array([[1.0, 1.0, 0.0]])  # flow 2 crosses no link
        )
        with pytest.raises(ValueError, match="at least one link"):
            IncrementalFairShare(np.array([4.0]), incidence)
