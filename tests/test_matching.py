"""Unit tests for the MP-sub-topology matching (Algorithm 1, step 3)."""

import numpy as np
import pytest

from repro.core.matching import (
    halve_discount,
    matching_edge_counts,
    max_weight_matching,
    mp_matchings,
)


def demand_for(pairs, n):
    matrix = np.zeros((n, n))
    for (i, j), value in pairs.items():
        matrix[i, j] = value
    return matrix


class TestMaxWeightMatching:
    def test_picks_heaviest_pair(self):
        demand = demand_for({(0, 1): 100.0, (2, 3): 1.0}, 4)
        matched = max_weight_matching(demand)
        assert (0, 1) in matched

    def test_matching_is_disjoint(self):
        demand = demand_for(
            {(0, 1): 10, (1, 2): 10, (2, 3): 10, (0, 3): 10}, 4
        )
        matched = max_weight_matching(demand)
        used = [node for pair in matched for node in pair]
        assert len(used) == len(set(used))

    def test_weight_beats_cardinality(self):
        # One heavy pair (0,1) vs two light pairs (0,2) + (1,3):
        # Blossom with maxcardinality=False takes the heavy edge.
        demand = demand_for({(0, 1): 100, (0, 2): 1, (1, 3): 1}, 4)
        matched = max_weight_matching(demand)
        assert matched == {(0, 1)}

    def test_zero_demand_empty(self):
        assert max_weight_matching(np.zeros((4, 4))) == set()

    def test_asymmetric_demand_symmetrized(self):
        demand = demand_for({(0, 1): 10, (1, 0): 90, (2, 3): 50}, 4)
        matched = max_weight_matching(demand)
        assert (0, 1) in matched  # combined weight 100 > 50

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.zeros((3, 4)))


class TestMpMatchings:
    def test_round_count(self):
        demand = demand_for({(0, 1): 10, (2, 3): 5}, 4)
        assert len(mp_matchings(demand, rounds=3)) == 3

    def test_zero_rounds(self):
        assert mp_matchings(np.ones((4, 4)), rounds=0) == []

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            mp_matchings(np.ones((2, 2)), rounds=-1)

    def test_halving_diversifies(self):
        # Round 1: {(0,1),(2,3)} weighs 210 > 120.  After halving (0,1)
        # to 100, round 2 flips to {(0,2),(1,3)} = 120 > 110.
        demand = demand_for(
            {(0, 1): 200, (0, 2): 60, (1, 3): 60, (2, 3): 10}, 4
        )
        rounds = mp_matchings(demand, rounds=2)
        assert (0, 1) in rounds[0]
        assert (0, 2) in rounds[1] and (1, 3) in rounds[1]

    def test_no_discount_repeats_heaviest(self):
        demand = demand_for(
            {(0, 1): 200, (0, 2): 60, (1, 3): 60, (2, 3): 10}, 4
        )
        rounds = mp_matchings(demand, rounds=2, discount=lambda v: v)
        assert (0, 1) in rounds[0] and (0, 1) in rounds[1]

    def test_original_demand_unchanged(self):
        demand = demand_for({(0, 1): 100}, 4)
        snapshot = demand.copy()
        mp_matchings(demand, rounds=3)
        assert np.array_equal(demand, snapshot)


class TestHelpers:
    def test_halve_discount(self):
        assert halve_discount(8.0) == 4.0

    def test_matching_edge_counts(self):
        rounds = [{(0, 1), (2, 3)}, {(0, 1)}, set()]
        counts = matching_edge_counts(rounds)
        assert counts == {(0, 1): 2, (2, 3): 1}


class TestKernelBackendOracle:
    """The scipy kernel against the retained Blossom oracle."""

    @staticmethod
    def total_weight(matched, demand):
        return sum(
            demand[i, j] + demand[j, i] for i, j in matched
        )

    @staticmethod
    def assert_valid(matched, demand):
        seen = set()
        for i, j in matched:
            assert i < j
            assert demand[i, j] + demand[j, i] > 0
            assert i not in seen and j not in seen
            seen.update((i, j))

    def test_random_graphs_match_oracle_weight(self):
        from repro.core.matching import max_weight_matching_reference

        rng = np.random.default_rng(29)
        for trial in range(60):
            n = int(rng.integers(2, 14))
            density = float(rng.uniform(0.1, 0.9))
            demand = rng.uniform(0.0, 100.0, size=(n, n))
            demand *= rng.random((n, n)) < density
            np.fill_diagonal(demand, 0.0)
            kernel = max_weight_matching(demand)
            oracle = max_weight_matching_reference(demand)
            self.assert_valid(kernel, demand)
            assert self.total_weight(kernel, demand) == pytest.approx(
                self.total_weight(oracle, demand), rel=1e-9, abs=1e-9
            )

    def test_odd_cycle_falls_back_to_blossom_exactly(self):
        # A 5-cycle is non-bipartite: the kernel must route it through
        # the Blossom fallback and still find the optimal matching
        # (the two heaviest non-adjacent edges).
        n = 5
        demand = np.zeros((n, n))
        weights = [10.0, 1.0, 9.0, 1.0, 8.0]
        for k in range(n):
            demand[k, (k + 1) % n] = weights[k]
        matched = max_weight_matching(demand)
        assert matched == {(0, 1), (2, 3)}

    def test_path_component_uses_hungarian(self):
        # Even structures (paths) are bipartite: alternating heavy
        # edges force the kernel to skip the single heaviest edge's
        # neighbors, a case greedy matching gets wrong.
        demand = demand_for(
            {(0, 1): 5.0, (1, 2): 8.0, (2, 3): 5.0}, 4
        )
        matched = max_weight_matching(demand)
        assert matched == {(0, 1), (2, 3)}

    def test_mp_matchings_backend_passthrough(self):
        """``mp_matchings`` agrees round for round with the oracle run
        through the same halving (the former ``"reference"`` backend's
        pass-through, spelled out)."""
        from repro.core.matching import max_weight_matching_reference

        demand = demand_for({(0, 1): 100.0, (2, 3): 40.0}, 4)
        work = demand.copy()
        reference = []
        for _ in range(3):
            matched = max_weight_matching_reference(work)
            reference.append(matched)
            for i, j in matched:
                work[i, j] /= 2.0
                work[j, i] /= 2.0
        assert mp_matchings(demand, rounds=3) == reference
