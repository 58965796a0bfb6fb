"""Unit tests for the flow primitives."""

import numpy as np
import pytest

from repro.oracles import LinkState
from repro.sim.flows import Flow, flows_from_matrix


class TestFlow:
    def test_links_from_path(self):
        f = Flow(path=(0, 3, 7), size_bits=8.0)
        assert f.links == [(0, 3), (3, 7)]
        assert f.hop_count == 2

    def test_propagation_delay(self):
        f = Flow(path=(0, 1, 2, 3), size_bits=8.0)
        assert f.propagation_delay_s == pytest.approx(3e-6)

    def test_endpoints(self):
        f = Flow(path=(4, 5), size_bits=8.0)
        assert f.src == 4 and f.dst == 5

    def test_remaining_initialized(self):
        f = Flow(path=(0, 1), size_bits=100.0)
        assert f.remaining_bits == 100.0

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            Flow(path=(0,), size_bits=8.0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Flow(path=(0, 1), size_bits=0.0)

    def test_unique_ids(self):
        a = Flow(path=(0, 1), size_bits=1.0)
        b = Flow(path=(0, 1), size_bits=1.0)
        assert a.flow_id != b.flow_id
        assert a != b


class TestLinkState:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            LinkState(capacity_bps=0.0)


class TestFlowsFromMatrix:
    def test_one_flow_per_positive_entry(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = 10.0
        matrix[2, 0] = 20.0
        flows = flows_from_matrix(matrix, lambda s, d: [[s, d]])
        assert len(flows) == 2
        sizes = sorted(f.size_bits for f in flows)
        assert sizes == [80.0, 160.0]

    def test_split_across_paths(self):
        matrix = np.zeros((2, 2))
        matrix[0, 1] = 10.0
        flows = flows_from_matrix(
            matrix, lambda s, d: [[0, 1], [0, 1]]
        )
        assert len(flows) == 2
        assert all(f.size_bits == pytest.approx(40.0) for f in flows)

    def test_missing_path_raises(self):
        matrix = np.zeros((2, 2))
        matrix[0, 1] = 10.0
        with pytest.raises(ValueError):
            flows_from_matrix(matrix, lambda s, d: [])
