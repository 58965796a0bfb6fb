"""Tests for shard link-failure handling (section 7)."""

import numpy as np
import pytest

from repro.core.topology_finder import AllReduceGroup
from repro.sim.failures import FailureManager, LinkFailureError
from repro.core.topology_finder import topology_finder


class TestFailureManager:
    def make_result(self, n=12, d=4):
        mp = np.zeros((n, n))
        mp[0, 5] = mp[5, 0] = 1e8
        group = AllReduceGroup(members=tuple(range(n)), total_bytes=1e9)
        return topology_finder(n, d, [group], mp)

    def test_single_failure_recoverable(self):
        manager = FailureManager(self.make_result())
        action = manager.fail_link(0, 1)
        assert action.kind == "mp_detour"
        assert action.detour_path[0] == 0
        assert action.detour_path[-1] == 1
        assert action.extra_hops >= 1

    def test_routing_patched_after_failure(self):
        result = self.make_result()
        manager = FailureManager(result)
        manager.fail_link(0, 1)
        # No routed path crosses the dead link any more.
        for table in (
            result.routing.allreduce_paths,
            result.routing.mp_paths,
        ):
            for paths in table.values():
                for path in paths:
                    for a, b in zip(path, path[1:]):
                        assert (a, b) != (0, 1)

    def test_ring_remains_logically_complete(self):
        result = self.make_result()
        manager = FailureManager(result)
        manager.fail_link(0, 1)
        assert manager.ring_still_complete(tuple(range(12)))

    def test_slowdown_bounded_by_detour(self):
        result = self.make_result()
        manager = FailureManager(result)
        action = manager.fail_link(0, 1)
        slow = manager.slowdown_factor(tuple(range(12)))
        assert 1.0 <= slow <= action.extra_hops + 1

    def test_permanent_repair_restores_routing(self):
        result = self.make_result()
        manager = FailureManager(result)
        manager.fail_link(0, 1)
        manager.repair_permanently(0, 1)
        assert manager.slowdown_factor(tuple(range(12))) == 1.0

    def test_double_failure_rejected(self):
        manager = FailureManager(self.make_result())
        manager.fail_link(0, 1)
        with pytest.raises(ValueError):
            manager.fail_link(0, 1)

    def test_missing_link_rejected(self):
        manager = FailureManager(self.make_result())
        with pytest.raises(ValueError):
            manager.fail_link(0, 6) if not manager.result.topology.has_link(
                0, 6
            ) else manager.fail_link(99, 0)

    def test_repair_unfailed_rejected(self):
        manager = FailureManager(self.make_result())
        with pytest.raises(ValueError):
            manager.repair_permanently(0, 1)


class TestMultiFailureSequences:
    """Satellite: slowdown/repair behavior across failure *sequences*."""

    def make_manager(self, n=12, d=4):
        mp = np.zeros((n, n))
        mp[0, 5] = mp[5, 0] = 1e8
        group = AllReduceGroup(members=tuple(range(n)), total_bytes=1e9)
        return FailureManager(topology_finder(n, d, [group], mp))

    def test_slowdown_accumulates_and_unwinds(self):
        manager = self.make_manager()
        members = tuple(range(12))
        assert manager.slowdown_factor(members) == 1.0
        first = manager.fail_link(0, 1)
        after_one = manager.slowdown_factor(members)
        assert after_one >= 1.0 + 1e-9
        second_edge = next(
            edge for edge in manager.ring_edges()
            if edge != (0, 1) and edge not in manager.failed
        )
        manager.fail_link(*second_edge)
        after_two = manager.slowdown_factor(members)
        # A second cut can only hold or worsen the worst-edge stretch.
        assert after_two >= after_one - 1e-12
        # Repairs unwind in any order; full repair restores 1.0 exactly.
        manager.repair_permanently(*second_edge)
        assert manager.slowdown_factor(members) <= after_two + 1e-12
        manager.repair_permanently(0, 1)
        assert manager.slowdown_factor(members) == 1.0
        assert manager.failed == set()
        kinds = [action.kind for action in manager.repairs]
        assert kinds.count("mp_detour") == 2
        assert kinds.count("port_swap") == 2
        assert first.extra_hops >= 1

    def test_overall_slowdown_tracks_worst_group(self):
        manager = self.make_manager()
        assert manager.overall_slowdown() == 1.0
        manager.fail_link(0, 1)
        assert manager.overall_slowdown() == pytest.approx(
            manager.slowdown_factor(tuple(range(12)))
        )

    def test_detour_rides_previously_failed_links_never(self):
        # The second detour must avoid both dead links, so its path
        # crosses neither.
        manager = self.make_manager()
        manager.fail_link(0, 1)
        edge = next(
            e for e in manager.ring_edges()
            if e != (0, 1) and e not in manager.failed
        )
        action = manager.fail_link(*edge)
        hops = set(zip(action.detour_path, action.detour_path[1:]))
        assert (0, 1) not in hops and edge not in hops

    def test_disconnection_leaves_manager_consistent(self):
        # A 2-server shard has no detour for its only ring edge: the
        # cut must raise without half-applying, so the caller can
        # suspend the job against a consistent failure set.
        group = AllReduceGroup(members=(0, 1), total_bytes=1e9)
        manager = FailureManager(
            topology_finder(2, 4, [group], np.zeros((2, 2)))
        )
        with pytest.raises(LinkFailureError):
            manager.fail_link(0, 1)
        assert manager.failed == set()
        assert manager.repairs == []
        assert manager.slowdown_factor((0, 1)) == 1.0
        # The reverse direction still works (and still detours nothing:
        # it is also the only edge, so it too raises cleanly).
        with pytest.raises(LinkFailureError):
            manager.fail_link(1, 0)
        assert manager.failed == set()
