"""Unit tests for the scheduler control plane's building blocks.

The policy-level behavior is covered by the property harness
(``test_scheduler_invariants.py``), the backfill oracles
(``test_backfill.py``) and the golden snapshots; this file pins the
layer underneath: the strict block-tracking allocator (the ISSUE 7
fix -- ``free`` used to silently accept servers it never allocated),
the availability profile's window arithmetic, the look-ahead
``ShardManager`` credit model, the new spec knobs, and the
preemption/elastic lifecycle accounting on small deterministic
scenarios.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import SpecError
from repro.cluster import ScenarioSpec, run_scenario
from repro.cluster.scheduler import (
    AvailabilityProfile,
    ShardAllocator,
    ShardManager,
)
from repro.cluster.spec import SchedulerSpec


def allocator(servers=16, policy="first-fit", seed=0):
    return ShardAllocator(servers, policy, random.Random(seed))


class TestStrictFree:
    """``free`` only accepts blocks it handed out (the ISSUE 7 fix)."""

    def test_round_trip(self):
        alloc = allocator()
        block = alloc.allocate(8)
        alloc.free(block)
        assert alloc.free_count == 16
        assert alloc.allocate(16) == tuple(range(16))

    def test_never_allocated_block_raises(self):
        alloc = allocator()
        alloc.allocate(4)  # block [0, 4)
        alloc.allocate(4)  # block [4, 8)
        with pytest.raises(ValueError, match="never allocated"):
            alloc.free((2, 3, 4, 5))  # busy, but spans two blocks

    def test_out_of_range_server_raises(self):
        alloc = allocator()
        alloc.allocate(16)
        with pytest.raises(ValueError, match="outside this cluster"):
            alloc.free((14, 15, 16))  # 16 would hit the mask sentinel
        with pytest.raises(ValueError, match="outside this cluster"):
            alloc.free((-1, 0))

    def test_double_free_raises(self):
        alloc = allocator()
        block = alloc.allocate(4)
        alloc.free(block)
        with pytest.raises(ValueError, match="already free"):
            alloc.free(block)

    def test_partial_block_raises(self):
        alloc = allocator()
        block = alloc.allocate(8)
        with pytest.raises(ValueError, match="never allocated"):
            alloc.free(block[:4])

    def test_empty_free_raises(self):
        with pytest.raises(ValueError, match="empty"):
            allocator().free(())

    def test_rejected_free_leaves_pool_intact(self):
        alloc = allocator()
        alloc.allocate(8)
        with pytest.raises(ValueError):
            alloc.free((8, 9))
        assert alloc.free_count == 8
        assert alloc.busy_count == 8

    def test_allocate_block_exact_and_busy(self):
        alloc = allocator()
        assert alloc.allocate_block(4, 4) == (4, 5, 6, 7)
        with pytest.raises(ValueError, match="not entirely free"):
            alloc.allocate_block(6, 4)
        with pytest.raises(ValueError, match="outside"):
            alloc.allocate_block(14, 4)
        alloc.free((4, 5, 6, 7))
        assert alloc.free_count == 16

    def test_largest_hole_tracks_fragmentation(self):
        alloc = allocator()
        first = alloc.allocate(4)
        alloc.allocate(4)
        alloc.free(first)  # free [0,4), busy [4,8), free [8,16)
        assert alloc.largest_hole() == 8
        assert list(alloc.free_mask()[:9]) == (
            [True] * 4 + [False] * 4 + [True]
        )


def scanned_holes(num_servers, free):
    """Maximal runs of ``free`` server ids, by a plain Python scan."""
    holes, start = [], None
    for server in range(num_servers + 1):
        if server < num_servers and server in free:
            if start is None:
                start = server
        elif start is not None:
            holes.append((start, server - start))
            start = None
    return holes


#: One allocator step: (operation, a draw that picks its argument).
allocator_steps = st.lists(
    st.tuples(
        st.sampled_from(("allocate", "carve", "free", "fail", "repair")),
        st.integers(min_value=0, max_value=2 ** 16),
    ),
    max_size=60,
)


class TestHoleCacheProperty:
    """``holes()`` caches its scan until the next mask write; every
    write must invalidate it, or a stale scan leaks into allocation."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(min_value=1, max_value=24),
        st.sampled_from(("first-fit", "best-fit", "random")),
        allocator_steps,
    )
    def test_holes_match_a_python_scan(self, servers, policy, steps):
        alloc = allocator(servers, policy)
        free = set(range(servers))
        failed = set()
        blocks = []
        for op, draw in steps:
            if op == "allocate":
                block = alloc.allocate(1 + draw % servers)
                if block is not None:
                    blocks.append(block)
                    free -= set(block)
            elif op == "carve":
                start, count = draw % servers, 1 + draw // servers % 4
                block = tuple(range(start, start + count))
                if set(block) <= free:
                    assert alloc.allocate_block(start, count) == block
                    blocks.append(block)
                    free -= set(block)
            elif op == "free" and blocks:
                block = blocks.pop(draw % len(blocks))
                alloc.free(block)
                free |= set(block)
            elif op == "fail" and free:
                server = sorted(free)[draw % len(free)]
                alloc.fail_server(server)
                free.discard(server)
                failed.add(server)
            elif op == "repair" and failed:
                server = sorted(failed)[draw % len(failed)]
                alloc.repair_server(server)
                failed.discard(server)
                free.add(server)
            expected = scanned_holes(servers, free)
            assert alloc.holes() == expected
            largest = max((length for _, length in expected), default=0)
            assert alloc.largest_hole() == largest
            assert alloc.fragmentation() == (
                1.0 - largest / len(free) if free else 0.0
            )


class TestAvailabilityProfile:
    def test_immediate_fit(self):
        mask = np.ones(8, dtype=bool)
        profile = AvailabilityProfile(0.0, mask)
        assert profile.earliest_block(4, 10.0) == (0.0, 0)

    def test_waits_for_release(self):
        mask = np.zeros(8, dtype=bool)
        mask[6:] = True
        profile = AvailabilityProfile(
            0.0, mask, releases=[(5.0, range(0, 6))]
        )
        # 2 servers fit now; 4 only after the release at t=5.
        assert profile.earliest_block(2, 1.0) == (0.0, 6)
        assert profile.earliest_block(4, 1.0) == (5.0, 0)

    def test_hold_blocks_window(self):
        mask = np.ones(8, dtype=bool)
        profile = AvailabilityProfile(0.0, mask)
        profile.add_hold(0.0, 10.0, 0, 8)
        assert profile.earliest_block(4, 1.0) == (10.0, 0)

    def test_hold_forces_duration_past_boundary(self):
        mask = np.ones(8, dtype=bool)
        profile = AvailabilityProfile(0.0, mask)
        # Held from t=5: a 10s window starting now would overlap it.
        profile.add_hold(5.0, 20.0, 0, 8)
        assert profile.earliest_block(8, 4.0) == (0.0, 0)
        assert profile.earliest_block(8, 10.0) == (20.0, 0)

    def test_best_fit_choice(self):
        mask = np.ones(12, dtype=bool)
        mask[3] = False  # holes: [0,3) and [4,12)
        profile = AvailabilityProfile(0.0, mask)
        assert profile.earliest_block(2, 1.0, policy="best-fit") == (
            0.0, 0
        )
        assert profile.earliest_block(2, 1.0) == (0.0, 0)
        assert profile.earliest_block(4, 1.0, policy="best-fit") == (
            0.0, 4
        )

    def test_oversized_request_returns_none(self):
        profile = AvailabilityProfile(0.0, np.ones(4, dtype=bool))
        assert profile.earliest_block(5, 1.0) is None


class TestShardManager:
    def test_flat_mode_always_charges_full_latency(self):
        manager = ShardManager(
            SchedulerSpec(admission_latency_s=2.0, provisioning="flat")
        )
        manager.note_head(0, 10.0)
        assert manager.admission_latency(0, 15.0) == 2.0

    def test_lookahead_credits_time_at_head(self):
        manager = ShardManager(
            SchedulerSpec(
                admission_latency_s=2.0, provisioning="lookahead"
            )
        )
        manager.note_head(0, 10.0)
        assert manager.admission_latency(0, 10.5) == 1.5
        # Fully provisioned once the wait exceeds the latency.
        assert manager.admission_latency(0, 13.0) == 0.0

    def test_lookahead_never_head_pays_full(self):
        manager = ShardManager(
            SchedulerSpec(
                admission_latency_s=2.0, provisioning="lookahead"
            )
        )
        assert manager.admission_latency(7, 10.0) == 2.0

    def test_forget_resets_credit(self):
        manager = ShardManager(
            SchedulerSpec(
                admission_latency_s=2.0, provisioning="lookahead"
            )
        )
        manager.note_head(0, 10.0)
        manager.forget(0)
        assert manager.admission_latency(0, 20.0) == 2.0


class TestSpecValidation:
    def test_unknown_queue_rejected(self):
        with pytest.raises(SpecError, match="queue"):
            SchedulerSpec(queue="sjf")

    def test_unknown_preemption_rejected(self):
        with pytest.raises(SpecError, match="preemption"):
            SchedulerSpec(preemption="always")

    def test_negative_costs_rejected(self):
        for knob in (
            "admission_latency_s", "checkpoint_s", "restart_s",
            "resize_latency_s",
        ):
            with pytest.raises(SpecError, match=knob):
                SchedulerSpec(**{knob: -1.0})

    def test_elastic_range_validation(self):
        spec = ScenarioSpec.preset("shared")
        with pytest.raises(SpecError, match="min_servers"):
            spec.with_overrides({"jobs.0.min_servers": 1})
        with pytest.raises(SpecError, match="max_servers"):
            spec.with_overrides({"jobs.0.max_servers": 4})  # < servers=8
        with pytest.raises(SpecError, match="max_servers"):
            spec.with_overrides({"jobs.0.max_servers": 64})  # > cluster

    def test_scheduler_knobs_round_trip(self):
        spec = ScenarioSpec.preset("shared").with_overrides({
            "queue": "easy",
            "preemption": "priority",
            "checkpoint_s": 0.5,
            "restart_s": 0.25,
            "elastic": True,
            "resize_latency_s": 0.1,
            "provisioning": "lookahead",
            "jobs.0.priority": 3,
            "jobs.0.min_servers": 4,
            "jobs.0.max_servers": 16,
        })
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.scheduler.queue == "easy"
        assert again.jobs[0].elastic_range() == (4, 16)


def contended_spec(**overrides):
    base = ScenarioSpec.preset("shared").with_overrides({
        "jobs.0.iterations": 40, "jobs.0.servers": 24,
        "jobs.1.iterations": 4, "jobs.1.servers": 16,
        "arrivals.times": [0.0, 0.05],
        "count": 2,
    })
    return base.with_overrides(overrides)


class TestPreemptionLifecycle:
    def test_priority_preempts_and_conserves_work(self):
        result = run_scenario(contended_spec(**{
            "preemption": "priority",
            "checkpoint_s": 0.2, "restart_s": 0.3,
            "jobs.0.priority": 0, "jobs.1.priority": 5,
        }))
        events = [e["event"] for e in result.scheduler_log]
        assert "preempt" in events
        victim = next(j for j in result.jobs if j.index == 0)
        winner = next(j for j in result.jobs if j.index == 1)
        assert victim.preemptions == 1
        assert victim.preempted_wait_s > 0
        assert victim.iterations_completed == 40  # conserved
        assert winner.preemptions == 0
        # The high-priority job did not wait for the victim to finish.
        assert winner.admitted_s < victim.completed_s

    def test_no_preemption_of_equal_priority(self):
        result = run_scenario(contended_spec(**{
            "preemption": "priority",
            "jobs.0.priority": 5, "jobs.1.priority": 5,
        }))
        assert all(
            e["event"] != "preempt" for e in result.scheduler_log
        )

    def test_preemption_cost_charged(self):
        cheap = run_scenario(contended_spec(**{
            "preemption": "priority",
            "jobs.0.priority": 0, "jobs.1.priority": 5,
        }))
        costly = run_scenario(contended_spec(**{
            "preemption": "priority",
            "checkpoint_s": 1.0, "restart_s": 1.0,
            "jobs.0.priority": 0, "jobs.1.priority": 5,
        }))
        victim_cheap = next(j for j in cheap.jobs if j.index == 0)
        victim_costly = next(j for j in costly.jobs if j.index == 0)
        assert victim_costly.completed_s > victim_cheap.completed_s


class TestElasticLifecycle:
    def test_shrink_then_grow(self):
        result = run_scenario(ScenarioSpec.preset("shared").with_overrides({
            "jobs.0.iterations": 6, "jobs.0.servers": 16,
            "jobs.1.iterations": 6, "jobs.1.servers": 24,
            "jobs.1.min_servers": 8, "jobs.1.max_servers": 24,
            "arrivals.times": [0.0, 0.05],
            "count": 2,
            "elastic": True, "resize_latency_s": 0.01,
        }))
        flexible = next(j for j in result.jobs if j.index == 1)
        admits = [
            e for e in result.scheduler_log
            if e["event"] == "admit" and e["job_index"] == 1
        ]
        # Admitted shrunk (16 of 24 preferred), grew once vacated.
        assert len(admits[0]["servers"]) == 16
        assert flexible.resizes == 1
        assert flexible.num_servers == 24
        assert flexible.iterations_completed == 6  # conserved

    def test_inelastic_without_range_never_resizes(self):
        result = run_scenario(contended_spec(elastic=True))
        assert all(
            e["event"] != "resize" for e in result.scheduler_log
        )
        assert all(j.resizes == 0 for j in result.jobs)
