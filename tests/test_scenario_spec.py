"""ScenarioSpec validation, serialization, overrides, and allocation."""

import json
import random

import pytest

from repro.api.spec import ClusterSpec, FabricSpec, SpecError
from repro.cluster import (
    ArrivalSpec,
    JobTemplateSpec,
    ScenarioSpec,
    SchedulerSpec,
    ShardAllocator,
)


class TestRoundTrip:
    def test_exact_round_trip(self):
        spec = ScenarioSpec.preset("shared")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_survives_json(self):
        spec = ScenarioSpec.preset("lifetime")
        reloaded = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert reloaded == spec

    def test_json_native_types(self):
        payload = json.dumps(ScenarioSpec.preset("shared").to_dict())
        assert isinstance(payload, str)

    def test_golden_spec_file_loads(self):
        with open("examples/specs/scenario_shared.json") as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
        assert spec == ScenarioSpec.preset("shared")


class TestValidation:
    def test_unknown_top_level_key(self):
        data = ScenarioSpec().to_dict()
        data["turbo"] = True
        with pytest.raises(SpecError, match="turbo"):
            ScenarioSpec.from_dict(data)

    def test_unknown_nested_key(self):
        data = ScenarioSpec().to_dict()
        data["scheduler"]["quantum"] = 5
        with pytest.raises(SpecError, match="quantum"):
            ScenarioSpec.from_dict(data)

    def test_unknown_policy(self):
        with pytest.raises(SpecError, match="worst-fit"):
            SchedulerSpec(policy="worst-fit")

    def test_unknown_process(self):
        with pytest.raises(SpecError, match="lognormal"):
            ArrivalSpec(process="lognormal")

    def test_unknown_strategy(self):
        with pytest.raises(SpecError, match="greedy"):
            JobTemplateSpec(strategy="greedy")

    def test_unknown_model(self):
        with pytest.raises(SpecError, match="GPT9"):
            JobTemplateSpec(model="GPT9")

    def test_unknown_custom_model_rejected_at_construction(self):
        with pytest.raises(SpecError, match="NotAModel"):
            JobTemplateSpec(model="NotAModel", scale="custom")

    def test_unknown_fabric(self):
        with pytest.raises(SpecError, match="warpdrive"):
            ScenarioSpec(fabric=FabricSpec(kind="warpdrive"))

    def test_self_simulating_fabric_rejected(self):
        with pytest.raises(SpecError, match="simulates itself"):
            ScenarioSpec(fabric=FabricSpec(kind="sipml"))

    def test_hierarchical_rejected(self):
        with pytest.raises(SpecError, match="hierarchical"):
            ScenarioSpec(fabric=FabricSpec(kind="hierarchical"))

    def test_explicit_needs_times(self):
        with pytest.raises(SpecError, match="times"):
            ArrivalSpec(process="explicit")

    def test_template_larger_than_cluster(self):
        with pytest.raises(SpecError, match="cluster has only"):
            ScenarioSpec(
                cluster=ClusterSpec(servers=4),
                jobs=(JobTemplateSpec(servers=8),),
            )

    @pytest.mark.parametrize("path", ["solver", "optimizer.incremental"])
    def test_retired_solver_keys_rejected(self, path):
        # The seed references are test oracles (repro.oracles), not
        # spec knobs: spec JSON that still selects one fails loudly.
        data = ScenarioSpec.preset("shared").to_dict()
        if path == "solver":
            data["solver"] = "kernel"
        else:
            data["optimizer"]["incremental"] = True
        key = path.split(".")[-1]
        with pytest.raises(SpecError, match=f"unknown keys \\['{key}'\\]"):
            ScenarioSpec.from_dict(data)

    def test_unknown_preset(self):
        with pytest.raises(SpecError, match="unknown scenario preset"):
            ScenarioSpec.preset("imaginary")


class TestOverrides:
    def test_dotted_path(self):
        spec = ScenarioSpec.preset("shared").with_overrides(
            {"cluster.servers": 64, "scheduler.policy": "best-fit"}
        )
        assert spec.cluster.servers == 64
        assert spec.scheduler.policy == "best-fit"

    def test_shorthands(self):
        spec = ScenarioSpec.preset("shared").with_overrides(
            {"fabric": "fattree", "policy": "random", "count": 3}
        )
        assert spec.fabric.kind == "fattree"
        assert spec.scheduler.policy == "random"
        assert spec.arrivals.count == 3

    def test_list_index_path(self):
        spec = ScenarioSpec.preset("shared").with_overrides(
            {"jobs.1.model": "DLRM", "jobs.1.iterations": 9}
        )
        assert spec.jobs[1].model == "DLRM"
        assert spec.jobs[1].iterations == 9

    def test_list_index_out_of_range(self):
        with pytest.raises(SpecError, match="jobs.9.model"):
            ScenarioSpec.preset("shared").with_overrides(
                {"jobs.9.model": "DLRM"}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="no spec field"):
            ScenarioSpec.preset("shared").with_overrides(
                {"cluster.racks": 4}
            )

    def test_result_is_revalidated(self):
        with pytest.raises(SpecError):
            ScenarioSpec.preset("shared").with_overrides(
                {"scheduler.policy": "worst-fit"}
            )


class TestShardAllocator:
    def _allocator(self, n=16, policy="first-fit", seed=0):
        return ShardAllocator(n, policy, random.Random(seed))

    def test_first_fit_takes_lowest_hole(self):
        alloc = self._allocator()
        a = alloc.allocate(4)
        assert a == (0, 1, 2, 3)
        b = alloc.allocate(4)
        assert b == (4, 5, 6, 7)
        alloc.free(a)
        # First-fit returns to the lowest hole even though the tail
        # hole is larger.
        assert alloc.allocate(2) == (0, 1)

    def test_best_fit_prefers_smallest_hole(self):
        alloc = self._allocator(policy="best-fit")
        a = alloc.allocate(4)   # 0-3
        b = alloc.allocate(4)   # 4-7
        alloc.allocate(4)       # 8-11; tail hole 12-15
        alloc.free(a)           # holes: [0-3], [12-15] both size 4
        alloc.free(b)           # holes: [0-7], [12-15]
        # Best-fit picks the 4-hole at 12, not the 8-hole at 0.
        assert alloc.allocate(3) == (12, 13, 14)

    def test_random_is_seeded(self):
        def run(seed):
            alloc = self._allocator(policy="random", seed=seed)
            blocks = [alloc.allocate(2) for _ in range(4)]
            alloc.free(blocks[1])
            alloc.free(blocks[3])
            return alloc.allocate(2)

        assert run(3) == run(3)

    def test_returns_none_when_fragmented(self):
        alloc = self._allocator(n=8)
        a = alloc.allocate(3)   # 0-2
        alloc.allocate(2)       # 3-4
        b = alloc.allocate(3)   # 5-7
        alloc.free(a)
        alloc.free(b)
        # 6 servers free but the largest hole is 3.
        assert alloc.free_count == 6
        assert alloc.allocate(4) is None
        assert alloc.fragmentation() == pytest.approx(0.5)

    def test_fragmentation_zero_when_contiguous(self):
        alloc = self._allocator()
        assert alloc.fragmentation() == 0.0
        block = alloc.allocate(4)
        assert alloc.fragmentation() == 0.0
        alloc.free(block)
        assert alloc.fragmentation() == 0.0

    def test_double_free_rejected(self):
        alloc = self._allocator()
        block = alloc.allocate(2)
        alloc.free(block)
        with pytest.raises(ValueError, match="already free"):
            alloc.free(block)

    def test_utilization(self):
        alloc = self._allocator(n=10)
        alloc.allocate(4)
        assert alloc.utilization() == pytest.approx(0.4)
