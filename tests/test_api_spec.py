"""Spec serialization: round-trips, unknown-key rejection, golden files."""

import json
from pathlib import Path

import pytest

from repro.api import (
    ClusterSpec,
    ExperimentSpec,
    FabricSpec,
    OptimizerSpec,
    SimSpec,
    SpecError,
    WorkloadSpec,
    parse_overrides,
    parse_scalar,
)
from repro.models.configs import CONFIG_FAMILIES

SPECS_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"


def all_preset_specs():
    """One spec per (family, model) preset plus custom/fabric variants."""
    specs = []
    for family, table in CONFIG_FAMILIES.items():
        for model in table:
            specs.append(
                ExperimentSpec(
                    name=f"{model}-{family}",
                    workload=WorkloadSpec(model=model, scale=family),
                )
            )
    specs.append(
        ExperimentSpec(
            workload=WorkloadSpec(
                model="DLRM",
                scale="custom",
                options={"num_embedding_tables": 4, "embedding_dim": 64},
            ),
            fabric=FabricSpec(
                kind="leaf-spine",
                options={"servers_per_rack": 8, "num_spines": 2},
            ),
            optimizer=OptimizerSpec(strategy="auto"),
            sim=SimSpec(collect_link_bytes=True),
            baselines=(
                FabricSpec(kind="sipml"),
                FabricSpec(kind="expander", degree=6),
            ),
            seed=7,
        )
    )
    return specs


class TestRoundTrip:
    def test_exact_round_trip_across_presets(self):
        for spec in all_preset_specs():
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        for spec in all_preset_specs():
            dumped = json.dumps(spec.to_dict(), sort_keys=True)
            restored = ExperimentSpec.from_dict(json.loads(dumped))
            assert restored == spec
            assert json.dumps(restored.to_dict(), sort_keys=True) == dumped

    def test_to_dict_is_json_native(self):
        spec = all_preset_specs()[-1]
        json.dumps(spec.to_dict())  # raises on non-native types

    def test_tuple_options_normalize_to_lists(self):
        spec = FabricSpec(kind="topoopt", options={"strides": (1, 3)})
        assert spec.options["strides"] == [1, 3]
        assert FabricSpec.from_dict(spec.to_dict()) == spec


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "cls", [WorkloadSpec, ClusterSpec, FabricSpec, OptimizerSpec,
                SimSpec]
    )
    def test_sub_spec_rejects_unknown_key(self, cls):
        data = cls().to_dict() if cls is not FabricSpec else (
            FabricSpec().to_dict()
        )
        data["frobnicate"] = 1
        with pytest.raises(SpecError, match="frobnicate"):
            cls.from_dict(data)

    def test_experiment_spec_rejects_unknown_key(self):
        data = ExperimentSpec().to_dict()
        data["cluter"] = {"servers": 8}  # typo'd section
        with pytest.raises(SpecError, match="cluter"):
            ExperimentSpec.from_dict(data)

    def test_nested_unknown_key_names_sub_spec(self):
        data = ExperimentSpec().to_dict()
        data["cluster"]["serverz"] = 8
        with pytest.raises(SpecError, match="ClusterSpec.*serverz"):
            ExperimentSpec.from_dict(data)


class TestValidation:
    def test_unknown_scale_lists_families(self):
        with pytest.raises(SpecError, match="galactic"):
            WorkloadSpec(model="DLRM", scale="galactic")

    def test_unknown_model_lists_presets(self):
        with pytest.raises(SpecError, match="AlexNet"):
            WorkloadSpec(model="AlexNet", scale="shared")

    def test_unknown_fabric_kind_lists_registry(self):
        with pytest.raises(SpecError, match="torus"):
            ExperimentSpec(fabric=FabricSpec(kind="torus"))

    def test_unknown_strategy_lists_registry(self):
        with pytest.raises(SpecError, match="zigzag"):
            OptimizerSpec(strategy="zigzag")

    def test_bad_cluster_dimensions(self):
        with pytest.raises(SpecError, match="servers"):
            ClusterSpec(servers=1)
        with pytest.raises(SpecError, match="bandwidth"):
            ClusterSpec(bandwidth_gbps=0)

    @pytest.mark.parametrize("path", ["sim.solver", "optimizer.incremental"])
    def test_retired_solver_keys_rejected(self, path):
        # The seed references are test oracles (repro.oracles), not
        # spec knobs: spec JSON that still selects one fails loudly.
        block, key = path.split(".")
        data = ExperimentSpec.preset("testbed").to_dict()
        data[block][key] = {"sim": "incremental", "optimizer": True}[block]
        with pytest.raises(SpecError, match=f"unknown keys \\['{key}'\\]"):
            ExperimentSpec.from_dict(data)
        with pytest.raises(SpecError, match=key):
            ExperimentSpec.preset("testbed").with_overrides({key: "batch"})


class TestOverrides:
    def test_shorthand_and_dotted(self):
        spec = ExperimentSpec.preset("shared")
        swept = spec.with_overrides(
            {"servers": 24, "cluster.degree": 8, "fabric.kind": "expander"}
        )
        assert swept.cluster.servers == 24
        assert swept.cluster.degree == 8
        assert swept.fabric.kind == "expander"
        # original untouched (frozen value semantics)
        assert spec.cluster.servers == 16

    def test_options_paths_can_create_keys(self):
        spec = ExperimentSpec.preset("shared").with_overrides(
            {"fabric.options.servers_per_rack": 8}
        )
        assert spec.fabric.options["servers_per_rack"] == 8

    def test_unknown_override_path_fails(self):
        with pytest.raises(SpecError, match="cluster.serverz"):
            ExperimentSpec.preset("shared").with_overrides(
                {"cluster.serverz": 3}
            )

    def test_override_revalidates(self):
        with pytest.raises(SpecError, match="torus"):
            ExperimentSpec.preset("shared").with_overrides(
                {"fabric.kind": "torus"}
            )

    def test_parse_scalar_and_overrides(self):
        assert parse_scalar("16") == 16
        assert parse_scalar("2.5") == 2.5
        assert parse_scalar("true") is True
        assert parse_scalar("None") is None
        assert parse_scalar("dlrm") == "dlrm"
        assert parse_overrides(["servers=8", "model=VGG16"]) == {
            "servers": 8, "model": "VGG16",
        }
        with pytest.raises(SpecError):
            parse_overrides(["no-equals-sign"])


class TestGoldenSpecs:
    """The example spec files must always parse (CI contract)."""

    def test_specs_directory_is_populated(self):
        assert sorted(p.name for p in SPECS_DIR.glob("*.json")) == [
            "quickstart.json", "scenario_shared.json",
            "shared_compare.json", "sweep_grid.json",
        ]

    @pytest.mark.parametrize(
        "name", ["quickstart.json", "shared_compare.json"]
    )
    def test_golden_experiment_specs_parse(self, name):
        data = json.loads((SPECS_DIR / name).read_text())
        spec = ExperimentSpec.from_dict(data)
        assert spec.to_dict() == data  # files stay in canonical form
        assert spec.cluster.servers >= 2

    def test_golden_sweep_grid_applies_to_quickstart(self):
        base = ExperimentSpec.from_dict(
            json.loads((SPECS_DIR / "quickstart.json").read_text())
        )
        grid = json.loads((SPECS_DIR / "sweep_grid.json").read_text())
        for key, values in grid.items():
            assert isinstance(values, list) and values, key
            for value in values:
                base.with_overrides({key: value})  # must not raise

    def test_quickstart_spec_matches_preset(self):
        data = json.loads((SPECS_DIR / "quickstart.json").read_text())
        assert ExperimentSpec.from_dict(data) == ExperimentSpec.preset(
            "testbed"
        )
