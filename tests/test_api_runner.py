"""Runner + sweep engine: determinism, preset equivalence, tidy rows."""

import argparse
import json

import pytest

from repro.api import (
    ClusterSpec,
    ExperimentResult,
    ExperimentSpec,
    FabricSpec,
    OptimizerSpec,
    SweepResult,
    WorkloadSpec,
    compare_fabrics,
    expand_grid,
    point_seed,
    prepare,
    run_experiment,
    run_sweep,
)


def small_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        name="unit",
        workload=WorkloadSpec(model="DLRM", scale="shared"),
        cluster=ClusterSpec(servers=8, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        optimizer=OptimizerSpec(
            strategy="mcmc", rounds=1, mcmc_iterations=10
        ),
        baselines=(
            FabricSpec(kind="ideal-switch"),
            FabricSpec(kind="fattree"),
        ),
    )
    return spec.with_overrides(overrides) if overrides else spec


class TestRunExperiment:
    def test_mcmc_run_produces_complete_result(self):
        result = run_experiment(small_spec())
        assert result.fabric.kind == "topoopt"
        assert result.fabric.total_s > 0
        assert result.fabric.compute_s > 0
        assert len(result.baselines) == 2
        assert result.topology is not None
        assert result.topology.num_links > 0
        assert result.search is not None
        assert result.search.rounds
        assert result.strategy.num_layers > 0
        assert result.traffic.allreduce_bytes >= 0
        assert result.wall_time_s is not None and result.wall_time_s > 0

    def test_result_json_is_deterministic_for_seed(self):
        spec = small_spec()
        first = json.dumps(
            run_experiment(spec).to_dict(), sort_keys=True
        )
        second = json.dumps(
            run_experiment(spec).to_dict(), sort_keys=True
        )
        assert first == second

    def test_result_json_round_trips(self):
        result = run_experiment(small_spec())
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.to_dict() == result.to_dict()

    def test_fixed_strategy_skips_search(self):
        result = run_experiment(small_spec(strategy="auto"))
        assert result.search is None
        assert result.fabric.total_s > 0

    def test_mcmc_on_fixed_fabric_searches_once(self):
        result = run_experiment(
            small_spec(**{"fabric.kind": "ideal-switch"})
        )
        assert result.search is not None
        assert result.search.proposed_moves == 10
        assert result.topology is None

    def test_self_simulating_fabric_with_fixed_strategy(self):
        result = run_experiment(
            small_spec(strategy="hybrid", **{"fabric.kind": "sipml"})
        )
        assert result.fabric.mp_s is None
        assert result.fabric.total_s > result.fabric.compute_s

    def test_mcmc_on_self_simulating_fabric_is_rejected(self):
        with pytest.raises(ValueError, match="sipml"):
            run_experiment(small_spec(**{"fabric.kind": "sipml"}))

    def test_typoed_fabric_option_is_rejected_on_mcmc_path(self):
        spec = small_spec(**{"fabric.options.primes_onyl": True})
        with pytest.raises(ValueError, match="primes_onyl"):
            run_experiment(spec)

    def test_fabric_primes_only_option_reaches_the_search(self):
        # n=9 discriminates: coprime strides {1,2,4,5,7,8} include the
        # composites 4 and 8, which primes_only must exclude.
        plain = run_experiment(small_spec(servers=9))
        primed = run_experiment(
            small_spec(servers=9, **{"fabric.options.primes_only": True})
        )
        plain_strides = {
            s for g in plain.topology.groups for s in g["strides"]
        }
        primed_strides = {
            s for g in primed.topology.groups for s in g["strides"]
        }
        assert plain_strides & {4, 8}  # the assertion discriminates
        assert not primed_strides & {4, 8}

    def test_optimizer_primes_only_reaches_topoopt_baseline(self):
        spec = small_spec(
            strategy="auto",
            **{"fabric.kind": "ideal-switch",
               "optimizer.primes_only": True},
        )
        spec = ExperimentSpec.from_dict({
            **spec.to_dict(),
            "baselines": [FabricSpec(kind="topoopt").to_dict()],
        })
        result = run_experiment(spec)
        baseline = result.baselines[0]
        assert baseline.kind == "topoopt" and baseline.total_s > 0

    def test_costs_populated_where_model_exists(self):
        result = run_experiment(small_spec(strategy="auto"))
        assert result.fabric.cost_usd and result.fabric.cost_usd > 0
        by_kind = {t.kind: t for t in result.timings}
        assert by_kind["fattree"].cost_usd > 0

    def test_cost_equivalent_fattree_is_priced_as_built(self):
        """The cost-matched Fat-tree costs what TopoOpt costs."""
        result = run_experiment(small_spec(strategy="auto"))
        by_kind = {t.kind: t for t in result.timings}
        assert by_kind["fattree"].cost_usd == pytest.approx(
            by_kind["topoopt"].cost_usd, rel=0.02
        )

    def test_collect_link_bytes_reaches_the_result(self):
        result = run_experiment(
            small_spec(strategy="auto",
                       **{"sim.collect_link_bytes": True})
        )
        assert result.fabric.link_bytes
        assert all(len(entry) == 3 for entry in result.fabric.link_bytes)
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.to_dict() == result.to_dict()
        plain = run_experiment(small_spec(strategy="auto"))
        assert plain.fabric.link_bytes is None

    def test_primary_degree_override_does_not_leak_topology(self):
        """A context baseline must not reuse an off-degree topology."""
        from repro.api import build_fabric

        spec = small_spec(strategy="auto", **{"fabric.degree": 8})
        prepared = prepare(spec)
        assert prepared.fabric.result.topology.num_links() == 8 * 8
        baseline = build_fabric(FabricSpec(kind="topoopt"),
                                prepared.context)
        assert baseline.result.topology.num_links() == 8 * 4


class TestPresetEquivalence:
    """Acceptance: ``run --preset --set`` and ``run --spec`` emit
    identical JSON, and both resolve to the API's spec."""

    OVERRIDES = {
        "servers": 8, "degree": 4, "rounds": 1, "mcmc_iterations": 10,
        "seed": 3,
    }

    def preset_argv(self):
        argv = ["run", "--preset", "shared"]
        for key, value in self.OVERRIDES.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def test_preset_overrides_match_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        spec = ExperimentSpec.preset("shared").with_overrides(self.OVERRIDES)
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec.to_dict()))

        preset_out = tmp_path / "preset.json"
        run_out = tmp_path / "run.json"
        assert main(self.preset_argv() + ["--json", str(preset_out)]) == 0
        assert main(
            ["run", "--spec", str(spec_path), "--json", str(run_out)]
        ) == 0
        capsys.readouterr()
        assert (
            json.loads(preset_out.read_text())
            == json.loads(run_out.read_text())
        )

    def test_preset_matches_runner_api(self):
        from repro.cli import _load_spec

        args = argparse.Namespace(
            spec=None, preset="shared",
            overrides=[f"{k}={v}" for k, v in self.OVERRIDES.items()],
        )
        spec = _load_spec(args)
        assert spec == ExperimentSpec.preset("shared").with_overrides(
            self.OVERRIDES
        )
        via_cli = run_experiment(spec).to_dict()
        via_api = run_experiment(
            ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        ).to_dict()
        assert via_cli == via_api


class TestCompareFabrics:
    def test_labels_and_shared_traffic(self):
        spec = small_spec(strategy="auto")
        fabrics = {
            "A": FabricSpec(kind="topoopt"),
            "B": FabricSpec(kind="ideal-switch"),
            "C": FabricSpec(kind="sipml"),
        }
        timings = compare_fabrics(spec, fabrics)
        assert set(timings) == {"A", "B", "C"}
        assert all(t.total_s > 0 for t in timings.values())
        # All share one compute time (same prepared workload).
        computes = {t.compute_s for t in timings.values()}
        assert len(computes) == 1

    def test_prepared_reuse_gives_identical_timings(self):
        spec = small_spec(strategy="auto")
        prepared = prepare(spec)
        once = compare_fabrics(
            spec, {"t": FabricSpec(kind="topoopt")}, prepared
        )
        twice = compare_fabrics(
            spec, {"t": FabricSpec(kind="topoopt")}, prepared
        )
        assert once["t"].to_dict() == twice["t"].to_dict()


class TestSweep:
    GRID = {
        "workload.model": ["DLRM", "VGG16"],
        "fabric.kind": ["topoopt", "fattree"],
        "cluster.servers": [8, 12, 16],
    }

    @pytest.fixture(scope="class")
    def sweep(self):
        base = small_spec(strategy="auto")
        base = ExperimentSpec.from_dict(
            {**base.to_dict(), "baselines": []}
        )
        return run_sweep(base, self.GRID)

    def test_twelve_point_grid_one_row_per_point(self, sweep):
        assert len(sweep.points) == 12
        assert sweep.ok
        rows = sweep.rows()
        assert len(rows) == 12
        seen = {
            (r["workload.model"], r["fabric.kind"], r["cluster.servers"])
            for r in rows
        }
        assert len(seen) == 12  # every grid point exactly once

    def test_rows_are_well_formed(self, sweep):
        required = {
            "workload.model", "fabric.kind", "cluster.servers", "seed",
            "model", "fabric_kind", "servers", "total_s", "compute_s",
            "network_fraction", "error",
        }
        for row in sweep.rows():
            assert required <= set(row)
            assert row["error"] is None
            assert row["total_s"] > 0
            assert row["model"] == row["workload.model"]
            assert row["fabric_kind"] == row["fabric.kind"]
            assert row["servers"] == row["cluster.servers"]

    def test_per_point_seeds_are_deterministic(self, sweep):
        for point in sweep.points:
            assert point.seed == point_seed(
                sweep.base_spec.seed, point.overrides
            )
            assert point.result.spec.seed == point.seed
        # Seed derivation ignores grid-key ordering.
        overrides = dict(sweep.points[0].overrides)
        reordered = dict(reversed(list(overrides.items())))
        assert point_seed(0, overrides) == point_seed(0, reordered)

    def test_explicit_seed_axis_wins(self):
        """A 'seed' grid axis replicates runs at exactly those seeds."""
        base = small_spec(strategy="auto")
        sweep = run_sweep(
            base, {"seed": [1, 2, 5]}, executor="serial"
        )
        assert [p.seed for p in sweep.points] == [1, 2, 5]
        assert [p.result.spec.seed for p in sweep.points] == [1, 2, 5]

    def test_serial_and_thread_executors_agree(self):
        base = small_spec(strategy="auto")
        base = ExperimentSpec.from_dict(
            {**base.to_dict(), "baselines": []}
        )
        grid = {"cluster.servers": [8, 12], "cluster.degree": [2, 4]}
        threaded = run_sweep(base, grid, executor="thread")
        serial = run_sweep(base, grid, executor="serial")
        assert json.dumps(
            threaded.to_dict(), sort_keys=True
        ) == json.dumps(serial.to_dict(), sort_keys=True)

    def test_sweep_result_round_trips(self, sweep):
        restored = SweepResult.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert restored.to_dict() == sweep.to_dict()

    def test_failing_point_becomes_error_row(self):
        base = small_spec(strategy="auto")
        sweep = run_sweep(
            base,
            {"cluster.servers": [8], "workload.batch_per_gpu": [-1]},
        )
        assert not sweep.ok
        row = sweep.rows()[0]
        assert row["error"] and "batch_per_gpu" in row["error"]
        assert row["total_s"] is None

    def test_error_row_keeps_shorthand_override_columns(self):
        """A failed point's row still says which point it was."""
        base = small_spec(strategy="auto")
        sweep = run_sweep(
            base, {"servers": [8, 1]}, executor="serial"
        )
        rows = sweep.rows()
        assert rows[0]["error"] is None and rows[0]["servers"] == 8
        assert rows[1]["error"] is not None
        assert rows[1]["servers"] == 1  # not clobbered to None

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            run_sweep(small_spec(strategy="auto"), {})
        with pytest.raises(ValueError, match="non-empty"):
            expand_grid({"cluster.servers": []})


class TestCheckExamplesCLI:
    def test_check_examples_reports_missing_dir(self, tmp_path, capsys):
        from repro.cli import check_examples

        code = check_examples(
            ["--examples-dir", str(tmp_path / "nowhere")]
        )
        assert code == 1
        assert "no examples" in capsys.readouterr().err

    def test_check_examples_runs_a_tiny_script(self, tmp_path, capsys):
        from repro.cli import check_examples

        good = tmp_path / "ok_example.py"
        good.write_text("import os; assert os.environ['REPRO_SMOKE']\n")
        assert check_examples(["--examples-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok_example.py" in out and "check-examples ok" in out

    def test_check_examples_fails_on_broken_script(self, tmp_path, capsys):
        from repro.cli import check_examples

        bad = tmp_path / "bad_example.py"
        bad.write_text("raise SystemExit(3)\n")
        assert check_examples(["--examples-dir", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out
