"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.api import SpecError
from repro.cli import (
    SUBCOMMANDS,
    _add_spec_arguments,
    _load_spec,
    main,
    smoke_gate_failures,
)


def run_spec(argv):
    """The spec ``repro run`` resolves from these spec arguments."""
    parser = argparse.ArgumentParser(prog="repro run")
    _add_spec_arguments(parser)
    return _load_spec(parser.parse_args(argv))


def spec_parser_action(dest):
    parser = argparse.ArgumentParser(prog="repro run")
    _add_spec_arguments(parser)
    return next(a for a in parser._actions if a.dest == dest)


class TestParser:
    def test_defaults(self):
        spec = run_spec(["--preset", "shared"])
        assert spec.workload.model == "DLRM"
        assert spec.cluster.servers == 16
        assert spec.cluster.degree == 4

    def test_custom_arguments(self):
        spec = run_spec([
            "--preset", "shared", "--set", "model=BERT",
            "--set", "servers=8", "--set", "primes_only=true",
        ])
        assert spec.workload.model == "BERT"
        assert spec.cluster.servers == 8
        assert spec.optimizer.primes_only

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            run_spec(["--preset", "galactic"])
        with pytest.raises(SpecError):
            run_spec(["--preset", "shared", "--set", "scale=galactic"])

    def test_scale_choices_track_config_families(self):
        """Satellite: one source of truth for the preset families."""
        from repro.models.configs import CONFIG_FAMILIES

        action = spec_parser_action("preset")
        assert set(action.choices) == set(CONFIG_FAMILIES)
        # The help text documents each family (no leftover "List 1").
        assert "List 1" not in action.help
        for family in CONFIG_FAMILIES:
            assert family in action.help


class TestMain:
    def test_no_subcommand_lists_subcommands(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        for command in SUBCOMMANDS:
            assert command in err
        assert main(["--help"]) == 0
        assert "bench-smoke" in capsys.readouterr().out

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        assert main(["--model", "DLRM"]) == 2
        err = capsys.readouterr().err
        assert "unknown subcommand '--model'" in err
        assert "serve-batch" in err

    def test_unknown_model_exits_nonzero(self, capsys):
        code = main(["run", "--preset", "shared", "--set", "model=AlexNet"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_small_run_succeeds(self, capsys):
        code = main([
            "run", "--preset", "shared",
            "--set", "model=VGG16", "--set", "servers=4",
            "--set", "degree=2", "--set", "rounds=1",
            "--set", "mcmc_iterations=5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "iteration time" in out
        assert "TopoOpt" in out
        assert "interconnect cost" in out

    def test_dlrm_reports_mp_layers(self, capsys):
        code = main([
            "run", "--preset", "shared",
            "--set", "model=DLRM", "--set", "servers=8",
            "--set", "degree=4", "--set", "rounds=1",
            "--set", "mcmc_iterations=10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "model-parallel" in out
        assert "strides" in out


class TestDeclarativeCommands:
    def test_run_requires_spec_or_preset(self, capsys):
        assert main(["run"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_run_with_preset_and_overrides(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = main([
            "run", "--preset", "shared",
            "--set", "servers=4", "--set", "degree=2",
            "--set", "rounds=1", "--set", "mcmc_iterations=5",
            "--set", "model=VGG16",
            "--json", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "iteration time" in stdout
        assert "TopoOpt" in stdout
        result = json.loads(out.read_text())
        assert result["spec"]["cluster"]["servers"] == 4
        assert result["fabric"]["total_s"] > 0

    def test_run_rejects_bad_override(self, capsys):
        code = main([
            "run", "--preset", "shared", "--set", "fabric.kind=torus",
        ])
        assert code == 2
        assert "torus" in capsys.readouterr().err

    def test_sweep_prints_row_per_point(self, capsys):
        code = main([
            "sweep", "--preset", "shared",
            "--set", "strategy=auto", "--set", "servers=8",
            "--set", "baselines=",
            "--vary", "model=DLRM,VGG16", "--vary", "degree=2,4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 points, 0 failed" in out
        assert "VGG16" in out

    def test_sweep_requires_a_grid(self, capsys):
        assert main(["sweep", "--preset", "shared"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_compare_lists_fabrics(self, capsys):
        code = main([
            "compare", "--preset", "shared",
            "--set", "strategy=auto", "--set", "servers=8",
            "--fabrics", "topoopt,ideal-switch,leaf-spine",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for kind in ("topoopt", "ideal-switch", "leaf-spine"):
            assert kind in out

    def test_compare_rejects_unknown_fabric(self, capsys):
        code = main([
            "compare", "--preset", "shared", "--fabrics", "torus",
        ])
        assert code == 2
        assert "torus" in capsys.readouterr().err

    def test_trace_writes_chrome_trace_and_report(self, capsys, tmp_path):
        trace_out = tmp_path / "trace.json"
        report_out = tmp_path / "report.json"
        code = main([
            "trace", "--preset", "shared",
            "--set", "jobs.0.iterations=2", "--set", "jobs.1.iterations=2",
            "--set", "jobs.2.iterations=2", "--set", "jobs.3.iterations=2",
            "--out", str(trace_out), "--json", str(report_out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "observability report" in stdout
        trace = json.loads(trace_out.read_text())
        span_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert "engine.run_scenario" in span_names
        assert "engine.step" in span_names
        assert "flow.solve" in span_names
        counter_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "C"
        }
        assert any(n.startswith("link_util.") for n in counter_names)
        report = json.loads(report_out.read_text())
        assert "engine.step" in report["spans"]

    def test_scenario_trace_out_rides_along(self, capsys, tmp_path):
        trace_out = tmp_path / "trace.json"
        code = main([
            "scenario", "--preset", "shared",
            "--set", "jobs.0.iterations=2", "--set", "jobs.1.iterations=2",
            "--set", "jobs.2.iterations=2", "--set", "jobs.3.iterations=2",
            "--trace-out", str(trace_out),
        ])
        assert code == 0
        trace = json.loads(trace_out.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_subcommands_cover_the_dispatch_table(self):
        assert set(SUBCOMMANDS) == {
            "run", "sweep", "compare", "scenario", "serve-batch",
            "cache", "trace", "bench", "bench-smoke", "chaos-smoke",
            "check-docs", "check-examples",
        }


def passing_smoke_results():
    """A ``bench-smoke`` results tree that passes every gate at n=64."""
    return {
        "phase_sim": {"n=64": {"speedup": 2.0}},
        "routing": {"n=64": {"speedup": 2.0}},
        "staggered_phase": {"n=64": {"speedup": 2.0}},
        "mcmc_steps": {"n=64": {"speedup": 2.0, "cost_rel_err": 0.0}},
        "alternating": {"n=64": {"speedup": 2.0}},
        "scenario": {"n=64": {
            "deterministic": True, "iteration_rel_err": 0.0,
            "speedup": 2.0,
        }},
        "scenario_fleet": {"n=200": {
            "jobs_completed": 10, "jobs_submitted": 10,
        }},
        "scheduler_sweep": {"n=100": {
            "drained": True, "deterministic": True,
            "backfill_beats_fcfs": True, "wall_s": 1.0,
        }},
        "scenario_storm": {"n=100": {
            "drained": True, "deterministic": True,
            "invariant_violations": 0, "storm_bites": True,
            "fault_events": 30,
        }},
        "service_throughput": {"n=16": {
            "dedup_exact": True, "computed": 4, "unique_requested": 4,
            "byte_identical": True, "warm_speedup": 10.0,
        }},
        "obs_overhead": {"n=64": {
            "byte_identical": True, "overhead_pct": 1.0,
        }},
    }


class TestBenchSmokeGates:
    def test_passing_results_report_nothing(self):
        assert smoke_gate_failures(passing_smoke_results(), "n=64") == []

    def test_every_failed_gate_is_reported(self, monkeypatch, capsys):
        import repro.perf.bench as bench

        results = passing_smoke_results()
        results["routing"]["n=64"]["speedup"] = 0.5
        results["obs_overhead"]["n=64"]["overhead_pct"] = 12.0
        monkeypatch.setattr(bench, "run_benchmarks", lambda sizes: results)
        monkeypatch.setattr(bench, "format_results", lambda results: [])
        assert main(["bench-smoke"]) == 1
        err = capsys.readouterr().err
        assert (
            "PERF REGRESSION: routing slower than the seed implementation "
            "at n=64" in err
        )
        assert "tracing overhead 12.0% on the scenario engine" in err
        assert len(err.strip().splitlines()) == 2


def _cheap_spec_dict():
    """A fixed-strategy, baseline-free spec for service CLI tests."""
    from test_service_store import cheap_spec

    return cheap_spec().to_dict()


class TestServiceCommands:
    def test_serve_batch_dedups_then_serves_from_store(
        self, tmp_path, capsys
    ):
        spec = _cheap_spec_dict()
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(json.dumps(spec) for _ in range(3)) + "\n"
        )
        store = tmp_path / "store"
        code = main([
            "serve-batch", "--requests", str(requests),
            "--store", str(store), "--executor", "thread",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 computed" in out
        assert "2 deduplicated" in out

        # Replay: everything is a store hit now.
        code = main([
            "serve-batch", "--requests", str(requests),
            "--store", str(store), "--executor", "serial",
            "--json", str(tmp_path / "report.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 store hits" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["report"]["store_hits"] == 3
        assert [r["route"] for r in payload["requests"]] == ["store"] * 3

    def test_serve_batch_rejects_bad_request_file(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("this is not json\n")
        code = main(["serve-batch", "--requests", str(requests)])
        assert code == 2
        assert "bad request" in capsys.readouterr().err

    def test_cache_stats_lookup_clear(self, tmp_path, capsys):
        spec = _cheap_spec_dict()
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(spec) + "\n")
        store = tmp_path / "store"
        assert main([
            "serve-batch", "--requests", str(requests),
            "--store", str(store), "--executor", "serial",
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "entries       : 1" in out

        assert main([
            "cache", "lookup", str(spec_file), "--store", str(store),
        ]) == 0
        assert capsys.readouterr().out.startswith("hit ")

        assert main(["cache", "clear", "--store", str(store)]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out

        assert main([
            "cache", "lookup", str(spec_file), "--store", str(store),
        ]) == 0
        assert capsys.readouterr().out.startswith("miss ")

    def test_cache_lookup_requires_a_spec(self, capsys):
        assert main(["cache", "lookup", "--store", "/tmp/x"]) == 2
        assert "SPEC.json" in capsys.readouterr().err

    def test_sweep_store_flag_makes_the_replay_hit(
        self, tmp_path, capsys
    ):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(_cheap_spec_dict()))
        store = tmp_path / "store"
        argv = [
            "sweep", "--spec", str(spec_file),
            "--vary", "seed=0,1", "--executor", "serial",
            "--store", str(store),
        ]
        assert main(argv) == 0
        assert "0 cache hits" in capsys.readouterr().out
        assert main(argv) == 0
        assert "2 cache hits" in capsys.readouterr().out


class TestChaosSmoke:
    def test_chaos_smoke_passes(self, capsys):
        code = main(["chaos-smoke", "--runs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos-smoke ok (2 runs)" in out

    def test_bad_runs_rejected(self, capsys):
        assert main(["chaos-smoke", "--runs", "0"]) == 2


class TestCheckDocs:
    def test_check_docs_passes_on_repo(self, capsys):
        code = main(["check-docs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check-docs ok" in out
        assert "README.md" in out

    def test_broken_command_reference_fails(self, tmp_path, capsys):
        (tmp_path / "docs").mkdir()
        (tmp_path / "scripts").mkdir()
        (tmp_path / "README.md").write_text(
            "Run `python -m repro.cli frobnicate` and scripts/nope.sh\n"
        )
        code = main(["check-docs", "--root", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "frobnicate" in err
        assert "nope.sh" in err

    def test_broken_doctest_fails(self, tmp_path, capsys):
        (tmp_path / "docs").mkdir()
        (tmp_path / "scripts").mkdir()
        (tmp_path / "README.md").write_text(
            ">>> 1 + 1\n3\n"
        )
        code = main(["check-docs", "--root", str(tmp_path)])
        assert code == 1
