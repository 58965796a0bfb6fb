"""The scenario engine: determinism, Figure 16, queueing, arrivals, CLI."""

import json

import pytest

from repro.cluster import (
    ScenarioError,
    ScenarioSpec,
    run_scenario,
)
from repro.oracles import ReferenceScenarioEngine


def shared_spec(**overrides):
    """The Figure 16 preset shrunk to 2 iterations per job."""
    spec = ScenarioSpec.preset("shared").with_overrides(
        {f"jobs.{i}.iterations": 2 for i in range(4)}
    )
    return spec.with_overrides(overrides) if overrides else spec


class TestDeterminism:
    def test_same_spec_same_seed_identical_json(self):
        spec = shared_spec()
        first = json.dumps(run_scenario(spec).to_dict(), sort_keys=True)
        second = json.dumps(run_scenario(spec).to_dict(), sort_keys=True)
        assert first == second

    def test_trace_process_deterministic(self):
        spec = ScenarioSpec.preset("lifetime").with_overrides({"count": 4})
        first = run_scenario(spec).to_dict()
        second = run_scenario(spec).to_dict()
        assert first == second

    def test_seed_changes_poisson_arrivals(self):
        spec = shared_spec(**{"process": "poisson", "count": 4})
        a = run_scenario(spec)
        b = run_scenario(spec.with_overrides({"seed": 1}))
        assert (
            [j.arrival_s for j in a.jobs] != [j.arrival_s for j in b.jobs]
        )

    def test_wall_time_off_json(self):
        result = run_scenario(shared_spec())
        assert result.wall_time_s is not None
        assert "wall_time" not in json.dumps(result.to_dict())


class TestFigure16:
    """The acceptance criterion: shardable TopoOpt partitions show no
    cross-job iteration-time inflation, while the shared Fat-tree's p99
    inflates under the same arrival trace."""

    def test_topoopt_shards_do_not_inflate(self):
        multi = run_scenario(shared_spec())
        # Each job alone on an otherwise-empty cluster: same pipeline,
        # same shard, no neighbors.
        for index, job in enumerate(multi.jobs):
            solo_spec = shared_spec(
                **{"arrivals.times": [0.0], "name": f"solo-{index}"}
            )
            # Rotate the mix so template `index` is the one that runs.
            solo_spec = solo_spec.with_overrides(
                {
                    "jobs.0.model": multi.spec.jobs[index].model,
                    "jobs.0.iterations": 2,
                }
            )
            solo = run_scenario(solo_spec)
            solo_times = solo.jobs[0].iteration_times
            for got, want in zip(job.iteration_times, solo_times):
                assert got == pytest.approx(want, rel=1e-6)

    def test_fattree_p99_inflates_under_same_trace(self):
        topo = run_scenario(shared_spec())
        fat = run_scenario(shared_spec(**{"fabric.kind": "fattree"}))
        # Identical arrival trace and offered traffic.
        assert [j.arrival_s for j in fat.jobs] == [
            j.arrival_s for j in topo.jobs
        ]
        _, topo_p99 = topo.iteration_stats()
        _, fat_p99 = fat.iteration_stats()
        assert fat_p99 > topo_p99 * 1.2

    def test_cross_job_congestion_on_shared_core(self):
        # Two 8-server jobs on one shared expander: multi-hop paths
        # relay through the *other* job's servers, so the multi-job
        # iterations are measurably slower than running alone --
        # genuine cross-job congestion, not just the cost-equivalent
        # bandwidth tax.
        base = {
            "servers": 16,
            "fabric.kind": "expander",
            "cluster.degree": 3,
            "jobs.0.servers": 8,
            "jobs.0.iterations": 2,
            "jobs.1.servers": 8,
            "jobs.1.iterations": 2,
        }
        multi = run_scenario(
            shared_spec(**{**base, "arrivals.times": [0.0, 0.0]})
        )
        solo = run_scenario(
            shared_spec(**{**base, "arrivals.times": [0.0]})
        )
        solo_avg = solo.jobs[0].iteration_avg_s
        assert multi.jobs[0].iteration_avg_s > solo_avg * 1.1


class TestQueueing:
    def test_second_job_queues_for_servers(self):
        spec = shared_spec(
            servers=8, **{"arrivals.times": [0.0, 0.0]}
        )
        result = run_scenario(spec)
        first, second = result.jobs
        assert first.queueing_delay_s == 0.0
        assert second.queueing_delay_s > 0.0
        # FCFS: the second job is admitted exactly when the first
        # departs.
        assert second.admitted_s == pytest.approx(first.completed_s)

    def test_admission_latency_delays_start(self):
        base = shared_spec(**{"arrivals.times": [0.0]})
        instant = run_scenario(base)
        delayed = run_scenario(
            base.with_overrides({"admission_latency_s": 0.5})
        )
        assert delayed.jobs[0].jct_s == pytest.approx(
            instant.jobs[0].jct_s + 0.5, rel=1e-6
        )

    def test_utilization_timeline_tracks_admissions(self):
        spec = shared_spec(servers=8, **{"arrivals.times": [0.0, 0.0]})
        result = run_scenario(spec)
        busies = [busy for _, busy in result.utilization_timeline]
        assert busies[0] == 0
        assert max(busies) == 8
        assert busies[-1] == 0
        assert 0.0 < result.mean_utilization() <= 1.0

    def test_max_sim_time_enforced(self):
        with pytest.raises(ScenarioError, match="max_sim_time_s"):
            run_scenario(shared_spec(max_sim_time_s=1e-6))


class TestAppendixC:
    """Optical sharding and look-ahead admission on the engine: a job
    admitted at arrival pays the whole reconfiguration latency, a job
    that waits at the queue head has its shard wired meanwhile, and
    shards are disjoint and isolated."""

    LATENCY_S = 0.05

    def run(self, provisioning):
        # Two 8-server jobs fill the 16 servers at t = 0; the third
        # waits at the head of the queue until the first departs.
        return run_scenario(ScenarioSpec.preset("shared").with_overrides({
            "servers": 16,
            "arrivals.times": [0.0, 0.0, 0.0],
            "admission_latency_s": self.LATENCY_S,
            "provisioning": provisioning,
        }))

    @staticmethod
    def latency_paid(job):
        """Time from admission to the first iteration's start."""
        return job.completed_s - job.admitted_s - sum(job.iteration_times)

    def test_admission_at_arrival_pays_full_latency(self):
        for provisioning in ("flat", "lookahead"):
            for job in self.run(provisioning).jobs[:2]:
                assert job.admitted_s == 0.0
                assert self.latency_paid(job) == pytest.approx(
                    self.LATENCY_S
                )

    def test_lookahead_wires_the_queue_head_while_it_waits(self):
        flat = self.run("flat").jobs[2]
        ahead = self.run("lookahead").jobs[2]
        assert ahead.admitted_s == flat.admitted_s > self.LATENCY_S
        assert self.latency_paid(flat) == pytest.approx(self.LATENCY_S)
        assert self.latency_paid(ahead) == pytest.approx(0.0, abs=1e-12)
        assert ahead.completed_s == pytest.approx(
            flat.completed_s - self.LATENCY_S, abs=1e-12
        )

    def test_shards_are_disjoint_and_isolated(self):
        # Each job of the shared preset runs on its own block and
        # iterates exactly as it does alone on the cluster.
        spec = ScenarioSpec.preset("shared")
        multi = run_scenario(spec)
        blocks = [set(job.servers) for job in multi.jobs]
        assert sum(map(len, blocks)) == len(set().union(*blocks))
        for job, template in zip(multi.jobs, spec.jobs):
            solo = run_scenario(spec.with_overrides({
                "arrivals.times": [0.0], "jobs": [template.to_dict()],
            }))
            assert solo.jobs[0].iteration_times == job.iteration_times


class TestArrivalProcesses:
    def test_explicit_cycles_templates_in_order(self):
        result = run_scenario(shared_spec())
        assert [job.model for job in result.jobs] == [
            "DLRM", "BERT", "CANDLE", "VGG16"
        ]

    def test_explicit_times_pair_with_templates_as_written(self):
        # times[i] belongs to template i even when the list is not
        # sorted: DLRM (template 0) arrives late, BERT (template 1)
        # arrives first.
        spec = shared_spec(**{"arrivals.times": [5.0, 0.0]})
        result = run_scenario(spec)
        by_index = {job.index: job for job in result.jobs}
        assert by_index[0].model == "DLRM"
        assert by_index[0].arrival_s == 5.0
        assert by_index[1].model == "BERT"
        assert by_index[1].arrival_s == 0.0

    def test_poisson_draws_by_weight(self):
        spec = shared_spec(
            **{
                "process": "poisson",
                "count": 6,
                "mean_interarrival_s": 5.0,
                "jobs.0.weight": 100.0,
            }
        )
        result = run_scenario(spec)
        assert len(result.jobs) == 6
        arrivals = [job.arrival_s for job in result.jobs]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)
        # The heavily weighted template dominates the draw.
        models = [job.model for job in result.jobs]
        assert models.count("DLRM") >= 4

    def test_trace_population_maps_families_and_clamps(self):
        spec = ScenarioSpec.preset("lifetime").with_overrides(
            {"count": 5, "max_servers": 8}
        )
        result = run_scenario(spec)
        assert len(result.jobs) == 5
        for job in result.jobs:
            assert job.model in ("DLRM", "BERT", "VGG16", "CANDLE")
            assert 2 <= job.num_servers <= 8

    def test_mcmc_template_co_optimizes_on_shard(self):
        spec = shared_spec(
            **{
                "arrivals.times": [0.0],
                "jobs.0.strategy": "mcmc",
                "optimizer.rounds": 1,
                "optimizer.mcmc_iterations": 5,
            }
        )
        result = run_scenario(spec)
        assert result.jobs[0].strategy == "mcmc"
        assert result.jobs[0].iterations_completed == 2


class TestResultShape:
    def test_result_round_trip(self):
        from repro.cluster import ScenarioResult

        result = run_scenario(shared_spec())
        reloaded = ScenarioResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert reloaded == result

    def test_metrics_block(self):
        metrics = run_scenario(shared_spec()).metrics()
        assert metrics["jobs_completed"] == 4
        assert metrics["iteration_p99_s"] >= metrics["iteration_avg_s"]
        assert metrics["jct_avg_s"] > 0
        assert 0 <= metrics["mean_utilization"] <= 1

    def test_solver_reference_matches_kernel(self):
        kernel = run_scenario(shared_spec())
        reference = ReferenceScenarioEngine(shared_spec()).run()
        for k_job, r_job in zip(kernel.jobs, reference.jobs):
            for k_t, r_t in zip(
                k_job.iteration_times, r_job.iteration_times
            ):
                assert k_t == pytest.approx(r_t, rel=1e-9)


class TestScenarioCli:
    def test_preset_run(self, capsys):
        from repro.cli import main

        code = main([
            "scenario", "--preset", "shared",
            "--set", "jobs.0.iterations=1", "--set", "jobs.1.iterations=1",
            "--set", "jobs.2.iterations=1", "--set", "jobs.3.iterations=1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure16-shared-cluster" in out
        assert "DLRM-0" in out

    def test_fabric_comparison_and_json(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "scenario.json"
        code = main([
            "scenario", "--preset", "shared",
            "--set", "jobs.0.iterations=1", "--set", "jobs.1.iterations=1",
            "--set", "jobs.2.iterations=1", "--set", "jobs.3.iterations=1",
            "--fabrics", "topoopt,fattree",
            "--json", str(out_path),
        ])
        assert code == 0
        assert "fattree" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"topoopt", "fattree"}
        assert payload["topoopt"]["type"] == "scenario"

    def test_single_fabric_list_still_writes_mapping(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        out_path = tmp_path / "one.json"
        code = main([
            "scenario", "--preset", "shared",
            "--set", "jobs.0.iterations=1", "--set", "jobs.1.iterations=1",
            "--set", "jobs.2.iterations=1", "--set", "jobs.3.iterations=1",
            "--fabrics", "fattree",
            "--json", str(out_path),
        ])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        # --fabrics always yields the {kind: result} shape, even for a
        # single-name list.
        assert set(payload) == {"fattree"}
        assert payload["fattree"]["type"] == "scenario"

    def test_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        spec = shared_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["scenario", "--spec", str(path)]) == 0
        assert "cluster" in capsys.readouterr().out

    def test_bad_usage(self, capsys):
        from repro.cli import main

        assert main(["scenario"]) == 2
        assert main([
            "scenario", "--preset", "shared", "--set", "policy=bogus",
        ]) == 2
        capsys.readouterr()
