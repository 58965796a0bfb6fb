"""FailureManager composed with a running scenario (section 7).

Link cuts are declared as spec-level ``FaultEventSpec(kind="link")``
events: a transient and a permanent link failure mid-scenario, and the
repaired routing keeps jobs progressing.
"""

from dataclasses import replace

import pytest

from repro.cluster import (
    FaultEventSpec,
    FaultScheduleSpec,
    ScenarioSpec,
    run_scenario,
)


def with_link_cuts(spec, *cuts):
    """``spec`` with one ``kind="link"`` fault event per keyword dict."""
    events = tuple(FaultEventSpec(kind="link", **cut) for cut in cuts)
    return replace(spec, faults=FaultScheduleSpec(events=events))


def two_job_spec(iterations=6):
    spec = ScenarioSpec.preset("shared").with_overrides({
        "arrivals.times": [0.0, 0.0],
        "jobs.0.iterations": iterations,
        "jobs.1.iterations": iterations,
    })
    return spec


class TestFailuresMidScenario:
    def _baseline_period(self, spec):
        return run_scenario(spec).jobs[0].iteration_avg_s

    def test_transient_then_permanent_repair(self):
        spec = two_job_spec()
        period = self._baseline_period(spec)
        fail_t = 2.5 * period
        repair_t = 4.5 * period
        result = run_scenario(with_link_cuts(
            spec, dict(time_s=fail_t, job_index=0, repair_s=repair_t)
        ))
        # Both jobs still complete their full quota: the repaired
        # routing keeps them progressing.
        assert [job.iterations_completed for job in result.jobs] == [6, 6]

        kinds = [entry["kind"] for entry in result.failure_log]
        assert kinds == ["mp_detour", "port_swap"]
        detour = result.failure_log[0]
        assert detour["extra_hops"] >= 1

        times = result.jobs[0].iteration_times
        healthy = times[0]
        degraded = [
            t for i, t in enumerate(times)
            if fail_t <= sum(times[:i]) < repair_t
        ]
        # The detour stretches the broken ring edge over extra hops, so
        # iterations during the failure window run strictly slower ...
        assert degraded
        assert max(degraded) > healthy * 1.01
        # ... and the permanent port swap restores the original time.
        assert times[-1] == pytest.approx(healthy, rel=1e-6)

    def test_failure_isolated_to_failed_shard(self):
        spec = two_job_spec()
        base = run_scenario(spec)
        period = base.jobs[0].iteration_avg_s
        result = run_scenario(
            with_link_cuts(spec, dict(time_s=2.5 * period, job_index=0))
        )
        # Physical isolation: the other job's iteration times are
        # bit-identical with and without the neighbor's fiber cut.
        assert (
            result.jobs[1].iteration_times == base.jobs[1].iteration_times
        )

    def test_explicit_link_and_determinism(self):
        spec = two_job_spec(iterations=4)
        period = self._baseline_period(spec)
        faulted = with_link_cuts(
            spec, dict(time_s=1.5 * period, job_index=0, link=(0, 1))
        )
        first = run_scenario(faulted).to_dict()
        second = run_scenario(faulted).to_dict()
        assert first == second
        assert first["failure_log"][0]["link"] == [0, 1]

    def test_identical_templates_not_contaminated_by_cache(self):
        # Three jobs share one cached pipeline and shard flow set (same
        # template).  The failure patch must apply to a per-job copy of
        # the routing, not the shared cached fabric or flow set --
        # otherwise the healthy twin and every later admission inherit
        # the detour.
        spec = ScenarioSpec.preset("shared").with_overrides({
            "arrivals.times": [0.0, 0.05, 0.05],
            "jobs.0.model": "DLRM",
            "jobs.1.model": "DLRM",
            "jobs.2.model": "DLRM",
            "jobs.0.iterations": 6,
            "jobs.1.iterations": 6,
            "jobs.2.iterations": 6,
        })
        base = run_scenario(spec)
        period = base.jobs[0].iteration_avg_s
        result = run_scenario(
            with_link_cuts(spec, dict(time_s=1.5 * period, job_index=0))
        )
        assert result.failure_log[0]["kind"] == "mp_detour"
        # The unfailed twin's iterations are bit-identical to baseline.
        assert (
            result.jobs[1].iteration_times == base.jobs[1].iteration_times
        )
        # A third admission of the template after the fault runs the
        # template's flow set: bit-identical to the healthy twin.
        assert result.jobs[2].admitted_s > 1.5 * period
        assert (
            result.jobs[2].iteration_times == result.jobs[1].iteration_times
        )
        # And the failed job really did slow down.
        assert max(result.jobs[0].iteration_times) > period * 1.001

    def test_late_injection_logged_as_skipped(self):
        spec = two_job_spec(iterations=2)
        result = run_scenario(
            with_link_cuts(spec, dict(time_s=1e6, job_index=0))
        )
        entry = result.failure_log[0]
        assert entry["kind"] == "skipped"
        assert entry["reason"] == "scenario ended before link_fail time"
        assert entry["time_s"] == 1e6

    def test_repeated_failure_on_same_link_logged_not_raised(self):
        spec = two_job_spec()
        period = self._baseline_period(spec)
        result = run_scenario(with_link_cuts(
            spec,
            dict(time_s=1.5 * period, job_index=0),
            dict(time_s=2.5 * period, job_index=0),
        ))
        kinds = [entry["kind"] for entry in result.failure_log]
        assert kinds == ["mp_detour", "skipped"]
        assert "already failed" in result.failure_log[1]["reason"]
        assert [job.iterations_completed for job in result.jobs] == [6, 6]

    def test_nonexistent_link_logged_not_raised(self):
        spec = two_job_spec(iterations=2)
        period = self._baseline_period(spec)
        result = run_scenario(with_link_cuts(
            spec, dict(time_s=0.5 * period, job_index=0, link=(0, 0))
        ))
        assert result.failure_log[0]["kind"] == "skipped"
        assert [job.iterations_completed for job in result.jobs] == [2, 2]

    def test_failure_on_idle_job_is_skipped(self):
        spec = two_job_spec(iterations=2)
        result = run_scenario(
            with_link_cuts(spec, dict(time_s=0.0, job_index=99))
        )
        assert result.failure_log[0]["kind"] == "skipped"
        assert [job.iterations_completed for job in result.jobs] == [2, 2]

    def test_shared_fabric_failures_skipped(self):
        spec = two_job_spec(iterations=2).with_overrides(
            {"fabric.kind": "fattree"}
        )
        result = run_scenario(
            with_link_cuts(spec, dict(time_s=0.01, job_index=0))
        )
        assert result.failure_log[0]["kind"] == "skipped"
        assert "shard" in result.failure_log[0]["reason"]
