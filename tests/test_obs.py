"""Tests for the observability plane: tracer, report, exporters.

Covers the zero-overhead-when-disabled contract, span nesting and
ordering, the batching span's deferred materialization, RLE timelines,
the merged ObsReport schema, both exporters, observing a scenario or
an experiment under ``TRACER.recording()`` (byte-identical results,
the report built from the recorder), the service
executor's request spans, and the percentile edge cases the serving
metrics rely on.
"""

import json
import math
import threading

import pytest

from repro.api import (
    ClusterSpec,
    ExperimentSpec,
    FabricSpec,
    OptimizerSpec,
    WorkloadSpec,
    run_experiment,
)
from repro.cluster import ScenarioSpec, run_scenario
from repro.obs import (
    ObsReport,
    RleTimeline,
    SpanEvent,
    TRACER,
    TraceRecorder,
    chrome_trace,
    metrics_jsonl,
)
from repro.obs.export import SIM_PID, WALL_PID
from repro.perf import warmcache
from repro.service.metrics import LatencyRecorder, percentile


def observed_spec(**overrides):
    """The Figure 16 preset shrunk to 2 iterations per job."""
    spec = ScenarioSpec.preset("shared").with_overrides(
        {f"jobs.{i}.iterations": 2 for i in range(4)}
    )
    return spec.with_overrides(overrides) if overrides else spec


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert TRACER.enabled is False
        assert TRACER.recorder is None

    def test_disabled_span_is_shared_noop(self):
        first = TRACER.span("anything", cat="x", arg=1)
        second = TRACER.span("else")
        assert first is second  # one shared object, no allocation
        with first:
            pass  # usable as a context manager

    def test_disabled_batch_span_is_shared_noop(self):
        assert TRACER.batch_span("hot") is TRACER.span("cold")

    def test_disabled_metrics_are_noops(self):
        TRACER.count("nope")
        TRACER.gauge("nope", 1.0)
        TRACER.sample("nope", 0.0, 1.0)
        assert TRACER.recorder is None


class TestSpanNesting:
    def test_depth_and_seq_follow_call_structure(self):
        with TRACER.recording() as rec:
            with TRACER.span("outer", cat="t"):
                with TRACER.span("inner-a", cat="t"):
                    pass
                with TRACER.span("inner-b", cat="t"):
                    with TRACER.span("leaf", cat="t"):
                        pass
        by_seq = sorted(rec.spans, key=lambda s: s.seq)
        # seq is stamped at *enter* time, so it reflects call order,
        # while the spans list holds completion order.
        assert [s.name for s in by_seq] == [
            "outer", "inner-a", "inner-b", "leaf",
        ]
        assert {s.name: s.depth for s in by_seq} == {
            "outer": 0, "inner-a": 1, "inner-b": 1, "leaf": 2,
        }
        assert [s.name for s in rec.spans] == [
            "inner-a", "leaf", "inner-b", "outer",
        ]

    def test_depth_restored_after_exit(self):
        with TRACER.recording() as rec:
            with TRACER.span("first"):
                pass
            with TRACER.span("second"):
                pass
        assert [s.depth for s in rec.spans] == [0, 0]

    def test_span_times_are_ordered(self):
        with TRACER.recording() as rec:
            with TRACER.span("outer"):
                with TRACER.span("inner"):
                    pass
        inner, outer = rec.spans
        assert inner.start_s >= outer.start_s
        assert inner.dur_s <= outer.dur_s
        assert all(s.dur_s >= 0.0 for s in rec.spans)

    def test_span_args_recorded(self):
        with TRACER.recording() as rec:
            with TRACER.span("named", cat="t", job=3, phase="warm"):
                pass
        assert rec.spans[0].args == {"job": 3, "phase": "warm"}
        assert rec.spans[0].cat == "t"

    def test_recording_restores_previous_recorder(self):
        outer_rec = TraceRecorder()
        with TRACER.recording(outer_rec):
            with TRACER.recording() as inner_rec:
                assert TRACER.recorder is inner_rec
                TRACER.count("inner.only")
            assert TRACER.recorder is outer_rec
            TRACER.count("outer.only")
        assert TRACER.recorder is None
        assert "inner.only" not in outer_rec.counters
        assert outer_rec.counters["outer.only"] == 1

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with TRACER.recording():
                raise RuntimeError("boom")
        assert TRACER.recorder is None


class TestBatchSpan:
    def test_materializes_at_flush(self):
        with TRACER.recording() as rec:
            hot = TRACER.batch_span("hot.loop", cat="bench")
            for _ in range(5):
                with hot:
                    pass
            assert rec.spans == []  # nothing recorded in-loop
            rec.flush()
        assert len(rec.spans) == 5
        assert {s.name for s in rec.spans} == {"hot.loop"}
        assert {s.cat for s in rec.spans} == {"bench"}
        assert all(isinstance(s, SpanEvent) for s in rec.spans)

    def test_flush_is_idempotent(self):
        with TRACER.recording() as rec:
            hot = TRACER.batch_span("hot")
            with hot:
                pass
            rec.flush()
            rec.flush()
        assert len(rec.spans) == 1

    def test_inherits_ambient_depth(self):
        with TRACER.recording() as rec:
            with TRACER.span("outer"):
                hot = TRACER.batch_span("nested.hot")
                with hot:
                    pass
            rec.flush()
        depths = {s.name: s.depth for s in rec.spans}
        assert depths["nested.hot"] == depths["outer"] + 1


class TestCountersGaugesTimelines:
    def test_counters_accumulate(self):
        with TRACER.recording() as rec:
            TRACER.count("events")
            TRACER.count("events", 2)
            TRACER.count("bytes", 0.5)
        assert rec.counters == {"events": 3, "bytes": 0.5}

    def test_gauges_keep_last_value(self):
        with TRACER.recording() as rec:
            TRACER.gauge("level", 1.0)
            TRACER.gauge("level", 4.0)
        assert rec.gauges == {"level": 4.0}

    def test_sample_is_run_length_encoded(self):
        with TRACER.recording() as rec:
            for t, v in [(0.0, 1.0), (1.0, 1.0), (2.0, 0.5), (3.0, 0.5)]:
                TRACER.sample("util", t, v)
        assert rec.timelines["util"].to_list() == [[0.0, 1.0], [2.0, 0.5]]
        assert len(rec.timelines["util"]) == 2

    def test_concurrent_bumps_do_not_lose_counts(self):
        rec = TraceRecorder()
        with TRACER.recording(rec):
            threads = [
                threading.Thread(
                    target=lambda: [TRACER.count("hits") for _ in range(500)]
                )
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert rec.counters["hits"] == 2000


class TestPercentileEdges:
    def test_empty_input_maps_to_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_dominates_every_quantile(self):
        assert percentile([7.5], 0.01) == 7.5
        assert percentile([7.5], 1.0) == 7.5

    def test_p0_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0, 2.0], 0.0)

    def test_above_p100_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0, 2.0], 1.5)

    def test_p100_is_max(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 1.0) == 4.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, float("nan")], 0.5)

    def test_nearest_rank_median(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0

    def test_latency_recorder_snapshot_keys(self):
        recorder = LatencyRecorder()
        for ms in (1, 2, 3):
            recorder.record(ms / 1e3)
        snap = recorder.snapshot()
        assert sorted(snap) == ["p50_ms", "p95_ms", "p99_ms"]
        assert snap["p50_ms"] == 2.0
        assert not any(math.isnan(v) for v in snap.values())


class TestObsReport:
    def test_roundtrip(self):
        with TRACER.recording() as rec:
            with TRACER.span("work", cat="t"):
                TRACER.count("things", 2)
                TRACER.gauge("level", 1.5)
                TRACER.sample("tl", 0.0, 1.0)
        report = ObsReport.build(rec)
        data = report.to_dict()
        again = ObsReport.from_dict(json.loads(json.dumps(data)))
        assert again.to_dict() == data
        assert again.counters == {"things": 2}
        assert again.gauges == {"level": 1.5}
        assert again.timelines == {"tl": [[0.0, 1.0]]}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ObsReport.from_dict({"spans": {}, "bogus": 1})

    def test_build_flushes_deferred_producers(self):
        with TRACER.recording() as rec:
            hot = TRACER.batch_span("deferred")
            with hot:
                pass
            report = ObsReport.build(rec)
        assert report.spans["deferred"]["count"] == 1

    def test_span_summary_aggregates(self):
        with TRACER.recording() as rec:
            for _ in range(3):
                with TRACER.span("repeat"):
                    pass
        summary = ObsReport.build(rec).spans["repeat"]
        assert summary["count"] == 3
        assert summary["total_s"] >= summary["max_s"] >= 0.0

    def test_format_lines_rank_hottest_first(self):
        with TRACER.recording() as rec:
            TRACER.count("scheduler.admit", 4)
        report = ObsReport.build(rec)
        lines = report.format_lines()
        assert lines[0] == "observability report"
        assert any("scheduler.admit" in line for line in lines)


class TestExporters:
    def build_recorder(self):
        rec = TraceRecorder()
        with TRACER.recording(rec):
            with TRACER.span("outer", cat="t", tag="x"):
                with TRACER.span("inner", cat="t"):
                    pass
            hot = TRACER.batch_span("hot", cat="t")
            with hot:
                pass
            TRACER.count("events", 2)
            TRACER.gauge("level", 1.0)
            TRACER.sample("util", 0.0, 0.25)
            TRACER.sample("util", 2.0, 0.75)
        return rec

    def test_chrome_trace_structure(self):
        trace = chrome_trace(self.build_recorder())
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        metadata = [e for e in events if e["ph"] == "M"]
        # Batched spans materialize too: the exporter flushes first.
        assert {e["name"] for e in spans} == {"outer", "inner", "hot"}
        assert all(e["pid"] == WALL_PID for e in spans)
        assert [e["args"]["value"] for e in counters] == [0.25, 0.75]
        assert all(e["pid"] == SIM_PID for e in counters)
        assert len(metadata) == 2
        assert trace["otherData"]["counters"] == {"events": 2}
        json.dumps(trace)  # JSON-serializable end to end

    def test_chrome_trace_spans_sorted_by_start(self):
        trace = chrome_trace(self.build_recorder())
        starts = [e["ts"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert starts == sorted(starts)

    def test_metrics_jsonl_lines_parse(self):
        stream = metrics_jsonl(self.build_recorder())
        lines = [json.loads(line) for line in stream.splitlines()]
        kinds = {line["kind"] for line in lines}
        assert kinds == {"span", "counter", "gauge", "timeline"}
        spans = [line for line in lines if line["kind"] == "span"]
        assert {s["name"] for s in spans} == {"outer", "inner", "hot"}
        timeline = [line for line in lines if line["kind"] == "timeline"]
        assert [(p["t"], p["value"]) for p in timeline] == [
            (0.0, 0.25), (2.0, 0.75),
        ]

    def test_empty_recorder_exports_cleanly(self):
        rec = TraceRecorder()
        assert chrome_trace(rec)["traceEvents"][0]["ph"] == "M"
        assert metrics_jsonl(rec) == ""


def observe_scenario(spec):
    """``run_scenario(spec)`` under a fresh recorder: (result, report)."""
    with TRACER.recording() as rec:
        result = run_scenario(spec)
    return result, ObsReport.build(rec)


class TestScenarioObservation:
    def test_observed_result_byte_identical(self):
        # Same spec with and without a recorder: observation must not
        # perturb the simulation (the bench-smoke gate's contract).
        spec = observed_spec()
        plain = run_scenario(spec)
        observed, report = observe_scenario(spec)
        assert (
            json.dumps(plain.to_dict(), sort_keys=True)
            == json.dumps(observed.to_dict(), sort_keys=True)
        )
        assert report.spans["engine.step"]["count"] > 0

    def test_obs_stays_off_json(self):
        # The trace lives in the recorder, never on the result.
        observed, _ = observe_scenario(observed_spec())
        assert not hasattr(observed, "obs")
        assert '"obs"' not in json.dumps(observed.to_dict())

    def test_report_covers_hot_planes(self):
        # Cold caches, so the (cache-miss-only) pipeline-build span fires.
        warmcache.clear_all()
        obs = observe_scenario(observed_spec())[1].to_dict()
        span_names = set(obs["spans"])
        assert "engine.step" in span_names  # batched, flushed at build
        assert "flow.solve" in span_names
        assert "engine.pipeline_build" in span_names
        assert any(name.startswith("scheduler.") for name in obs["counters"])
        assert any(
            name.startswith("link_util.") for name in obs["timelines"]
        )
        assert "cluster.busy_servers" in obs["timelines"]
        assert obs["gauges"]["engine.sim_now_s"] > 0.0
        assert set(obs["warmcache"]) == {"costmodel", "pipeline"}

    def test_report_counts_memo_hits(self):
        # Every job runs two iterations on its own shard, so the second
        # replays the first's active masks from its template's memo.
        warmcache.clear_all()
        report = observe_scenario(observed_spec())[1]
        hits = report.counters["flow.solve_memo_hits"]
        assert 0 < hits < report.spans["flow.solve"]["count"]

    def test_explicit_recorder_receives_the_run(self):
        rec = TraceRecorder()
        with TRACER.recording(rec):
            run_scenario(observed_spec())
        rec.flush()
        assert any(s.name == "engine.step" for s in rec.spans)

    def test_ambient_recorder_leaves_result_unreported(self):
        # The library opens no span of its own around the run: the
        # caller's recorder sees only the engine's inner spans.
        rec = TraceRecorder()
        with TRACER.recording(rec):
            result = run_scenario(observed_spec())
        assert not hasattr(result, "obs")
        rec.flush()
        assert any(s.name == "flow.solve" for s in rec.spans)
        assert not any(s.name == "engine.run_scenario" for s in rec.spans)

    def test_utilization_timeline_values_bounded(self):
        obs = observe_scenario(observed_spec())[1].to_dict()
        for name, points in obs["timelines"].items():
            if not name.startswith("link_util."):
                continue
            assert points, f"{name} has no samples"
            for t, value in points:
                assert t >= 0.0
                assert 0.0 <= value


class TestExperimentObservation:
    def test_traced_run_byte_identical_and_spanned(self):
        spec = ExperimentSpec(
            name="traced",
            workload=WorkloadSpec(model="DLRM", scale="shared"),
            cluster=ClusterSpec(servers=8, degree=4, bandwidth_gbps=100.0),
            fabric=FabricSpec(kind="topoopt"),
            optimizer=OptimizerSpec(
                strategy="mcmc", rounds=1, mcmc_iterations=10
            ),
            baselines=(FabricSpec(kind="fattree"),),
        )
        plain = run_experiment(spec)
        with TRACER.recording() as rec:
            traced = run_experiment(spec)
        assert (
            json.dumps(plain.to_dict(), sort_keys=True)
            == json.dumps(traced.to_dict(), sort_keys=True)
        )
        names = [s.name for s in rec.spans]
        assert names.count("experiment.prepare") == 1
        timed = [s for s in rec.spans if s.name == "experiment.time_fabric"]
        assert [s.args for s in timed] == [{"kind": "topoopt"}]


class TestWarmcacheStats:
    def test_stats_are_deep_snapshots(self):
        cache = warmcache.WarmCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        before = cache.stats()
        cache.get_or_build("a", lambda: "A")
        assert before["hits"] == 0  # snapshot detached from live cache
        assert cache.stats()["hits"] == 1

    def test_reset_stats_keeps_entries_warm(self):
        cache = warmcache.WarmCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.reset_stats()
        assert len(cache) == 1
        assert cache.stats()["misses"] == 0
        calls = []
        cache.get_or_build("a", lambda: calls.append(1) or "A")
        assert calls == []  # still warm: no rebuild after reset

    def test_module_reset_stats_zeroes_all_caches(self):
        warmcache.PIPELINE_CACHE.get_or_build("obs-test", lambda: object())
        warmcache.reset_stats()
        stats = warmcache.stats()
        assert all(
            entry["hits"] == 0 and entry["misses"] == 0
            for entry in stats.values()
        )
        warmcache.PIPELINE_CACHE.clear()
