"""Tests for the deduplicating batch executor and service metrics."""

import threading
import time

import pytest

import repro.api.runner as runner_mod
from repro.api.runner import run_experiment
from repro.service import (
    BatchExecutor,
    ResultStore,
    ServiceCounters,
    ServiceError,
    ServiceReport,
    percentile,
)

from test_service_store import cheap_spec


@pytest.fixture(scope="module")
def real_result():
    """One real result to hand back from fake compute functions."""
    return run_experiment(cheap_spec())


class TestDeduplication:
    def test_concurrent_duplicates_compute_exactly_once(
        self, monkeypatch, real_result
    ):
        """The acceptance criterion: N identical in-flight submissions
        coalesce onto one computation, proven by the counters."""
        calls = []

        def slow_compute(spec):
            calls.append(spec.content_hash())
            time.sleep(0.2)
            return real_result

        monkeypatch.setattr(runner_mod, "run_experiment", slow_compute)
        spec = cheap_spec()
        with BatchExecutor(executor="thread", max_workers=4) as service:
            requests = [service.submit(spec) for _ in range(6)]
            results = [request.result() for request in requests]
            report = service.report()
        assert len(calls) == 1
        assert report.computed == 1
        assert report.deduplicated == 5
        assert report.requests == 6
        assert [request.route for request in requests] == (
            ["compute"] + ["dedup"] * 5
        )
        assert all(result is results[0] for result in results)

    def test_counters_partition_requests(self, monkeypatch, real_result):
        monkeypatch.setattr(
            runner_mod, "run_experiment", lambda spec: real_result
        )
        store = ResultStore()
        with BatchExecutor(store=store, executor="serial") as service:
            service.submit(cheap_spec(seed=0)).result()
            service.submit(cheap_spec(seed=0)).result()  # store hit
            service.submit(cheap_spec(seed=1)).result()
            report = service.report()
        assert report.requests == 3
        assert (
            report.store_hits + report.deduplicated + report.computed
            == report.requests
        )
        assert report.store_hits == 1
        assert report.computed == 2


class TestStoreFirstAdmission:
    def test_prepopulated_store_skips_the_pool(self, real_result):
        spec = cheap_spec()
        store = ResultStore()
        store.put(spec, real_result)

        with BatchExecutor(store=store, executor="serial") as service:
            request = service.submit(spec)
            assert request.route == "store"
            assert request.result() is real_result
            assert service.report().computed == 0

    def test_fresh_results_are_written_back(
        self, monkeypatch, real_result, tmp_path
    ):
        monkeypatch.setattr(
            runner_mod, "run_experiment", lambda spec: real_result
        )
        spec = cheap_spec()
        store = ResultStore(tmp_path)
        with BatchExecutor(store=store, executor="serial") as service:
            service.submit(spec).result()
        assert store.stats()["puts"] == 1
        assert ResultStore(tmp_path).contains(spec)


class TestFailureContainment:
    def test_in_request_error_fails_fast_no_retry(self, monkeypatch):
        """A deterministic in-request exception must not be retried --
        the same spec would just fail the same way again."""

        def broken(spec):
            raise RuntimeError("pipeline exploded")

        monkeypatch.setattr(runner_mod, "run_experiment", broken)
        with BatchExecutor(executor="serial", retries=3) as service:
            request = service.submit(cheap_spec())
            with pytest.raises(ServiceError, match="pipeline exploded"):
                request.result()
            report = service.report()
        assert report.errors == 1
        assert report.retries == 0

    def test_failed_key_leaves_no_stale_inflight_entry(
        self, monkeypatch, real_result
    ):
        attempts = []

        def flaky(spec):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first time hurts")
            return real_result

        monkeypatch.setattr(runner_mod, "run_experiment", flaky)
        spec = cheap_spec()
        with BatchExecutor(executor="serial") as service:
            with pytest.raises(ServiceError):
                service.submit(spec).result()
            # The failed computation must be retired, so a fresh
            # submission recomputes rather than joining a dead future.
            assert service.submit(spec).result() is real_result

    def test_timeout_then_retries_then_error(self, monkeypatch):
        def hang(spec):
            time.sleep(0.5)
            return None

        monkeypatch.setattr(runner_mod, "run_experiment", hang)
        with BatchExecutor(
            executor="thread", max_workers=2,
            point_timeout_s=0.05, retries=1,
        ) as service:
            request = service.submit(cheap_spec())
            with pytest.raises(ServiceError, match="point_timeout_s"):
                request.result()
            report = service.report()
        assert report.timeouts == 2  # initial attempt + one retry
        assert report.retries == 1
        assert report.errors == 1


class TestBackpressure:
    def test_queue_depth_bounds_admission(self, monkeypatch, real_result):
        """With queue_depth=1, a second distinct submission blocks
        until the first computation resolves -- bounded queue, not an
        unbounded submit firehose."""

        def slow_compute(spec):
            time.sleep(0.15)
            return real_result

        monkeypatch.setattr(runner_mod, "run_experiment", slow_compute)
        with BatchExecutor(
            executor="thread", max_workers=2, queue_depth=1
        ) as service:
            service.submit(cheap_spec(seed=0))
            started = time.monotonic()
            second = service.submit(cheap_spec(seed=1))
            blocked_s = time.monotonic() - started
            second.result()
        assert blocked_s >= 0.1

    def test_duplicates_do_not_consume_queue_slots(
        self, monkeypatch, real_result
    ):
        """Dedup waiters attach without acquiring the semaphore, so a
        hot key cannot deadlock a depth-1 queue."""

        def slow_compute(spec):
            time.sleep(0.15)
            return real_result

        monkeypatch.setattr(runner_mod, "run_experiment", slow_compute)
        spec = cheap_spec()
        with BatchExecutor(
            executor="thread", max_workers=2, queue_depth=1
        ) as service:
            started = time.monotonic()
            requests = [service.submit(spec) for _ in range(4)]
            submit_s = time.monotonic() - started
            for request in requests:
                request.result()
        assert submit_s < 0.1  # all four admitted while one computes


class TestRealPools:
    def test_process_pool_end_to_end(self):
        """Real process pool, real pipeline: dedup + store + warm-cache
        export all survive pickling."""
        spec = cheap_spec()
        other = cheap_spec(seed=1)
        store = ResultStore()
        with BatchExecutor(
            store=store, executor="process", max_workers=2,
        ) as service:
            requests = service.drain([spec, other, spec])
            report = service.report()
        assert all(req.future.exception() is None for req in requests)
        assert report.errors == 0
        assert report.computed + report.store_hits + report.deduplicated == 3
        assert report.computed <= 2
        assert report.warm_cache.get("workers", 0) >= 1

    def test_serial_executor_runs_inline(self):
        with BatchExecutor(executor="serial") as service:
            result = service.submit(cheap_spec()).result()
        assert result.spec.name == "store-test-0"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchExecutor(executor="fiber")
        with pytest.raises(ValueError):
            BatchExecutor(executor="serial", queue_depth=0)
        with pytest.raises(ValueError):
            BatchExecutor(executor="serial", retries=-1)

    def test_submit_after_shutdown_raises(self):
        service = BatchExecutor(executor="serial")
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.submit(cheap_spec())


class TestMetrics:
    def test_unknown_counter_rejected(self):
        counters = ServiceCounters()
        with pytest.raises(KeyError):
            counters.bump("cosmic_rays")

    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 0.0)

    def test_report_round_trips_and_formats(
        self, monkeypatch, real_result
    ):
        monkeypatch.setattr(
            runner_mod, "run_experiment", lambda spec: real_result
        )
        with BatchExecutor(
            store=ResultStore(), executor="serial"
        ) as service:
            service.drain([cheap_spec(), cheap_spec()])
            report = service.report()
        again = ServiceReport.from_dict(report.to_dict())
        assert again == report
        assert 0.0 <= report.hit_rate <= 1.0
        text = "\n".join(report.format_lines())
        assert "specs/s" in text and "p99" in text
