"""Concurrent, deduplicating batch executor over the experiment API.

:class:`BatchExecutor` is the serving loop in front of
:func:`repro.api.runner.run_experiment` and
:func:`repro.cluster.engine.run_scenario`: submissions come in as
specs (experiment or scenario, distinguished structurally), and every
request is served exactly one of three ways:

1. **store-first admission** -- if the spec's content hash is in the
   :class:`~repro.service.store.ResultStore`, the stored result is
   returned without touching the pool;
2. **in-flight deduplication** -- if an identical spec is already
   being computed, the new request coalesces onto that computation's
   future (the ``deduplicated`` counter proves concurrent duplicates
   compute exactly once);
3. **computation** -- otherwise the spec is dispatched to a worker
   pool, bounded by ``queue_depth`` in-flight computations
   (``submit`` blocks when the bound is reached: backpressure, not an
   unbounded queue).

Failure handling (the sweep knobs ``point_timeout_s`` / ``retries``;
:func:`repro.api.runner.run_sweep` is a client of this executor): an
exception *inside* a request is deterministic and fails the request
immediately, while a worker that crashes or overruns
``point_timeout_s`` is resubmitted -- same payload -- up to
``retries`` more times before the request fails.  A crashed process
pool, or any pool holding a timed-out computation, is retired: new
work goes to a fresh pool at once, and :meth:`BatchExecutor.shutdown`
waits on no retired pool -- a timed-out thread is abandoned (threads
cannot be killed), a timed-out process worker is terminated.
Timeouts need a real pool (the serial path runs inline).

Workers share compiled-kernel state the same way the scenario engine
does: each pool worker owns the process-wide warm caches of
:mod:`repro.perf.warmcache`, optionally pre-populated via
``warm_specs`` (the pool initializer runs them once per worker), and
every computation ships its worker's cache counters back so
:meth:`BatchExecutor.report` can export them into the
:class:`~repro.service.metrics.ServiceReport`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import TRACER, SpanEvent
from repro.service.metrics import (
    LatencyRecorder,
    ServiceCounters,
    ServiceReport,
)
from repro.service.store import ResultStore

#: Worker-pool kinds ``BatchExecutor`` accepts (mirrors ``run_sweep``).
EXECUTOR_KINDS = ("process", "thread", "serial")

#: How a request was served; stamped on every :class:`ServiceRequest`.
ROUTES = ("store", "dedup", "compute")


class ServiceError(RuntimeError):
    """A request failed to produce a result (after any retries)."""


# ----------------------------------------------------------------------
# Worker-side entry points (module level: they must pickle)
# ----------------------------------------------------------------------

def spec_from_request(data: Mapping[str, Any]):
    """Build the right spec type from one raw request mapping.

    Scenario specs are recognized structurally (only they have an
    ``arrivals`` process), the same dispatch the sweep machinery uses.
    """
    if "arrivals" in data:
        from repro.cluster.spec import ScenarioSpec

        return ScenarioSpec.from_dict(data)
    from repro.api.spec import ExperimentSpec

    return ExperimentSpec.from_dict(data)


def _cache_snapshot() -> Dict[str, Any]:
    """This worker's warm-cache counters, tagged by pid."""
    from repro.perf import warmcache

    snapshot: Dict[str, Any] = {"pid": os.getpid()}
    for name, stats in warmcache.stats().items():
        for key, value in stats.items():
            snapshot[f"{name}_{key}"] = value
    return snapshot


def _service_compute(payload: Dict[str, Any]) -> Tuple[str, Any, Dict]:
    """Run one request in a worker; never raises.

    Returns ``("ok", result, cache_stats)`` or ``("error", message,
    cache_stats)`` -- in-request exceptions are data, so the executor
    can tell a deterministic failure (no retry) from a pool-level
    casualty (raised by ``future.result``, retried).
    """
    try:
        spec = spec_from_request(payload)
        if hasattr(spec, "arrivals"):
            from repro.cluster.engine import run_scenario

            result = run_scenario(spec)
        else:
            from repro.api.runner import run_experiment

            result = run_experiment(spec)
        return ("ok", result, _cache_snapshot())
    except Exception as error:
        return (
            "error", f"{type(error).__name__}: {error}", _cache_snapshot()
        )


def _worker_warmup(payloads: Sequence[Dict[str, Any]]) -> None:
    """Pool initializer: pre-populate this worker's warm caches."""
    for payload in payloads:
        _service_compute(payload)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

@dataclass
class ServiceRequest:
    """One accepted submission: its key, route, and pending future."""

    key: str
    route: str
    future: Future
    #: Pool submissions its computation took, retries included (0 for
    #: a store hit); final once ``future`` is done.
    attempts: int = field(default=0, init=False)

    def result(self, timeout: Optional[float] = None):
        """The typed result (blocks); raises :class:`ServiceError`."""
        return self.future.result(timeout)

    @property
    def ok(self) -> bool:
        return (
            self.future.done() and self.future.exception() is None
        )


@dataclass
class _Computation:
    """One unique in-flight spec and everyone waiting on it."""

    key: str
    spec: object
    payload: Dict[str, Any]
    #: ``(request, submit_monotonic)`` pairs; appended under the
    #: executor lock, drained exactly once at resolution.
    waiters: List[Tuple[ServiceRequest, float]] = field(
        default_factory=list
    )
    #: Pool submissions so far (the retry loop's counter).
    attempts: int = field(default=0, init=False)


class BatchExecutor:
    """Multiplex spec submissions over a pool with memoization + dedup.

    Parameters mirror :func:`repro.api.runner.run_sweep` where they
    overlap: ``executor`` picks the pool kind, ``max_workers`` its
    width, and ``point_timeout_s``/``retries`` buy PR 8's crash/hang
    containment per request.  ``store`` (optional) is consulted before
    any computation and updated after every successful one;
    ``queue_depth`` bounds concurrently admitted computations --
    ``submit`` blocks past it.  Usable as a context manager.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        max_workers: Optional[int] = None,
        executor: str = "process",
        queue_depth: int = 64,
        point_timeout_s: Optional[float] = None,
        retries: int = 0,
        warm_specs: Sequence[object] = (),
    ):
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; use one of "
                f"{EXECUTOR_KINDS}"
            )
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._store = store
        self._kind = executor
        self._max_workers = max_workers or min(os.cpu_count() or 4, 8)
        self._queue_depth = queue_depth
        self.point_timeout_s = point_timeout_s
        self.retries = retries
        self._warm_payloads = [
            spec.to_dict() for spec in warm_specs
        ]
        self.counters = ServiceCounters()
        self.latencies = LatencyRecorder()
        self._lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._inflight: Dict[str, _Computation] = {}
        self._sema = threading.BoundedSemaphore(queue_depth)
        self._threads: List[threading.Thread] = []
        #: Worker processes of retired pools (see :meth:`_retire_pool`).
        self._orphans: List[Any] = []
        self._worker_caches: Dict[int, Dict[str, Any]] = {}
        self._shutdown = False
        self._started = time.monotonic()
        self._pool = None
        if self._kind != "serial":
            self._pool = self._make_pool()
        elif self._warm_payloads:
            _worker_warmup(self._warm_payloads)

    # -- pool plumbing -------------------------------------------------
    def _make_pool(self):
        if self._kind == "process":
            if self._warm_payloads:
                return ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_worker_warmup,
                    initargs=(self._warm_payloads,),
                )
            return ProcessPoolExecutor(max_workers=self._max_workers)
        # One shared process: warm synchronously, once.
        if self._warm_payloads:
            _worker_warmup(self._warm_payloads)
            self._warm_payloads = []
        return ThreadPoolExecutor(max_workers=self._max_workers)

    def _retire_pool(self, pool) -> None:
        """Send new work to a fresh pool; nobody waits on ``pool``.

        Called when ``pool`` crashed (process pools) or holds a
        timed-out computation.  Work already on it runs on (a crashed
        process pool has none left), but :meth:`shutdown` waits on none
        of it: a retired pool's threads are abandoned and its processes
        terminated.
        """
        with self._pool_lock:
            if self._shutdown or self._pool is not pool:
                return  # already retired by a concurrent failure
            self._pool = self._make_pool()
            # Snapshot now: a pool's shutdown drops its process table.
            processes = getattr(pool, "_processes", None) or {}
            self._orphans.extend(processes.values())
        pool.shutdown(wait=False)

    def _submit_to_pool(self, payload: Dict[str, Any]):
        """``(pool, future)`` of one computation attempt."""
        if self._kind == "serial":
            done: Future = Future()
            done.set_result(_service_compute(payload))
            return None, done
        with self._pool_lock:
            if self._shutdown or self._pool is None:
                raise RuntimeError("executor is shut down")
            return self._pool, self._pool.submit(_service_compute, payload)

    # -- submission ----------------------------------------------------
    def submit(self, spec) -> ServiceRequest:
        """Admit one spec; returns immediately unless backpressured.

        The returned request's future resolves to the typed result
        (`ExperimentResult` / `ScenarioResult`) or raises
        :class:`ServiceError`.  ``route`` records how it was served.
        """
        if self._shutdown:
            raise RuntimeError("executor is shut down")
        started = time.monotonic()
        key = spec.content_hash()
        self.counters.bump("requests")

        attached = self._attach_if_inflight(key, started)
        if attached is not None:
            return attached
        if self._store is not None:
            cached = self._store.get(spec)
            if cached is not None:
                self.counters.bump("store_hits")
                elapsed = time.monotonic() - started
                self.latencies.record(elapsed)
                self._trace_request(key, "store", elapsed)
                future: Future = Future()
                future.set_result(cached)
                return ServiceRequest(key=key, route="store", future=future)

        # Miss: become (or join) the computation.  The semaphore is the
        # bounded queue -- blocking here is the backpressure.
        self._sema.acquire()
        attached = self._attach_if_inflight(key, started, release=True)
        if attached is not None:
            return attached
        request = ServiceRequest(key=key, route="compute", future=Future())
        comp = _Computation(
            key=key,
            spec=spec,
            payload=spec.to_dict(),
            waiters=[(request, started)],
        )
        with self._lock:
            self._inflight[key] = comp
        self.counters.bump("computed")
        if self._kind == "serial":
            self._run_computation(comp)
        else:
            thread = threading.Thread(
                target=self._run_computation, args=(comp,), daemon=True
            )
            self._threads.append(thread)
            thread.start()
        return request

    def _attach_if_inflight(
        self, key: str, started: float, release: bool = False
    ) -> Optional[ServiceRequest]:
        """Coalesce onto an in-flight duplicate, if there is one."""
        with self._lock:
            comp = self._inflight.get(key)
            if comp is None:
                return None
            request = ServiceRequest(key=key, route="dedup", future=Future())
            comp.waiters.append((request, started))
        if release:
            self._sema.release()
        self.counters.bump("deduplicated")
        return request

    def drain(self, specs: Sequence[object]) -> List[ServiceRequest]:
        """Submit every spec, wait for all, return requests in order."""
        requests = [self.submit(spec) for spec in specs]
        for request in requests:
            try:
                request.future.result()
            except ServiceError:
                pass  # recorded on the request; the caller inspects it
        return requests

    # -- computation lifecycle ----------------------------------------
    def _run_computation(self, comp: _Computation) -> None:
        """Compute one unique spec with timeout/retry containment."""
        last_error = "ServiceError: no attempt ran"
        while comp.attempts <= self.retries:
            comp.attempts += 1
            if comp.attempts > 1:
                self.counters.bump("retries")
            try:
                pool, pool_future = self._submit_to_pool(comp.payload)
            except RuntimeError as error:
                last_error = str(error)
                break
            try:
                outcome = pool_future.result(
                    timeout=self.point_timeout_s
                )
            except FuturesTimeoutError:
                self.counters.bump("timeouts")
                pool_future.cancel()
                self._retire_pool(pool)
                last_error = (
                    f"TimeoutError: request exceeded point_timeout_s="
                    f"{self.point_timeout_s:g}"
                )
                continue
            except Exception as error:
                # The worker died, not the request: retry (on a fresh
                # pool if the process pool broke).
                last_error = f"{type(error).__name__}: {error}"
                if self._kind == "process":
                    self._retire_pool(pool)
                continue
            status, value, cache_stats = outcome
            self._note_worker_cache(cache_stats)
            if status == "ok":
                self._resolve(comp, value)
                return
            # In-request failure: deterministic, retrying cannot help.
            last_error = value
            break
        self._fail(comp, last_error)

    def _resolve(self, comp: _Computation, result) -> None:
        if self._store is not None:
            self._store.put(comp.spec, result)
        waiters = self._detach(comp)
        now = time.monotonic()
        for index, (request, started) in enumerate(waiters):
            elapsed = now - started
            self.latencies.record(elapsed)
            self._trace_request(
                comp.key, "compute" if index == 0 else "dedup", elapsed
            )
            request.attempts = comp.attempts
            request.future.set_result(result)

    def _fail(self, comp: _Computation, message: str) -> None:
        self.counters.bump("errors")
        waiters = self._detach(comp)
        now = time.monotonic()
        for index, (request, started) in enumerate(waiters):
            elapsed = now - started
            self.latencies.record(elapsed)
            self._trace_request(
                comp.key,
                "compute" if index == 0 else "dedup",
                elapsed,
                error=True,
            )
            request.attempts = comp.attempts
            request.future.set_exception(ServiceError(message))

    def _trace_request(
        self,
        key: str,
        route: str,
        elapsed_s: float,
        error: bool = False,
    ) -> None:
        """Mirror one finished request into the active trace, if any.

        Requests resolve asynchronously, so the span is recorded whole
        at completion: the duration is exactly what went into the
        :class:`LatencyRecorder`, and the start is back-dated from the
        recorder's clock.  No-op (no allocation) when tracing is off.
        """
        recorder = TRACER.recorder
        if recorder is None:
            return
        end = recorder.now()
        recorder.add_span(
            SpanEvent(
                name="service.request",
                cat="service",
                start_s=max(end - elapsed_s, 0.0),
                dur_s=elapsed_s,
                depth=0,
                tid=threading.get_ident(),
                seq=recorder.next_seq(),
                args={"route": route, "key": key[:12], "error": error},
            )
        )
        recorder.bump(f"service.route.{route}")
        if error:
            recorder.bump("service.errors")

    def _detach(
        self, comp: _Computation
    ) -> List[Tuple[ServiceRequest, float]]:
        """Retire a computation; late duplicates go to the store."""
        with self._lock:
            self._inflight.pop(comp.key, None)
            waiters = list(comp.waiters)
        self._sema.release()
        return waiters

    def _note_worker_cache(self, stats: Mapping[str, Any]) -> None:
        pid = int(stats.get("pid", 0))
        with self._lock:
            self._worker_caches[pid] = dict(stats)

    # -- reporting and teardown ---------------------------------------
    def worker_cache_stats(self) -> Dict[str, Any]:
        """Warm-cache counters summed over the latest per-worker view."""
        with self._lock:
            snapshots = list(self._worker_caches.values())
        totals: Dict[str, Any] = {"workers": len(snapshots)}
        for snapshot in snapshots:
            for key, value in snapshot.items():
                if key == "pid":
                    continue
                totals[key] = totals.get(key, 0) + value
        return totals

    def report(self, wall_s: Optional[float] = None) -> ServiceReport:
        """Snapshot everything into a :class:`ServiceReport`.

        ``wall_s`` defaults to the executor's lifetime so far, which is
        the right denominator for drain-style batch runs.
        """
        if wall_s is None:
            wall_s = time.monotonic() - self._started
        return ServiceReport.build(
            self.counters,
            self.latencies,
            wall_s=wall_s,
            store_stats=(
                self._store.stats() if self._store is not None else None
            ),
            warm_cache=self.worker_cache_stats(),
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; ``wait`` for in-flight computations.

        Retired pools are never waited on: their threads are abandoned
        and their processes terminated, so a hung worker cannot wedge
        shutdown or outlive it.
        """
        self._shutdown = True
        if wait:
            for thread in list(self._threads):
                thread.join()
        with self._pool_lock:
            pool, self._pool = self._pool, None
            orphans, self._orphans = self._orphans, []
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)
        for process in orphans:
            process.terminate()
            process.join()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
