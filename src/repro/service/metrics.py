"""Typed service counters and the serialized ``ServiceReport``.

The serving layer (:mod:`repro.service.store`,
:mod:`repro.service.executor`) is instrumented through two small
mutable accumulators -- :class:`ServiceCounters` for event counts and
:class:`LatencyRecorder` for per-request latency samples -- that
snapshot into a frozen, JSON-serializable :class:`ServiceReport`.

The report is the service-mode analogue of a benchmark record: request
mix (hits / dedups / computes / errors), throughput in specs per
second, and the p50/p95/p99 latency tail, plus the store's and the
warm caches' own counters so one object answers "what did the service
actually do".

Doctest tour::

    >>> from repro.service.metrics import LatencyRecorder, ServiceCounters
    >>> counters = ServiceCounters()
    >>> counters.bump("store_hits"); counters.bump("requests", 2)
    >>> counters.as_dict()["store_hits"], counters.as_dict()["requests"]
    (1, 2)
    >>> recorder = LatencyRecorder()
    >>> for ms in (1, 2, 3, 4, 100): recorder.record(ms / 1e3)
    >>> recorder.percentile(0.5)
    0.003
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.codec import Record

#: Counter names a :class:`ServiceCounters` accumulates.  One place, so
#: the executor, the report, and the tests agree on the vocabulary.
COUNTER_NAMES = (
    "requests",        # submissions accepted by the executor
    "store_hits",      # served straight from the result store
    "deduplicated",    # coalesced onto an already-in-flight computation
    "computed",        # computations actually launched (unique misses)
    "errors",          # computations that ended in an error
    "timeouts",        # per-request timeout expiries (before any retry)
    "retries",         # resubmissions after a crash or timeout
)


class ServiceCounters:
    """Thread-safe event counters for the serving layer."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def bump(self, name: str, amount: int = 1) -> None:
        if name not in self._counts:
            raise KeyError(
                f"unknown service counter {name!r}; "
                f"known: {sorted(self._counts)}"
            )
        with self._lock:
            self._counts[name] += amount

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``samples`` by the nearest-rank method.

    Deterministic and exact on small sample sets (no interpolation), so
    reports are reproducible down to the byte.  ``samples`` need not be
    sorted; an empty sequence maps to 0.0.  NaN samples are rejected --
    they would sort unpredictably and silently poison the rank.

    >>> percentile([4.0, 1.0, 3.0, 2.0], 0.5)
    2.0
    >>> percentile([4.0, 1.0, 3.0, 2.0], 0.99)
    4.0
    >>> percentile([], 0.5)
    0.0
    >>> percentile([7.5], 1.0)
    7.5
    >>> percentile([1.0, float("nan")], 0.5)
    Traceback (most recent call last):
        ...
    ValueError: samples must not contain NaN
    """
    if not samples:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    if any(math.isnan(sample) for sample in samples):
        raise ValueError("samples must not contain NaN")
    ordered = sorted(samples)
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[rank]


class LatencyRecorder:
    """Per-request latency samples with percentile snapshots."""

    def __init__(self):
        self._lock = threading.Lock()
        self._samples: List[float] = []

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentile(self, q: float) -> float:
        with self._lock:
            return percentile(self._samples, q)

    def snapshot(self) -> Dict[str, float]:
        """The p50/p95/p99 tail in milliseconds, rounded for JSON."""
        with self._lock:
            samples = list(self._samples)
        return {
            f"p{int(q * 100)}_ms": round(percentile(samples, q) * 1e3, 4)
            for q in (0.5, 0.95, 0.99)
        }


@dataclass(frozen=True)
class ServiceReport(Record):
    """One serving run, as numbers -- JSON-serializable.

    ``requests`` splits exactly into ``store_hits + deduplicated +
    computed`` (every accepted submission is served one of those three
    ways); ``errors``/``timeouts``/``retries`` describe the computed
    slice's failure handling.  ``store`` and ``warm_cache`` carry the
    result store's and the per-worker kernel caches' own counters at
    snapshot time (empty dicts when the run had neither).
    """

    requests: int = 0
    store_hits: int = 0
    deduplicated: int = 0
    computed: int = 0
    errors: int = 0
    timeouts: int = 0
    retries: int = 0
    wall_s: float = 0.0
    specs_per_s: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    store: Dict[str, Any] = field(default_factory=dict)
    warm_cache: Dict[str, Any] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without a fresh computation."""
        if self.requests <= 0:
            return 0.0
        return (self.store_hits + self.deduplicated) / self.requests

    @classmethod
    def build(
        cls,
        counters: ServiceCounters,
        latencies: LatencyRecorder,
        wall_s: float,
        store_stats: Optional[Mapping[str, Any]] = None,
        warm_cache: Optional[Mapping[str, Any]] = None,
    ) -> "ServiceReport":
        """Snapshot the accumulators into a frozen report."""
        counts = counters.as_dict()
        tail = latencies.snapshot()
        return cls(
            wall_s=round(wall_s, 6),
            specs_per_s=round(counts["requests"] / max(wall_s, 1e-12), 2),
            latency_p50_ms=tail["p50_ms"],
            latency_p95_ms=tail["p95_ms"],
            latency_p99_ms=tail["p99_ms"],
            store=dict(store_stats or {}),
            warm_cache=dict(warm_cache or {}),
            **counts,
        )

    def format_lines(self) -> List[str]:
        """A human-readable summary (used by ``repro serve-batch``)."""
        lines = [
            f"requests      : {self.requests} "
            f"({self.store_hits} store hits, "
            f"{self.deduplicated} deduplicated, "
            f"{self.computed} computed, {self.errors} errors)",
            f"throughput    : {self.specs_per_s:g} specs/s "
            f"over {self.wall_s:.3f} s "
            f"(hit rate {self.hit_rate * 100:.0f}%)",
            f"latency       : p50 {self.latency_p50_ms:g} ms, "
            f"p95 {self.latency_p95_ms:g} ms, "
            f"p99 {self.latency_p99_ms:g} ms",
        ]
        if self.timeouts or self.retries:
            lines.append(
                f"recovery      : {self.timeouts} timeouts, "
                f"{self.retries} retries"
            )
        if self.store:
            lines.append(
                "store         : "
                + ", ".join(
                    f"{key}={self.store[key]}"
                    for key in sorted(self.store)
                )
            )
        if self.warm_cache:
            lines.append(
                "warm caches   : "
                + ", ".join(
                    f"{key}={self.warm_cache[key]}"
                    for key in sorted(self.warm_cache)
                )
            )
        return lines
