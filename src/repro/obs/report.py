"""A typed roll-up merging the repo's fragmented telemetry dialects.

Before the obs plane, "where did this scenario spend its time?" meant
stitching together ``scheduler_log`` events, ``warmcache.stats()``,
``ServiceCounters`` snapshots, and ``bench --profile`` prints by hand.
:class:`ObsReport` is the one schema a recorded run lands in: span
aggregates and counters from a :class:`~repro.obs.tracer.TraceRecorder`
(the executor's request routes among them), the process-wide
warm-cache counters, scheduler event counts (recorded as
``scheduler.*`` counters by the engine), and per-link utilization RLE
timelines from the fluid substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.codec import Record, field
from repro.obs.tracer import TraceRecorder


@dataclass(frozen=True)
class ObsReport(Record):
    """One observed run, merged into a single JSON-native schema."""

    #: Per-span-name aggregates: ``{"count", "total_s", "max_s"}``.
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Flat counters (``scheduler.admit``, ``mcmc.accepted``, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Last-value gauges (``engine.sim_now_s``, ...).
    gauges: Dict[str, float] = field(default_factory=dict)
    #: ``repro.perf.warmcache.stats()`` snapshot at report time.
    warmcache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: RLE timelines as ``[[t, value], ...]`` point lists.
    timelines: Dict[str, List[List[float]]] = field(default_factory=dict)

    @classmethod
    def build(cls, recorder: TraceRecorder) -> "ObsReport":
        """Snapshot ``recorder`` plus the process-wide warm caches."""
        from repro.perf import warmcache

        recorder.flush()
        return cls(
            spans=recorder.span_summary(),
            counters=dict(recorder.counters),
            gauges=dict(recorder.gauges),
            warmcache=warmcache.stats(),
            timelines={
                name: timeline.to_list()
                for name, timeline in recorder.timelines.items()
            },
        )

    # -- human-readable summary ---------------------------------------
    def format_lines(self) -> List[str]:
        """A compact terminal summary, hottest spans first."""
        lines = ["observability report"]
        ranked = sorted(
            self.spans.items(),
            key=lambda item: item[1]["total_s"],
            reverse=True,
        )
        for name, entry in ranked:
            lines.append(
                f"  span {name:<28s} count={int(entry['count']):>6d} "
                f"total={entry['total_s'] * 1e3:9.2f}ms "
                f"max={entry['max_s'] * 1e3:8.3f}ms"
            )
        for name, value in sorted(self.counters.items()):
            lines.append(f"  counter {name:<25s} {value:g}")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"  gauge {name:<27s} {value:g}")
        for cache, entry in sorted(self.warmcache.items()):
            lines.append(
                f"  warmcache {cache:<23s} "
                + " ".join(f"{k}={entry[k]}" for k in sorted(entry))
            )
        if self.timelines:
            points = sum(len(p) for p in self.timelines.values())
            lines.append(
                f"  timelines {len(self.timelines)} series, "
                f"{points} RLE points"
            )
        return lines
