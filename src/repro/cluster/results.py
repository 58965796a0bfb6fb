"""Typed, JSON-serializable scenario results.

:class:`ScenarioResult` is what :func:`repro.cluster.engine.run_scenario`
returns: one :class:`JobResult` per job (queueing delay, JCT, raw
iteration times), the cluster's utilization and fragmentation timelines,
and the failure log.  ``to_dict()`` is **deterministic for a given
(spec, seed)** -- wall time lives only on the in-memory object -- which
is what the bench-smoke determinism gate and the sweep engine's JSON
round-trip rely on.  The derived ``metrics`` block in the JSON is a
function of the fields: dropped on load, computed once per result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.spec import ScenarioSpec
from repro.codec import Record, field


def _weighted_percentile(
    values: np.ndarray, counts: np.ndarray, q: float
) -> float:
    """``np.percentile(np.repeat(values, counts), q)`` without the repeat.

    Matches NumPy's default linear interpolation: the virtual expanded
    sample of size ``n = counts.sum()`` is indexed at position
    ``(n - 1) * q / 100`` and interpolated between its neighbours.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    cumulative = np.cumsum(counts[order])
    n = int(cumulative[-1])
    position = (n - 1) * q / 100.0
    lo = int(np.floor(position))
    hi = int(np.ceil(position))
    v_lo = ordered[np.searchsorted(cumulative, lo, side="right")]
    v_hi = ordered[np.searchsorted(cumulative, hi, side="right")]
    return float(v_lo + (v_hi - v_lo) * (position - lo))


@dataclass(frozen=True)
class JobResult(Record):
    """One job's life: arrival -> queue -> shard -> iterations -> done.

    ``iteration_times`` is exact and per-iteration for step-by-step
    simulations.  Fast-forwarded fleet scenarios run-length encode it:
    ``iteration_counts[i]`` (when present) says how many consecutive
    iterations took ``iteration_times[i]`` seconds, which keeps a
    million-iteration trace job at a handful of entries.  ``duration_s``
    records the wall-clock budget of ``durations='wallclock'`` jobs.
    Both stay out of the JSON when unset, so quota-mode results are
    byte-identical to earlier releases.
    """

    index: int
    name: str
    model: str
    scale: str
    strategy: str
    servers: Tuple[int, ...]
    arrival_s: float
    admitted_s: float
    completed_s: float
    compute_s: float
    iteration_times: Tuple[float, ...]
    iteration_counts: Optional[Tuple[int, ...]] = field(
        default=None, omit_default=True
    )
    duration_s: Optional[float] = field(default=None, omit_default=True)
    #: Scheduler-lifecycle accounting: how many times the job was
    #: checkpoint-evicted, how many elastic resizes it went through,
    #: and how long it sat requeued after evictions.  All zero under
    #: plain FCFS and omitted from the JSON then, so pre-scheduler
    #: results stay byte-identical.
    preemptions: int = field(default=0, omit_default=True)
    resizes: int = field(default=0, omit_default=True)
    preempted_wait_s: float = field(default=0.0, omit_default=True)
    #: Fault-plane accounting (all zero -- and absent from the JSON --
    #: when the scenario injects no faults): crash-suspensions suffered,
    #: iterations of progress lost to them, the work-seconds those
    #: iterations represent, time spent requeued after a fault, and how
    #: many times the recovery plane re-optimized the job's fabric.
    fault_suspensions: int = field(default=0, omit_default=True)
    lost_iterations: int = field(default=0, omit_default=True)
    lost_work_s: float = field(default=0.0, omit_default=True)
    fault_wait_s: float = field(default=0.0, omit_default=True)
    reoptimizations: int = field(default=0, omit_default=True)

    def _validate(self):
        if self.iteration_counts is not None and len(
            self.iteration_counts
        ) != len(self.iteration_times):
            raise ValueError(
                "iteration_counts must parallel iteration_times "
                f"({len(self.iteration_counts)} vs "
                f"{len(self.iteration_times)} entries)"
            )

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def queueing_delay_s(self) -> float:
        """Time spent waiting for a shard (admission minus arrival)."""
        return self.admitted_s - self.arrival_s

    @property
    def jct_s(self) -> float:
        """Job completion time: departure minus arrival."""
        return self.completed_s - self.arrival_s

    @property
    def iterations_completed(self) -> int:
        if self.iteration_counts is not None:
            return int(sum(self.iteration_counts))
        return len(self.iteration_times)

    @property
    def iteration_avg_s(self) -> float:
        if self.iteration_counts is not None:
            return float(
                np.average(self.iteration_times,
                           weights=self.iteration_counts)
            )
        return float(np.mean(self.iteration_times))


@dataclass(frozen=True)
class ScenarioResult(Record, derived={
    "type": lambda self: "scenario",
    "metrics": lambda self: self.metrics(),
    "provenance": lambda self: {"seed": self.spec.seed},
}):
    """Everything one scenario produced, JSON-serializable.

    ``utilization_timeline`` holds ``(time_s, busy_servers)`` steps (the
    busy count holds until the next entry); ``fragmentation_timeline``
    holds ``(time_s, fragmentation)`` samples taken at every admission
    and departure.  ``failure_log`` records the injected link failures
    and their repair actions as read-only dicts.  The JSON carries a
    ``"type": "scenario"`` tag and the derived ``metrics`` and
    ``provenance`` blocks; ``metrics`` is computed once per result.
    """

    spec: ScenarioSpec
    jobs: Tuple[JobResult, ...]
    makespan_s: float
    utilization_timeline: Tuple[Tuple[float, int], ...] = ()
    fragmentation_timeline: Tuple[Tuple[float, float], ...] = ()
    failure_log: Tuple[Dict[str, Any], ...] = ()
    #: Scheduler decision stream: admit/preempt/resize/depart events as
    #: plain dicts (``time_s``, ``event``, ``job_index``, ``servers``).
    scheduler_log: Tuple[Dict[str, Any], ...] = ()
    #: Jobs still queued or suspended when the fault plane left the
    #: scenario unable to place them (e.g. too many hosts dead at the
    #: end of the schedule).  Empty -- and absent from the JSON -- for
    #: every scenario that drains.
    unfinished_jobs: Tuple[int, ...] = field(default=(), omit_default=True)
    wall_time_s: Optional[float] = field(default=None, off_json=True)

    # -- aggregate metrics ---------------------------------------------
    def iteration_samples(self) -> List[float]:
        """All jobs' iteration times pooled (Figure 16's raw series)."""
        samples: List[float] = []
        for job in self.jobs:
            samples.extend(job.iteration_times)
        return samples

    def iteration_stats(self) -> Tuple[float, float]:
        """(average, p99) iteration time across all jobs.

        Jobs with run-length-encoded iterations (``iteration_counts``)
        contribute by weight without materializing the expansion; the
        weighted percentile reproduces ``np.percentile``'s linear
        interpolation over the virtual expanded sample exactly, and
        jobs without counts take the original exact path, so existing
        results are untouched.
        """
        if not any(job.iteration_counts is not None for job in self.jobs):
            samples = self.iteration_samples()
            if not samples:
                raise ValueError("no iteration samples recorded")
            return float(np.mean(samples)), float(np.percentile(samples, 99))
        times: List[float] = []
        counts: List[int] = []
        for job in self.jobs:
            job_counts = job.iteration_counts or (
                (1,) * len(job.iteration_times)
            )
            times.extend(float(value) for value in job.iteration_times)
            counts.extend(int(count) for count in job_counts)
        if not times:
            raise ValueError("no iteration samples recorded")
        values = np.asarray(times)
        weights = np.asarray(counts, dtype=np.int64)
        mean = float(np.average(values, weights=weights))
        return mean, _weighted_percentile(values, weights, 99.0)

    def jct_stats(self) -> Tuple[float, float]:
        """(average, p99) job completion time."""
        values = [job.jct_s for job in self.jobs]
        return float(np.mean(values)), float(np.percentile(values, 99))

    def queueing_stats(self) -> Tuple[float, float]:
        """(average, p99) queueing delay."""
        values = [job.queueing_delay_s for job in self.jobs]
        return float(np.mean(values)), float(np.percentile(values, 99))

    def mean_utilization(self) -> float:
        """Time-weighted busy-server fraction over the makespan."""
        timeline = self.utilization_timeline
        if not timeline or self.makespan_s <= 0:
            return 0.0
        total = 0.0
        for (t0, busy), (t1, _) in zip(timeline, timeline[1:]):
            total += busy * (t1 - t0)
        last_t, last_busy = timeline[-1]
        total += last_busy * max(self.makespan_s - last_t, 0.0)
        return total / (self.makespan_s * self.spec.cluster.servers)

    def peak_fragmentation(self) -> float:
        if not self.fragmentation_timeline:
            return 0.0
        return max(value for _, value in self.fragmentation_timeline)

    def fault_metrics(self) -> Dict[str, Any]:
        """Resilience aggregates (section 7 storms; MTTR / availability).

        * ``fault_events`` -- faults the plane actually applied (detoured
          link cuts, disconnecting cuts, host deaths); skipped
          injections and repairs don't count.
        * ``mttr_s`` -- mean time to repair over every repair entry that
          recorded its outage's ``downtime_s``.
        * ``availability`` -- fraction of in-system job-time *not* spent
          requeued by a fault: ``1 - sum(fault_wait) / sum(jct)``.
        * ``lost_work_s`` / ``goodput_degradation`` -- work-seconds
          thrown away by crash-suspensions, absolute and as a fraction
          of all work-seconds computed (kept + lost).
        """
        fault_kinds = {"mp_detour", "link_cut", "server_fail"}
        fault_events = sum(
            1 for entry in self.failure_log
            if entry.get("kind") in fault_kinds
        )
        downtimes = [
            float(entry["downtime_s"]) for entry in self.failure_log
            if "downtime_s" in entry
        ]
        total_jct = sum(job.jct_s for job in self.jobs)
        total_wait = sum(job.fault_wait_s for job in self.jobs)
        lost = sum(job.lost_work_s for job in self.jobs)
        served = 0.0
        for job in self.jobs:
            counts = job.iteration_counts or (
                (1,) * len(job.iteration_times)
            )
            served += sum(
                t * c for t, c in zip(job.iteration_times, counts)
            )
        return {
            "fault_events": int(fault_events),
            "mttr_s": float(np.mean(downtimes)) if downtimes else 0.0,
            "availability": (
                1.0 - total_wait / total_jct if total_jct > 0 else 1.0
            ),
            "lost_work_s": float(lost),
            "goodput_degradation": (
                lost / (served + lost) if served + lost > 0 else 0.0
            ),
            "fault_suspensions": int(
                sum(job.fault_suspensions for job in self.jobs)
            ),
            "reoptimizations": int(
                sum(job.reoptimizations for job in self.jobs)
            ),
            "jobs_unfinished": len(self.unfinished_jobs),
        }

    def metrics(self) -> Dict[str, Any]:
        """The aggregate block embedded in the JSON (derived, not stored).

        The resilience block (:meth:`fault_metrics`) appears only when
        the scenario saw failures or left jobs unfinished, so fault-free
        results keep their exact historical key set (and bytes).
        Computed once per result, which is frozen and of which the block
        is a pure function; each call hands out a fresh dict.
        """
        block = self.__dict__.get("_metrics")
        if block is None:
            block = self._compute_metrics()
            object.__setattr__(self, "_metrics", block)
        return dict(block)

    def _compute_metrics(self) -> Dict[str, Any]:
        if self.jobs:
            iter_avg, iter_p99 = self.iteration_stats()
            jct_avg, jct_p99 = self.jct_stats()
            queue_avg, queue_p99 = self.queueing_stats()
        else:
            # A storm can leave every job unfinished; aggregates over
            # zero completions degrade to 0 instead of raising.
            iter_avg = iter_p99 = 0.0
            jct_avg = jct_p99 = queue_avg = queue_p99 = 0.0
        data = {
            "jobs_completed": len(self.jobs),
            "makespan_s": self.makespan_s,
            "iteration_avg_s": iter_avg,
            "iteration_p99_s": iter_p99,
            "jct_avg_s": jct_avg,
            "jct_p99_s": jct_p99,
            "queueing_avg_s": queue_avg,
            "queueing_p99_s": queue_p99,
            "mean_utilization": self.mean_utilization(),
            "peak_fragmentation": self.peak_fragmentation(),
            "preemptions": int(
                sum(job.preemptions for job in self.jobs)
            ),
            "resizes": int(sum(job.resizes for job in self.jobs)),
        }
        if self.failure_log or self.unfinished_jobs:
            data.update(self.fault_metrics())
        return data
