"""Declarative fault schedules and recovery policies for scenarios.

The paper's section 7 failure story covers one fiber cut at a time:
an AllReduce ring edge dies, traffic rides an MP detour, and the
optical switch eventually swaps ports.  Real clusters fail in storms
-- a switch takes a rack of hosts with it, a shard region loses many
fibers at once -- and what matters is not whether a single detour
exists but how gracefully the *whole scheduler plane* degrades.

This module is the declarative half of that plane:

* :class:`FaultEventSpec` -- one fault: a transient/permanent **link**
  cut aimed at a job's shard, a **server** (host) failure that kills
  the resident job, or a correlated **storm** over a contiguous server
  region (several hosts plus several shard links at once).
* :class:`FaultScheduleSpec` -- an explicit event list plus knobs for
  *seeded* random storm generation; :meth:`FaultScheduleSpec.resolve`
  expands it into a concrete, time-sorted timeline deterministically
  per (spec, seed).
* :class:`RecoverySpec` -- the per-scenario recovery policy knob:
  ``"detour"`` (section 7 behavior: ride the MP detour until the port
  swap), ``"reoptimize"`` (re-run the topology pipeline on the
  surviving fabric when the detour slowdown crosses
  ``degradation_threshold``, paying the OCS reconfiguration latency),
  and ``"checkpoint-restart"`` (suspend + requeue through the
  scheduler's preempt path, losing only work since the last
  checkpoint interval).

Both specs are first-class citizens of the declarative API: exact JSON
round-trip, unknown-key rejection, and validation at *construction*
time (negative times, repairs that precede their failure, duplicate
link cuts are all rejected before a scenario ever runs).

Doctest tour::

    >>> from repro.cluster.faults import FaultScheduleSpec, RecoverySpec
    >>> schedule = FaultScheduleSpec(storms=2, storm_window_s=50.0)
    >>> FaultScheduleSpec.from_dict(schedule.to_dict()) == schedule
    True
    >>> timeline = schedule.resolve(seed=0, cluster_servers=32)
    >>> [event.kind for event in timeline]
    ['storm', 'storm']
    >>> timeline == schedule.resolve(seed=0, cluster_servers=32)
    True
    >>> RecoverySpec(policy="reoptimize").degradation_threshold
    2.0
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.spec import _check_keys, _require
from repro.core.ocs_reconfig import OCS_RECONFIG_LATENCY_S

#: Fault kinds :class:`FaultEventSpec` understands.
FAULT_KINDS = ("link", "server", "storm")

#: Recovery policies of :class:`RecoverySpec`.
RECOVERY_POLICIES = ("detour", "reoptimize", "checkpoint-restart")


@dataclass(frozen=True)
class FaultEventSpec:
    """One scheduled fault.

    ``kind="link"`` cuts one shard link of job ``job_index`` (its
    arrival-order index) at ``time_s`` (``link=None`` picks the job's
    first AllReduce ring edge); ``repair_s`` schedules the permanent
    port-swap repair.

    ``kind="server"`` kills host ``server`` at ``time_s``: the
    resident job is crash-suspended and requeued, and the host stays
    out of the allocator's pool until ``repair_s`` (``None`` = the
    host never comes back).

    ``kind="storm"`` is a correlated burst over the contiguous region
    ``[region_start, region_start + region_size)``: ``servers_hit``
    hosts in the region die and up to ``links_hit`` shard links of
    jobs overlapping the region are cut, all at ``time_s``; every
    sub-fault heals at ``repair_s``.
    """

    kind: str = "link"
    time_s: float = 0.0
    repair_s: Optional[float] = None
    # link faults
    job_index: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    # server faults
    server: Optional[int] = None
    # storms
    region_start: int = 0
    region_size: int = 0
    servers_hit: int = 0
    links_hit: int = 0

    def __post_init__(self):
        if self.link is not None:
            object.__setattr__(self, "link", tuple(self.link))
        _require(
            self.kind in FAULT_KINDS,
            f"fault.kind: unknown kind {self.kind!r}; "
            f"use one of {sorted(FAULT_KINDS)}",
        )
        _require(
            self.time_s >= 0,
            f"fault.time_s must be >= 0, got {self.time_s}",
        )
        _require(
            self.repair_s is None or self.repair_s >= self.time_s,
            f"fault repair at {self.repair_s}s precedes the failure "
            f"at {self.time_s}s",
        )
        if self.kind == "link":
            _require(
                self.job_index is not None and self.job_index >= 0,
                "a 'link' fault needs a job_index >= 0",
            )
            _require(
                self.link is None or len(self.link) == 2,
                f"fault.link must be a (src, dst) pair, got {self.link!r}",
            )
        elif self.kind == "server":
            _require(
                self.server is not None and self.server >= 0,
                "a 'server' fault needs a server id >= 0",
            )
        else:  # storm
            _require(
                self.region_size >= 1,
                f"a 'storm' fault needs region_size >= 1, "
                f"got {self.region_size}",
            )
            _require(
                self.region_start >= 0,
                f"fault.region_start must be >= 0, got {self.region_start}",
            )
            _require(
                0 <= self.servers_hit <= self.region_size,
                f"fault.servers_hit must be in [0, region_size="
                f"{self.region_size}], got {self.servers_hit}",
            )
            _require(
                self.links_hit >= 0,
                f"fault.links_hit must be >= 0, got {self.links_hit}",
            )
            _require(
                self.servers_hit + self.links_hit >= 1,
                "a 'storm' fault must hit at least one server or link",
            )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "time_s": self.time_s}
        if self.repair_s is not None:
            data["repair_s"] = self.repair_s
        if self.kind == "link":
            data["job_index"] = self.job_index
            if self.link is not None:
                data["link"] = [int(v) for v in self.link]
        elif self.kind == "server":
            data["server"] = self.server
        else:
            data["region_start"] = self.region_start
            data["region_size"] = self.region_size
            data["servers_hit"] = self.servers_hit
            data["links_hit"] = self.links_hit
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEventSpec":
        _check_keys("FaultEventSpec", data, (f.name for f in fields(cls)))
        kwargs = dict(data)
        if kwargs.get("link") is not None:
            kwargs["link"] = tuple(int(v) for v in kwargs["link"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultScheduleSpec:
    """A scenario's whole fault timeline: explicit events + seeded storms.

    ``events`` fire exactly as written.  ``storms > 0`` additionally
    generates that many random correlated storms, deterministically
    derived from the scenario seed (stream ``"faults"``): each storm's
    start is uniform in ``[0, storm_window_s)``, its region is a
    random ``storm_region_size``-server window, it kills
    ``storm_servers`` hosts and cuts ``storm_links`` shard links, and
    it heals an exponential ``mean_repair_s`` later.  The same (spec,
    seed) therefore always resolves to the same timeline -- the
    property the chaos harness's byte-identical rerun check leans on.
    """

    events: Tuple[FaultEventSpec, ...] = ()
    storms: int = 0
    storm_window_s: float = 60.0
    storm_region_size: int = 8
    storm_servers: int = 1
    storm_links: int = 2
    mean_repair_s: float = 30.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "events",
            tuple(
                event if isinstance(event, FaultEventSpec)
                else FaultEventSpec.from_dict(event)
                for event in self.events
            ),
        )
        _require(self.storms >= 0,
                 f"faults.storms must be >= 0, got {self.storms}")
        _require(
            self.storm_window_s > 0,
            f"faults.storm_window_s must be > 0, got {self.storm_window_s}",
        )
        _require(
            self.storm_region_size >= 1,
            f"faults.storm_region_size must be >= 1, "
            f"got {self.storm_region_size}",
        )
        _require(
            0 <= self.storm_servers <= self.storm_region_size,
            f"faults.storm_servers must be in [0, storm_region_size="
            f"{self.storm_region_size}], got {self.storm_servers}",
        )
        _require(
            self.storm_links >= 0,
            f"faults.storm_links must be >= 0, got {self.storm_links}",
        )
        _require(
            self.storms == 0 or self.storm_servers + self.storm_links >= 1,
            "faults.storms > 0 needs storm_servers + storm_links >= 1",
        )
        _require(
            self.mean_repair_s > 0,
            f"faults.mean_repair_s must be > 0, got {self.mean_repair_s}",
        )
        seen = set()
        for event in self.events:
            if event.kind != "link":
                continue
            key = (event.job_index, event.link, event.time_s)
            _require(
                key not in seen,
                f"duplicate link fault: job {event.job_index} link "
                f"{event.link} already cut at t={event.time_s}s",
            )
            seen.add(key)

    @property
    def is_empty(self) -> bool:
        return not self.events and self.storms == 0

    def resolve(
        self, seed: int, cluster_servers: int
    ) -> Tuple[FaultEventSpec, ...]:
        """Expand into a concrete time-sorted timeline (deterministic).

        Explicit events pass through; random storms are drawn from the
        scenario seed's ``"faults"`` stream and clamped to the cluster
        (regions never reach past server ``cluster_servers - 1``).
        """
        from repro.api.runner import point_seed

        timeline = list(self.events)
        rng = random.Random(point_seed(seed, {"stream": "faults"}))
        region = min(self.storm_region_size, cluster_servers)
        for _ in range(self.storms):
            start = rng.uniform(0.0, self.storm_window_s)
            region_start = rng.randrange(
                max(1, cluster_servers - region + 1)
            )
            repair = start + rng.expovariate(1.0 / self.mean_repair_s)
            timeline.append(
                FaultEventSpec(
                    kind="storm",
                    time_s=start,
                    repair_s=repair,
                    region_start=region_start,
                    region_size=region,
                    servers_hit=min(self.storm_servers, region),
                    links_hit=self.storm_links,
                )
            )
        timeline.sort(key=lambda event: (event.time_s, event.kind))
        return tuple(timeline)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [event.to_dict() for event in self.events],
            "storms": self.storms,
            "storm_window_s": self.storm_window_s,
            "storm_region_size": self.storm_region_size,
            "storm_servers": self.storm_servers,
            "storm_links": self.storm_links,
            "mean_repair_s": self.mean_repair_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultScheduleSpec":
        _check_keys(
            "FaultScheduleSpec", data, (f.name for f in fields(cls))
        )
        kwargs = dict(data)
        if "events" in kwargs:
            kwargs["events"] = tuple(
                event if isinstance(event, FaultEventSpec)
                else FaultEventSpec.from_dict(event)
                for event in (kwargs["events"] or ())
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class RecoverySpec:
    """How the scenario engine reacts to faults.

    ``policy="detour"`` is the paper's section 7 behavior: a cut link
    rides its MP detour (slowed by the hop stretch) until the
    scheduled port swap.  ``policy="reoptimize"`` starts from the same
    detour but escalates when the job's worst hop stretch reaches
    ``degradation_threshold``: the strategy x TopologyFinder pipeline
    re-runs on the surviving fabric (warm-cache-assisted, so repeat
    templates pay nothing) and the job resumes at full speed
    ``reoptimize_latency_s`` later -- the OCS reconfiguration price
    from :data:`repro.core.ocs_reconfig.OCS_RECONFIG_LATENCY_S`.
    ``policy="checkpoint-restart"`` routes every fault through the
    scheduler's suspend/requeue path: the job restarts from its last
    periodic checkpoint (every ``checkpoint_interval_s`` of service),
    so a host failure loses at most one interval of work plus the
    iteration in flight.  Host failures under the other two policies
    also suspend + requeue -- the host is gone either way -- but lose
    the whole running segment (no periodic checkpoints exist).

    ``restart_s`` is charged as extra start latency whenever a
    fault-suspended job is re-admitted.
    """

    policy: str = "detour"
    degradation_threshold: float = 2.0
    reoptimize_latency_s: float = OCS_RECONFIG_LATENCY_S
    checkpoint_interval_s: float = 60.0
    restart_s: float = 0.0

    def __post_init__(self):
        _require(
            self.policy in RECOVERY_POLICIES,
            f"recovery.policy: unknown policy {self.policy!r}; "
            f"use one of {sorted(RECOVERY_POLICIES)}",
        )
        _require(
            self.degradation_threshold >= 1.0,
            f"recovery.degradation_threshold must be >= 1, "
            f"got {self.degradation_threshold}",
        )
        _require(
            self.reoptimize_latency_s >= 0,
            f"recovery.reoptimize_latency_s must be >= 0, "
            f"got {self.reoptimize_latency_s}",
        )
        _require(
            self.checkpoint_interval_s > 0,
            f"recovery.checkpoint_interval_s must be > 0, "
            f"got {self.checkpoint_interval_s}",
        )
        _require(
            self.restart_s >= 0,
            f"recovery.restart_s must be >= 0, got {self.restart_s}",
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "degradation_threshold": self.degradation_threshold,
            "reoptimize_latency_s": self.reoptimize_latency_s,
            "checkpoint_interval_s": self.checkpoint_interval_s,
            "restart_s": self.restart_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RecoverySpec":
        _check_keys("RecoverySpec", data, (f.name for f in fields(cls)))
        return cls(**dict(data))


class FaultPlane:
    """The runtime half of a fault schedule: a time-ordered event heap.

    Built once per scenario from the resolved timeline; the engine
    polls :meth:`next_time` when it gathers event candidates, pops due
    events with :meth:`pop_due`, and pushes follow-up events (a
    storm's per-host repairs are only known once the storm expands at
    fire time) with :meth:`push`.  Pop order is deterministic: heap
    ties break on insertion order, never on payload contents.

    ``failed_servers`` tracks hosts currently out of the allocator's
    pool; ``fail_started`` remembers when each fault began so repairs
    can report their downtime (the MTTR numerator).
    """

    def __init__(
        self,
        schedule: FaultScheduleSpec,
        seed: int,
        cluster_servers: int,
    ):
        self._heap: List[Tuple[float, int, str, Any]] = []
        self._counter = 0
        self.cluster_servers = cluster_servers
        self.failed_servers: set = set()
        self.fail_started: Dict[Any, float] = {}
        for event in schedule.resolve(seed, cluster_servers):
            if event.kind == "link":
                self.push(event.time_s, "link_fail", event)
                if event.repair_s is not None:
                    self.push(event.repair_s, "link_repair", event)
            elif event.kind == "server":
                self.push(event.time_s, "server_fail", event)
                if event.repair_s is not None:
                    self.push(event.repair_s, "server_repair", event.server)
            else:
                self.push(event.time_s, "storm", event)

    def push(self, when: float, tag: str, payload: Any) -> None:
        heapq.heappush(self._heap, (when, self._counter, tag, payload))
        self._counter += 1

    def next_time(self) -> float:
        return self._heap[0][0] if self._heap else math.inf

    def pop_due(self, now: float, eps: float) -> List[Tuple[str, Any]]:
        due: List[Tuple[str, Any]] = []
        while self._heap and self._heap[0][0] <= now + eps:
            _, _, tag, payload = heapq.heappop(self._heap)
            due.append((tag, payload))
        return due

    def drain(self) -> List[Tuple[float, str, Any]]:
        """Remove and return every event left (scenario already over)."""
        left = [
            (when, tag, payload)
            for when, _, tag, payload in sorted(self._heap)
        ]
        self._heap.clear()
        return left

