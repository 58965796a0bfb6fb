"""Invariant checks for scheduler-driven scenario runs.

Scheduling bugs are silent: a broken backfill or preemption path still
produces a plausible-looking timeline, it just violates fairness or
conservation somewhere in the middle.  This module makes those
violations loud.  :func:`random_scenario_spec` draws a small randomized
scenario (mixed shard sizes, staggered arrivals, optional priorities
and elastic ranges) and :func:`check_scenario_invariants` replays the
result's ``scheduler_log`` against an occupancy model and returns every
violation it finds:

- **No double allocation** — an admitted or resized job only ever
  occupies servers that are free at that instant, and only servers
  inside the cluster.
- **Free/alloc round-trip** — every server a job occupied is released
  exactly once (by preemption or departure); the cluster ends empty.
- **Work conservation** — a quota job completes exactly its iteration
  quota no matter how often it was preempted or resized.
- **Monotone time** — scheduler events, the utilization timeline, and
  the fragmentation timeline never step backwards in time.
- **Utilization bounds** — the busy-server count stays within
  ``[0, cluster.servers]`` and matches the replayed occupancy.
- **Causality** — ``arrival <= admitted <= completed`` per job.
- **Fault bounds** — a crash-suspension never allocates onto a dead
  host, releases the victim's exact block, and loses at most the time
  since the last checkpoint plus one in-flight iteration (and under
  ``checkpoint-restart``, the checkpoint is never older than one
  ``checkpoint_interval_s``).

:func:`verify_scenario` bundles the workflow the property tests use:
run the spec twice, assert byte-identical JSON, check the invariants,
and return the (first) result.  :func:`chaos_scenario_spec` feeds it
randomized failure storms on top of the randomized scheduler load.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional

from repro.cluster.engine import run_scenario
from repro.cluster.faults import RECOVERY_POLICIES
from repro.cluster.results import ScenarioResult
from repro.cluster.spec import QUEUE_POLICIES, ScenarioSpec

#: Tolerance when comparing event times (matches the engine's).
_EPS = 1e-9

_MODELS = ("DLRM", "BERT", "CANDLE", "VGG16")


def random_scenario_spec(
    seed: int,
    queue: str = "fcfs",
    preemption: str = "none",
    elastic: bool = False,
    max_jobs: int = 6,
) -> ScenarioSpec:
    """Draw a small randomized scenario for property testing.

    Deterministic per ``seed``: cluster size, per-job shard sizes,
    iteration quotas, arrival stagger, priorities (exercised when
    ``preemption='priority'``) and elastic ranges (when ``elastic``)
    are all drawn from ``random.Random(seed)``.  Shard sizes are drawn
    to force contention -- at least one job wants more than half the
    cluster -- so FCFS exhibits head-of-line blocking and backfill,
    preemption and elastic paths all actually fire.
    """
    if queue not in QUEUE_POLICIES:
        raise ValueError(f"unknown queue policy {queue!r}")
    rng = random.Random(seed)
    servers = rng.choice((16, 24, 32))
    count = rng.randint(3, max(3, max_jobs))
    overrides: Dict[str, object] = {
        "count": count,
        "arrivals.times": [
            round(rng.uniform(0.0, 0.3), 3) for _ in range(count)
        ],
        "cluster.servers": servers,
        "queue": queue,
        "preemption": preemption,
        "elastic": elastic,
    }
    if preemption == "priority":
        overrides["checkpoint_s"] = round(rng.uniform(0.0, 0.2), 3)
        overrides["restart_s"] = round(rng.uniform(0.0, 0.2), 3)
    if elastic:
        overrides["resize_latency_s"] = round(rng.uniform(0.0, 0.05), 3)
    for index in range(min(count, len(_MODELS))):
        # One oversized job forces head-of-line blocking; the rest are
        # small enough to backfill around it.
        if index == 0:
            size = rng.choice((servers // 2, 3 * servers // 4))
        else:
            size = rng.choice((2, 4, servers // 4))
        size = max(2, size)
        overrides[f"jobs.{index}.servers"] = size
        overrides[f"jobs.{index}.iterations"] = rng.randint(2, 6)
        if preemption == "priority":
            overrides[f"jobs.{index}.priority"] = rng.randint(0, 3)
        if elastic and size > 2:
            overrides[f"jobs.{index}.min_servers"] = 2
            overrides[f"jobs.{index}.max_servers"] = min(
                servers, size * 2
            )
    return ScenarioSpec.preset("shared").with_overrides(overrides)


def check_scenario_invariants(result: ScenarioResult) -> List[str]:
    """Replay ``result.scheduler_log``; return all violations found."""
    violations: List[str] = []
    spec = result.spec
    cluster_servers = spec.cluster.servers

    # -- replay the scheduler event stream -----------------------------
    occupancy: Dict[int, int] = {}  # server -> job index
    held: Dict[int, List[int]] = {}  # job index -> its current block
    dead: set = set()  # servers currently failed (host faults)
    last_time = 0.0
    for event in result.scheduler_log:
        when = event["time_s"]
        kind = event["event"]
        job = event["job_index"]
        block = list(event["servers"])
        if when + _EPS < last_time:
            violations.append(
                f"scheduler_log time went backwards at {kind} of job "
                f"{job}: {when} < {last_time}"
            )
        last_time = max(last_time, when)
        if kind in ("admit", "resize"):
            if kind == "resize":
                for server in held.pop(job, ()):
                    occupancy.pop(server, None)
            elif job in held:
                violations.append(
                    f"job {job} admitted while already holding "
                    f"{held[job]}"
                )
            for server in block:
                if not 0 <= server < cluster_servers:
                    violations.append(
                        f"job {job} {kind}ed onto out-of-range server "
                        f"{server}"
                    )
                elif server in occupancy:
                    violations.append(
                        f"server {server} double-allocated: job "
                        f"{occupancy[server]} still holds it when job "
                        f"{job} is {kind}ed at t={when}"
                    )
                elif server in dead:
                    violations.append(
                        f"job {job} {kind}ed onto failed server "
                        f"{server} at t={when}"
                    )
                occupancy[server] = job
            held[job] = block
        elif kind in ("preempt", "depart", "suspend"):
            current = held.pop(job, None)
            if current is None:
                violations.append(
                    f"{kind} of job {job} at t={when} but it holds no "
                    f"block"
                )
                continue
            if sorted(current) != sorted(block):
                violations.append(
                    f"{kind} of job {job} released {block} but it held "
                    f"{current}"
                )
            for server in current:
                occupancy.pop(server, None)
        elif kind == "fault":
            if event.get("kind") == "server":
                for server in block:
                    dead.add(server)
                    occupant = occupancy.get(server)
                    if occupant is not None and occupant != job:
                        violations.append(
                            f"host {server} died at t={when} naming "
                            f"job {job} but job {occupant} holds it"
                        )
        elif kind == "repair":
            if event.get("kind") == "server":
                for server in block:
                    dead.discard(server)
        elif kind in ("recover", "unfinished"):
            # Informational: a recover keeps the job on its block; an
            # unfinished marker carries no occupancy change.
            pass
        else:
            violations.append(f"unknown scheduler event {kind!r}")
    if held:
        violations.append(
            f"jobs {sorted(held)} never released their servers"
        )

    # -- per-job causality and work conservation -----------------------
    quotas = _iteration_quotas(result)
    for job in result.jobs:
        if job.admitted_s + _EPS < job.arrival_s:
            violations.append(
                f"job {job.index} admitted before it arrived"
            )
        if job.completed_s + _EPS < job.admitted_s:
            violations.append(
                f"job {job.index} completed before it was admitted"
            )
        quota = quotas.get(job.index)
        if quota is not None and job.iterations_completed != quota:
            violations.append(
                f"job {job.index} completed {job.iterations_completed} "
                f"iterations, quota was {quota} (work not conserved "
                f"across {job.preemptions} preemption(s) / "
                f"{job.resizes} resize(s))"
            )

    # -- timelines -----------------------------------------------------
    for name, timeline in (
        ("utilization", result.utilization_timeline),
        ("fragmentation", result.fragmentation_timeline),
    ):
        previous = None
        for when, value in timeline:
            if previous is not None and when + _EPS < previous:
                violations.append(
                    f"{name} timeline time went backwards: {when} < "
                    f"{previous}"
                )
            previous = when
    for when, busy in result.utilization_timeline:
        if not 0 <= busy <= cluster_servers:
            violations.append(
                f"utilization at t={when} is {busy}, outside "
                f"[0, {cluster_servers}]"
            )

    # -- fault-plane bounds --------------------------------------------
    # Every crash-suspension records what it destroyed.  No policy may
    # lose more than the time since the last checkpoint plus the one
    # iteration that straddles it, and under checkpoint-restart the
    # checkpoint can never be older than one interval.
    interval = spec.recovery.checkpoint_interval_s
    for entry in result.failure_log:
        if "lost_work_s" not in entry:
            continue
        lost = float(entry["lost_work_s"])
        since = float(entry["since_checkpoint_s"])
        step = float(entry["step_s"])
        if lost > since + step + _EPS:
            violations.append(
                f"fault at t={entry['time_s']} lost {lost}s of work, "
                f"more than since_checkpoint ({since}s) + one "
                f"iteration ({step}s)"
            )
        if (
            spec.recovery.policy == "checkpoint-restart"
            and since > interval + _EPS
        ):
            violations.append(
                f"fault at t={entry['time_s']} rolled back {since}s, "
                f"past the checkpoint interval ({interval}s)"
            )
    return violations


def _iteration_quotas(result: ScenarioResult) -> Dict[int, Optional[int]]:
    """Job index -> iteration quota (None for wall-clock-budget jobs)."""
    quotas: Dict[int, Optional[int]] = {}
    templates = result.spec.jobs
    if result.spec.arrivals.process == "explicit":
        for index in range(len(result.spec.arrivals.times)):
            template = templates[index % len(templates)]
            quotas[index] = template.iterations
    else:
        # Poisson/trace template choice is rng-driven; duration-budget
        # jobs have no quota.  Skip the conservation check there.
        for job in result.jobs:
            quotas[job.index] = None
    return quotas


#: Scheduler configurations snapshotted under ``tests/golden/``.  Keys
#: name the snapshot files (``scheduler_<key>.json``); values are
#: shorthand overrides applied to :func:`golden_scenario_spec`'s base
#: head-of-line-blocking trace.
GOLDEN_POLICIES: Dict[str, Dict[str, object]] = {
    "fcfs": {"queue": "fcfs"},
    "easy": {"queue": "easy"},
    "conservative": {"queue": "conservative"},
    "preempt": {
        "preemption": "priority",
        "checkpoint_s": 0.2,
        "restart_s": 0.3,
        "jobs.0.priority": 0,
        "jobs.1.priority": 5,
    },
    "elastic": {
        "elastic": True,
        "resize_latency_s": 0.01,
        # The blocker can grow into the vacated half once the queue
        # drains; the 24-server job can shrink into the 16-server hole.
        "jobs.0.max_servers": 32,
        "jobs.1.min_servers": 8,
        "jobs.1.max_servers": 24,
    },
}


def golden_scenario_spec(key: str) -> ScenarioSpec:
    """The canonical snapshot scenario for policy ``key``.

    A four-job head-of-line-blocking trace on a 32-server TopoOpt
    cluster: job 0 holds 16 servers for many iterations, job 1 wants 24
    (blocked), jobs 2-3 want 8 each and can only start early if the
    policy backfills (or preempts, or shrinks) around the blocker.
    """
    base = ScenarioSpec.preset("shared").with_overrides({
        "name": f"golden-scheduler-{key}",
        "jobs.0.iterations": 40, "jobs.0.servers": 16,
        "jobs.1.iterations": 4, "jobs.1.servers": 24,
        "jobs.2.iterations": 4, "jobs.2.servers": 8,
        "jobs.3.iterations": 4, "jobs.3.servers": 8,
        "arrivals.times": [0.0, 0.01, 0.02, 0.03],
        "count": 4,
    })
    return base.with_overrides(GOLDEN_POLICIES[key])


def chaos_scenario_spec(
    seed: int, policy: Optional[str] = None
) -> ScenarioSpec:
    """A randomized scenario *plus* a randomized fault storm schedule.

    Builds on :func:`random_scenario_spec` (same contention-forcing job
    mix) and layers seeded storms, a random recovery policy (or the
    given ``policy``) and a small checkpoint interval on top, so the
    chaos harness exercises host deaths, link cuts, crash-suspensions
    and repairs in one run.  Deterministic per (seed, policy).
    """
    rng = random.Random(f"chaos-{seed}")
    spec = random_scenario_spec(
        seed, queue=rng.choice(("fcfs", "easy", "conservative"))
    )
    servers_hit = rng.randint(0, 2)
    links_hit = rng.randint(0, 2)
    if servers_hit + links_hit == 0:
        servers_hit = 1
    overrides: Dict[str, object] = {
        "storms": rng.randint(1, 3),
        "storm_window_s": round(rng.uniform(0.2, 2.0), 3),
        "storm_region_size": rng.choice((4, 8)),
        "storm_servers": servers_hit,
        "storm_links": links_hit,
        "mean_repair_s": round(rng.uniform(0.3, 1.5), 3),
        "recovery_policy": policy or rng.choice(RECOVERY_POLICIES),
        "checkpoint_interval_s": round(rng.uniform(0.3, 1.0), 3),
    }
    return spec.with_overrides(overrides)


def verify_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run twice, assert byte-identical JSON + invariants, return result.

    Raises :class:`AssertionError` naming the first divergence or the
    full violation list, so property tests can call this directly.
    """
    first = run_scenario(spec)
    second = run_scenario(spec)
    a = json.dumps(first.to_dict(), sort_keys=True)
    b = json.dumps(second.to_dict(), sort_keys=True)
    assert a == b, (
        f"scenario {spec.name!r} (seed {spec.seed}) is not "
        f"deterministic: two runs produced different JSON"
    )
    violations = check_scenario_invariants(first)
    assert not violations, (
        f"scenario {spec.name!r} (seed {spec.seed}) violated "
        f"{len(violations)} invariant(s):\n  " + "\n  ".join(violations)
    )
    return first
