"""Tests for the content-addressed result store and spec hashing."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api.runner import run_experiment
from repro.api.spec import (
    ClusterSpec,
    ExperimentSpec,
    FabricSpec,
    OptimizerSpec,
    WorkloadSpec,
    canonical_json,
)
from repro.cluster.engine import run_scenario
from repro.cluster.invariants import GOLDEN_POLICIES, golden_scenario_spec
from repro.cluster.spec import (
    ArrivalSpec,
    JobTemplateSpec,
    ScenarioSpec,
    SchedulerSpec,
)
from repro.service import STORE_VERSION, ResultStore

#: SHA-256 over the canonical JSON of the five golden scenario results,
#: of :func:`pinned_scenarios`' results and of :func:`pinned_experiment`'s
#: result, per ``STORE_VERSION``.  Version 3 moved only TopoOpt results
#: with link cuts after an elastic resize, which no pinned scenario has,
#: so it keeps version 2's digest.
RESULT_DIGESTS = {
    3: "b81aae69df6ac3ebf8fcf9c06d8801bf15dfbb08a3d5d371aa336639d410016f",
}


def cheap_spec(seed: int = 0, servers: int = 8) -> ExperimentSpec:
    """A fixed-strategy, baseline-free spec that computes in ~10 ms."""
    return ExperimentSpec(
        name=f"store-test-{seed}",
        seed=seed,
        workload=WorkloadSpec(model="DLRM", scale="testbed"),
        cluster=ClusterSpec(servers=servers, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="fattree"),
        optimizer=OptimizerSpec(strategy="auto"),
        baselines=(),
    )


def pinned_experiment() -> ExperimentSpec:
    """A small searched experiment timed on all three co-search fabrics."""
    return ExperimentSpec(
        name="store-version-pin",
        seed=1,
        workload=WorkloadSpec(model="DLRM", scale="testbed"),
        cluster=ClusterSpec(servers=8, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        optimizer=OptimizerSpec(rounds=1, mcmc_iterations=20),
        baselines=(FabricSpec(kind="fattree"),
                   FabricSpec(kind="ocs-reconfig")),
    )


def pinned_fleet(policy: str) -> ScenarioSpec:
    """A fleet-shaped scenario: 32 TopoOpt servers, fast-forward, storms.

    32 jobs cycle through the four models at 2-8-server shards with
    log-normal iteration quotas (median 200k) and 10-minute mean gaps,
    so the four storms land on running jobs: they kill hosts, cut shard
    links and heal later under recovery ``policy``.
    """
    rng = random.Random(3)
    models = ("DLRM", "BERT", "CANDLE", "VGG16")
    clock, times, jobs = 0.0, [], []
    for index in range(32):
        clock += rng.expovariate(1.0 / 600.0)
        times.append(round(clock, 3))
        jobs.append(JobTemplateSpec(
            model=models[index % 4], servers=2 + 2 * (index // 4 % 4),
            iterations=max(1, round(rng.lognormvariate(math.log(2e5), 1.0))),
        ))
    spec = ScenarioSpec(
        name=f"pin-fleet-{policy}",
        seed=3,
        cluster=ClusterSpec(servers=32, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(process="explicit", times=tuple(times)),
        jobs=tuple(jobs),
        scheduler=SchedulerSpec(policy="best-fit"),
        max_sim_time_s=4e7,
        fast_forward=True,
    )
    return spec.with_overrides({
        "storms": 4, "storm_window_s": 0.8 * clock, "storm_region_size": 8,
        "storm_servers": 1, "storm_links": 1, "mean_repair_s": 2e4,
        "recovery_policy": policy,
    })


def pinned_scenarios():
    """Scenarios whose bytes the goldens miss: every engine path.

    Fault storms under each recovery policy, an explicit link cut and
    its port-swap repair, a host death that leaves the queue
    unplaceable, preemption and elastic resize on a shared substrate,
    and wall-clock trace jobs under fast-forward.
    """
    shared = ScenarioSpec.preset("shared")
    return [pinned_fleet(policy)
            for policy in ("detour", "reoptimize", "checkpoint-restart")] + [
        shared.with_overrides({
            "name": "pin-link-cut",
            "faults.events": [{"kind": "link", "time_s": 0.02,
                               "job_index": 0, "repair_s": 0.05}],
        }),
        shared.with_overrides({
            "name": "pin-unplaceable", "servers": 8,
            "faults.events": [{"kind": "server", "time_s": 0.01,
                               "server": 3}],
        }),
        golden_scenario_spec("preempt").with_overrides({"fabric": "fattree"}),
        golden_scenario_spec("elastic").with_overrides({"fabric": "fattree"}),
        ScenarioSpec.preset("lifetime").with_overrides({
            "name": "pin-wallclock", "servers": 32, "durations": "wallclock",
            "fast_forward": True, "max_sim_time_s": 4e7,
        }),
    ]


class TestContentHash:
    def test_stable_across_to_dict_round_trip(self):
        spec = cheap_spec()
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert spec.content_hash() == again.content_hash()

    def test_stable_across_dict_key_orderings(self):
        """Canonical JSON sorts keys, so insertion order cannot matter."""
        spec = cheap_spec()
        data = spec.to_dict()
        reordered = {key: data[key] for key in reversed(list(data))}
        assert (
            ExperimentSpec.from_dict(reordered).content_hash()
            == spec.content_hash()
        )

    def test_seed_is_part_of_the_key(self):
        assert cheap_spec(seed=0).content_hash() != (
            cheap_spec(seed=1).content_hash()
        )

    def test_any_field_change_changes_the_key(self):
        spec = cheap_spec()
        assert spec.content_hash() != (
            spec.with_overrides({"cluster.degree": 3}).content_hash()
        )

    def test_stable_across_processes(self):
        """The hash is a pure function of the JSON: no per-process salt
        (PYTHONHASHSEED) may leak in, or a shared store would be
        useless across workers."""
        spec = cheap_spec()
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["PYTHONHASHSEED"] = "12345"
        script = (
            "import json, sys\n"
            "from repro.api.spec import ExperimentSpec\n"
            "spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.content_hash())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(spec.to_dict())],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == spec.content_hash()

    def test_scenario_spec_hashes_too(self):
        scenario = ScenarioSpec.preset("shared")
        key = scenario.content_hash()
        assert len(key) == 64
        assert (
            ScenarioSpec.from_dict(scenario.to_dict()).content_hash()
            == key
        )
        assert scenario.with_overrides({"seed": 9}).content_hash() != key


class TestResultStore:
    def test_round_trip_byte_identity(self, tmp_path):
        """A store-served result is byte-for-byte the fresh compute."""
        spec = cheap_spec()
        fresh = run_experiment(spec)
        store = ResultStore(tmp_path)
        store.put(spec, fresh)
        # A brand-new store instance forces the disk tier.
        served = ResultStore(tmp_path).get(spec)
        assert (
            canonical_json(served.to_dict())
            == canonical_json(fresh.to_dict())
        )

    def test_memory_only_store_round_trips(self):
        spec = cheap_spec()
        store = ResultStore()
        assert store.get(spec) is None
        store.put(spec, run_experiment(spec))
        assert store.get(spec) is not None
        assert store.path_for(store.key_for(spec)) is None

    def test_disk_layout_is_sharded_and_version_stamped(self, tmp_path):
        spec = cheap_spec()
        store = ResultStore(tmp_path)
        key = store.put(spec, run_experiment(spec))
        path = store.path_for(key)
        assert path == tmp_path / key[:2] / f"{key}.json"
        entry = json.loads(path.read_text())
        assert entry["version"] == STORE_VERSION
        assert entry["key"] == key

    def test_corrupted_entry_is_a_miss_not_an_error(self, tmp_path):
        spec = cheap_spec()
        store = ResultStore(tmp_path)
        key = store.put(spec, run_experiment(spec))
        store.path_for(key).write_text("{ not json at all")
        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        stats = fresh.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        spec = cheap_spec()
        store = ResultStore(tmp_path)
        key = store.put(spec, run_experiment(spec))
        path = store.path_for(key)
        path.write_text(path.read_text()[: 40])
        assert ResultStore(tmp_path).get(spec) is None

    def test_version_or_key_mismatch_is_a_miss(self, tmp_path):
        spec = cheap_spec()
        store = ResultStore(tmp_path)
        key = store.put(spec, run_experiment(spec))
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        entry["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(entry))
        assert ResultStore(tmp_path).get(spec) is None
        entry["version"] = STORE_VERSION
        entry["key"] = "0" * 64
        path.write_text(json.dumps(entry))
        assert ResultStore(tmp_path).get(spec) is None

    def test_entry_stamped_version_one_is_a_miss(self, tmp_path):
        # Version-1 stores hold results from before a change that moved
        # some co-search floats by an ULP under unchanged content hashes.
        spec = cheap_spec()
        store = ResultStore(tmp_path)
        key = store.put(spec, run_experiment(spec))
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        entry["version"] = 1
        path.write_text(json.dumps(entry))
        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        assert fresh.stats()["misses"] == 1

    def test_concurrent_writers_same_key_no_torn_files(self, tmp_path):
        """Last-write-wins: N threads racing one key leave exactly one
        readable entry and no temp-file debris."""
        spec = cheap_spec()
        result = run_experiment(spec)
        store = ResultStore(tmp_path)
        barrier = threading.Barrier(8)

        def writer():
            barrier.wait()
            store.put(spec, result)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served = ResultStore(tmp_path).get(spec)
        assert (
            canonical_json(served.to_dict())
            == canonical_json(result.to_dict())
        )
        debris = [
            p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert debris == []
        assert store.stats()["puts"] == 8

    def test_memory_lru_evicts_but_disk_retains(self, tmp_path):
        specs = [cheap_spec(seed=i) for i in range(3)]
        result = run_experiment(specs[0])
        store = ResultStore(tmp_path, memory_entries=2)
        for spec in specs:
            # The stored result's own spec doesn't matter to the tiers.
            store.put(spec, result)
        stats = store.stats()
        assert stats["evictions"] == 1
        assert stats["memory_entries"] == 2
        assert stats["disk_entries"] == 3
        # The evicted (oldest) key comes back from disk.
        assert store.get(specs[0]) is not None
        assert store.stats()["disk_hits"] == 1

    def test_clear_and_keys(self, tmp_path):
        specs = [cheap_spec(seed=i) for i in range(2)]
        result = run_experiment(specs[0])
        store = ResultStore(tmp_path)
        keys = sorted(store.put(spec, result) for spec in specs)
        assert store.keys() == keys
        assert store.clear() == 2
        assert store.keys() == []
        assert store.get(specs[0]) is None

    def test_contains_counts_nothing(self, tmp_path):
        spec = cheap_spec()
        store = ResultStore(tmp_path)
        assert not store.contains(spec)
        store.put(spec, run_experiment(spec))
        assert store.contains(spec)
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_rejects_bad_memory_bound(self):
        with pytest.raises(ValueError):
            ResultStore(memory_entries=0)

    def test_store_version_pins_result_bytes(self):
        """Stored bytes may only move together with ``STORE_VERSION``.

        A store keys results by spec hash alone, so a change that moves
        a result's bytes under an unchanged spec must bump the version,
        or an old disk store keeps serving the old bytes.
        """
        digest = hashlib.sha256()
        events, kinds = set(), set()
        fast_forwarded = wallclock = 0
        specs = [golden_scenario_spec(key) for key in sorted(GOLDEN_POLICIES)]
        for spec in specs + pinned_scenarios():
            result = run_scenario(spec)
            digest.update(canonical_json(result.to_dict()).encode())
            events.update(entry["event"] for entry in result.scheduler_log)
            kinds.update(entry["kind"] for entry in result.failure_log)
            fast_forwarded += sum(
                job.iteration_counts is not None for job in result.jobs
            )
            wallclock += sum(job.duration_s is not None for job in result.jobs)
        result = run_experiment(pinned_experiment())
        digest.update(canonical_json(result.to_dict()).encode())
        # The pin covers every engine path, not just fault-free runs.
        assert events >= {
            "admit", "preempt", "resize", "depart", "fault", "repair",
            "suspend", "recover", "unfinished",
        }
        assert kinds >= {
            "storm", "server_fail", "server_repair", "mp_detour",
            "port_swap", "link_cut", "reoptimize", "skipped",
        }
        assert fast_forwarded and wallclock
        assert RESULT_DIGESTS.get(STORE_VERSION) == digest.hexdigest(), (
            "stored result bytes changed: bump STORE_VERSION in "
            "repro/service/store.py and pin the new digest "
            f"{digest.hexdigest()} under it in RESULT_DIGESTS"
        )
