"""The codec behind every spec and result (:mod:`repro.codec`).

Properties (hypothesis): any JSON value at any position of a valid
spec dict parses or raises ``SpecError``; whatever parses round-trips
through ``to_dict``/``from_dict`` and JSON and keeps its hash; equal
specs hash equal; the hash is the SHA-256 of the canonical JSON, so
changing any one field changes it; the interned ``spec_from_dict``
gives what the uncached typed parse gives.
Plus one regression test per defect of the hand-written codecs this
module replaced and per rule of the spec intern, and the no-aliasing
contract of ``to_dict``.
"""

import dataclasses
import hashlib
import json
import math
import pickle
import secrets
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.codec as codec
from repro.api import parse_overrides
from repro.api.results import (
    ExperimentResult,
    FabricTiming,
    SearchSummary,
    StrategySummary,
    SweepPoint,
    SweepResult,
    TopologySummary,
    TrafficStats,
    WorkloadSummary,
)
from repro.api.runner import run_experiment
from repro.api.spec import (
    ClusterSpec,
    ExperimentSpec,
    FabricSpec,
    OptimizerSpec,
    SimSpec,
    SpecError,
    WorkloadSpec,
    canonical_json,
)
from repro.cluster.engine import run_scenario
from repro.cluster.faults import (
    FaultEventSpec,
    FaultScheduleSpec,
    RecoverySpec,
)
from repro.cluster.results import JobResult, ScenarioResult
from repro.cluster.spec import (
    ArrivalSpec,
    JobTemplateSpec,
    ScenarioSpec,
    SchedulerSpec,
)
from repro.cli import main
from repro.codec import FULL, Record, _encode, spec_from_dict
from repro.obs import TRACER, ObsReport
from repro.service import BatchExecutor
from repro.service.metrics import ServiceReport

#: Every class the codec serves.
CODEC_CLASSES = {
    WorkloadSpec, ClusterSpec, FabricSpec, OptimizerSpec, SimSpec,
    ExperimentSpec, JobTemplateSpec, ArrivalSpec, SchedulerSpec,
    ScenarioSpec, FaultEventSpec, FaultScheduleSpec, RecoverySpec,
    WorkloadSummary, StrategySummary, TrafficStats,
    TopologySummary, FabricTiming, SearchSummary, ExperimentResult,
    SweepPoint, SweepResult, JobResult, ScenarioResult, ObsReport,
    ServiceReport,
}


def faulted_scenario() -> ScenarioSpec:
    """The shared preset, shortened, with one explicit fault per kind."""
    spec = ScenarioSpec.preset("shared").with_overrides(
        {f"jobs.{index}.iterations": 2 for index in range(4)}
    )
    return spec.with_overrides({
        "faults.events": [
            {"kind": "link", "time_s": 0.02, "job_index": 0,
             "repair_s": 0.05},
            {"kind": "server", "time_s": 0.03, "server": 30},
            {"kind": "storm", "time_s": 0.04, "region_start": 16,
             "region_size": 4, "servers_hit": 1, "links_hit": 1,
             "repair_s": 0.3},
        ],
        "recovery_policy": "reoptimize",
    })


def spec_samples():
    """Specs covering every spec class and every optional block."""
    custom = ExperimentSpec(
        name="codec-custom",
        seed=7,
        workload=WorkloadSpec(
            model="DLRM", scale="custom",
            options={"num_embedding_tables": 4, "embedding_dim": 64},
        ),
        fabric=FabricSpec(
            kind="leaf-spine", options={"servers_per_rack": 8, "x": [1, 2]},
        ),
        optimizer=OptimizerSpec(strategy="auto"),
        sim=SimSpec(collect_link_bytes=True),
        baselines=(FabricSpec(kind="expander", degree=6),),
    )
    return [
        ExperimentSpec.preset("testbed"),
        ExperimentSpec.preset("simulation", "BERT"),
        custom,
        ScenarioSpec.preset("shared"),
        ScenarioSpec.preset("lifetime"),
        faulted_scenario().with_overrides({"storms": 2, "elastic": True}),
    ]


def cheap_experiment() -> ExperimentSpec:
    """A searched TopoOpt experiment timed on Fat-tree and OCS-reconfig."""
    return ExperimentSpec(
        name="codec-experiment",
        seed=3,
        workload=WorkloadSpec(model="DLRM", scale="testbed"),
        cluster=ClusterSpec(servers=8, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        optimizer=OptimizerSpec(rounds=1, mcmc_iterations=10),
        sim=SimSpec(collect_link_bytes=True),
        baselines=(FabricSpec(kind="fattree"),
                   FabricSpec(kind="ocs-reconfig")),
    )


@pytest.fixture(scope="module")
def results():
    """One instance of every result and report class."""
    experiment = run_experiment(cheap_experiment())
    with TRACER.recording() as recorder:
        scenario = run_scenario(faulted_scenario())
    with BatchExecutor(executor="serial") as service:
        service.drain([experiment.spec])
        report = service.report(wall_s=1.0)
    sweep = SweepResult(
        base_spec=scenario.spec,
        grid={"seed": [0, 1], "fabric": ["topoopt"]},
        points=(
            SweepPoint(overrides={"seed": 0}, seed=0, result=scenario,
                       attempts=2, cache_hit=True),
            SweepPoint(overrides={"seed": 1}, seed=1, error="boom"),
            SweepPoint(overrides={"seed": 2}, seed=2, result=experiment),
        ),
    )
    return [experiment, scenario, sweep, ObsReport.build(recorder), report]


def records_in(value):
    """Every record reachable from ``value``."""
    if isinstance(value, Record):
        yield value
        for f in dataclasses.fields(value):
            yield from records_in(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from records_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from records_in(item)


def json_round_trip(record):
    return type(record).from_dict(json.loads(json.dumps(record.to_dict())))


class TestRoundTrip:
    def test_every_class_round_trips(self, results):
        seen = set()
        for top in spec_samples() + results:
            for record in records_in(top):
                seen.add(type(record))
                assert type(record).from_dict(record.to_dict()) == record
                again = json_round_trip(record)
                assert again == record
                assert canonical_json(again.to_dict()) == canonical_json(
                    record.to_dict()
                )
                assert pickle.loads(pickle.dumps(record)) == record
        assert seen == CODEC_CLASSES


class TestNoAliasing:
    @staticmethod
    def mutate_everything(data):
        """Mutate every dict and list reachable from ``data``."""
        containers = []

        def walk(node):
            if isinstance(node, dict):
                containers.append(node)
                for item in list(node.values()):
                    walk(item)
            elif isinstance(node, list):
                containers.append(node)
                for item in list(node):
                    walk(item)

        walk(data)
        for node in containers:
            if isinstance(node, dict):
                for key in list(node):
                    node[key] = "mutated"
                node["extra"] = 1
            else:
                node[:] = ["mutated"]

    def test_to_dict_hands_out_fresh_state(self, results):
        experiment, scenario = results[:2]
        assert scenario.failure_log and scenario.scheduler_log
        for record in [experiment, scenario] + spec_samples():
            before = canonical_json(record.to_dict())
            self.mutate_everything(record.to_dict())
            assert canonical_json(record.to_dict()) == before
        # The metrics block is computed once and handed out fresh.
        metrics = canonical_json(scenario.metrics())
        before = canonical_json(scenario.to_dict())
        self.mutate_everything(scenario.metrics())
        self.mutate_everything(scenario.to_dict()["metrics"])
        assert canonical_json(scenario.metrics()) == metrics
        assert canonical_json(scenario.to_dict()) == before
        again = pickle.loads(pickle.dumps(scenario))
        assert again == scenario
        assert canonical_json(again.to_dict()) == before

    def test_nested_state_is_read_only(self, results):
        experiment, scenario = results[:2]
        spec = spec_samples()[2]
        with pytest.raises(TypeError):
            spec.fabric.options["servers_per_rack"] = 2
        with pytest.raises(TypeError):
            spec.fabric.options["x"].append(3)
        with pytest.raises(TypeError):
            scenario.failure_log[0]["kind"] = "mutated"
        with pytest.raises(TypeError):
            scenario.scheduler_log[0]["servers"].append(99)
        with pytest.raises(TypeError):
            experiment.topology.groups[0]["strides"].append(1)
        placement = next(iter(experiment.strategy.placements.values()))
        with pytest.raises(TypeError):
            placement["servers"].append(99)


#: JSON values to plant into spec dicts: registry names make some
#: mutations parse, the rest exercise the type rules.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40)
    | st.floats(-1e3, 1e3, allow_nan=False)
    | st.sampled_from(["", "topoopt", "fattree", "DLRM", "shared", "mcmc",
                       "auto", "link", "storm", "kernel", "poisson"]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=2)),
    max_leaves=5,
)


def positions(node, path=()):
    """Every path into a JSON value, containers and the root included."""
    yield path
    if isinstance(node, dict):
        for key, item in node.items():
            yield from positions(item, path + (key,))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from positions(item, path + (index,))


def planted(data, path, value):
    data = json.loads(json.dumps(data))
    if not path:
        return value
    node = data
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return data


SPEC_DICTS = [spec.to_dict() for spec in spec_samples()]


@st.composite
def mutated_spec_dicts(draw):
    data = draw(st.sampled_from(SPEC_DICTS))
    path = draw(st.sampled_from(list(positions(data))))
    return planted(data, path, draw(json_values))


class TestProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_spec_dicts())
    def test_any_json_anywhere_parses_or_raises_spec_error(self, data):
        try:
            spec = spec_from_dict(data)
        except SpecError:
            return
        again = json_round_trip(spec)
        assert again == spec
        assert again.content_hash() == spec.content_hash()
        assert type(spec).from_dict(spec.to_dict()) == spec

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_spec_dicts())
    def test_interned_parse_is_the_typed_parse(self, data):
        """Twice through the intern, a request gives what the uncached
        typed parse gives: an equal spec, or its ``SpecError``."""
        scenario = isinstance(data, dict) and "arrivals" in data
        typed = ScenarioSpec if scenario else ExperimentSpec
        try:
            expected = typed.from_dict(data)
        except SpecError as error:
            for _ in range(2):
                with pytest.raises(SpecError) as raised:
                    spec_from_dict(data)
                assert str(raised.value) == str(error)
            return
        first, second = spec_from_dict(data), spec_from_dict(data)
        assert first == expected and second == expected
        assert type(first) is typed
        assert second.content_hash() == expected.content_hash()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SPEC_DICTS), st.data())
    def test_unknown_keys_raise_spec_error(self, data, draw):
        objects = [
            path for path in positions(data)
            if isinstance(_at(data, path), dict) and "options" not in path
        ]
        path = draw.draw(st.sampled_from(objects))
        key = "x-" + draw.draw(st.text(max_size=4))  # never a field name
        with pytest.raises(SpecError, match="unknown keys"):
            spec_from_dict(planted(data, path + (key,), 1))

    @pytest.mark.parametrize("index", range(len(SPEC_DICTS)))
    def test_equal_specs_hash_equal(self, index):
        spec = spec_samples()[index]
        data = spec.to_dict()
        variants = [
            spec_from_dict(json.loads(json.dumps(data))),
            spec_from_dict(_integral_floats_as_ints(data)),
            spec_from_dict(_ints_as_numpy(data)),
            spec.with_overrides({}),
        ]
        for variant in variants:
            assert variant == spec
            assert variant.content_hash() == spec.content_hash()

    @pytest.mark.parametrize("index", range(len(SPEC_DICTS)))
    def test_single_field_change_changes_hash(self, index):
        spec = spec_samples()[index]
        assert spec.content_hash() == sha256_of_json(spec)
        full = _encode(spec, FULL)
        changed = 0
        for path in positions(full):
            leaf = _at(full, path)
            if "options" in path or isinstance(leaf, (dict, list)):
                continue
            for value in _other_values(leaf):
                try:
                    other = type(spec).from_dict(planted(full, path, value))
                except SpecError:
                    continue
                if other == spec:
                    continue
                changed += 1
                assert other.content_hash() != spec.content_hash(), path
                assert other.content_hash() == sha256_of_json(other)
        assert changed >= 10


def sha256_of_json(spec):
    """The store key by definition: SHA-256 of the spec's canonical JSON."""
    return hashlib.sha256(
        canonical_json(spec.to_dict()).encode("utf-8")
    ).hexdigest()


def _at(data, path):
    for part in path:
        data = data[part]
    return data


def _other_values(leaf):
    if isinstance(leaf, bool):
        return [not leaf]
    if isinstance(leaf, int):
        return [leaf + 1, leaf - 1]
    if isinstance(leaf, float):
        return [leaf * 2 + 1.0, leaf / 2]
    if leaf is None:
        return [1, 1.5]
    return [leaf + "x", "auto", "fattree", "BERT", "easy", "trace"]


def _integral_floats_as_ints(node, under_options=False):
    if isinstance(node, dict):
        return {
            key: _integral_floats_as_ints(
                item, under_options or key == "options"
            )
            for key, item in node.items()
        }
    if isinstance(node, list):
        return [_integral_floats_as_ints(item, under_options)
                for item in node]
    if isinstance(node, float) and node.is_integer() and not under_options:
        return int(node)
    return node


def _ints_as_numpy(node, under_options=False):
    if isinstance(node, dict):
        return {
            key: _ints_as_numpy(item, under_options or key == "options")
            for key, item in node.items()
        }
    if isinstance(node, list):
        return [_ints_as_numpy(item, under_options) for item in node]
    if type(node) is int and not under_options:
        return np.int64(node)
    return node


class TestBoundaryRegressions:
    """Each defect of the hand-written codecs, pinned."""

    @pytest.mark.parametrize("cls", [ExperimentSpec, ScenarioSpec])
    @pytest.mark.parametrize("seed", [1.0, True, 1.5, "1"])
    def test_seed_must_be_an_integer(self, cls, seed):
        with pytest.raises(SpecError, match="seed") as built:
            cls(seed=seed)
        with pytest.raises(SpecError) as parsed:
            cls.from_dict({"seed": seed})
        assert str(built.value) == str(parsed.value)

    def test_wrong_types_raise_spec_error_not_type_error(self):
        with pytest.raises(SpecError, match="cluster.servers"):
            ScenarioSpec.from_dict({"cluster": {"servers": "8"}})
        with pytest.raises(SpecError, match="jobs"):
            ScenarioSpec.from_dict({"jobs": 5})
        with pytest.raises(SpecError, match="ExperimentResult"):
            ExperimentResult.from_dict({"spec": {}})

    @pytest.mark.parametrize("overrides", [
        {"max_sim_time_s": math.inf},
        {"max_sim_time_s": math.nan},
        {"name": 3},
        {"fabric": {"options": 3}},
        {"fabric": {"options": {"x": object()}}},
        {"fabric": {"options": {"x": [1.0, math.inf]}}},
        {"arrivals": {"times": [0.0, "soon"]}},
    ])
    def test_malformed_scenario_fields_are_rejected(self, overrides):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(overrides)

    def test_integral_float_shares_one_hash(self):
        a = ExperimentSpec(cluster=ClusterSpec(bandwidth_gbps=100))
        b = ExperimentSpec(cluster=ClusterSpec(bandwidth_gbps=100.0))
        assert a == b
        assert a.content_hash() == b.content_hash()
        assert type(a.cluster.bandwidth_gbps) is float
        seed = ExperimentSpec(seed=np.int64(3))
        assert type(seed.seed) is int
        assert seed.content_hash() == ExperimentSpec(seed=3).content_hash()

    def test_fault_fields_of_another_kind_are_rejected(self):
        with pytest.raises(SpecError, match="job_index"):
            FaultEventSpec(kind="server", server=3, job_index=2)
        with pytest.raises(SpecError, match="region_start"):
            FaultEventSpec(kind="link", job_index=0, region_start=4)
        storm = FaultEventSpec(kind="storm", region_size=4, servers_hit=1)
        assert FaultEventSpec.from_dict(storm.to_dict()) == storm

    def test_options_read_only_and_picklable(self):
        spec = FabricSpec(kind="topoopt", options={"strides": (1, 3)})
        assert spec.options == {"strides": [1, 3]}
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(TypeError):
            spec.options.update(strides=[2])

    def test_content_hash_is_computed_once(self, monkeypatch):
        spec = ExperimentSpec.preset("testbed").with_overrides({"seed": 5})
        calls = []
        original = codec.canonical_json
        monkeypatch.setattr(
            codec, "canonical_json",
            lambda data: calls.append(1) or original(data),
        )
        assert spec.content_hash() == spec.content_hash()
        assert len(calls) == 1

    def test_one_dispatcher_per_direction(self):
        from repro.service.executor import spec_from_request

        assert spec_from_request is spec_from_dict
        assert isinstance(spec_from_dict(ScenarioSpec().to_dict()),
                          ScenarioSpec)

    @pytest.mark.parametrize("key, text", [
        (1, "1"), (1.5, "1.5"), (True, "true"), (None, "null"),
    ])
    def test_interned_twin_keeps_its_spec_error(self, key, text):
        # json.dumps writes such a key as a string: both requests have
        # one canonical text, and only the str-keyed one is a spec.
        valid = {"fabric": {"options": {text: "x"}}}
        invalid = {"fabric": {"options": {key: "x"}}}
        assert canonical_json(invalid) == canonical_json(valid)
        assert spec_from_dict(valid).fabric.options == {text: "x"}
        for _ in range(2):
            with pytest.raises(SpecError, match="keys must be strings"):
                spec_from_dict(invalid)

    @pytest.mark.parametrize("twin_first", [True, False])
    def test_tuples_and_numpy_integers_parse_equal_to_twins(
        self, twin_first
    ):
        data = spec_samples()[2].to_dict()
        data["name"] = f"intern-twins-{twin_first}"
        fabric = {**data["fabric"],
                  "options": {**data["fabric"]["options"], "x": (1, 2)}}
        variants = [
            {**data, "baselines": tuple(data["baselines"])},
            {**data, "seed": np.int64(data["seed"])},
            {**data, "fabric": fabric},
        ]
        expected = ExperimentSpec.from_dict(data)
        if twin_first:
            assert spec_from_dict(data) == expected
        for variant in variants:
            spec = spec_from_dict(variant)
            assert spec == expected
            assert spec.content_hash() == expected.content_hash()
        assert spec_from_dict(data) == expected

    def test_mutating_a_parsed_request_leaves_its_spec(self):
        data = spec_samples()[3].to_dict()
        original = json.loads(json.dumps(data))
        spec = spec_from_dict(data)
        data["seed"] += 1
        data["cluster"]["bandwidth_gbps"] = 25.0
        data["jobs"][0]["iterations"] = 1
        assert spec_from_dict(original) == spec
        assert spec_from_dict(data) == ScenarioSpec.from_dict(data) != spec

    def test_intern_is_an_lru_bounded_by_key_length(self):
        table = codec._SpecIntern(bound=10)
        for key in ("aaaa", "bbbb", "cccc"):
            table.put(key, key.upper())
        assert list(table.specs) == ["bbbb", "cccc"] and table.size == 8
        assert table.get("bbbb") == "BBBB"  # now the most recent
        table.put("dd", "DD")
        assert list(table.specs) == ["cccc", "bbbb", "dd"]
        table.put("x" * 11, "X")  # longer than the bound: never kept
        assert table.get("x" * 11) is None and table.size == 10

    def test_threads_parsing_the_same_requests_agree(self):
        token = secrets.token_hex(4)  # requests the intern has not seen
        requests = [
            {**spec.to_dict(), "name": f"intern-threads-{token}-{index}"}
            for index, spec in enumerate(spec_samples()[2:6])
        ]
        expected = [
            (ScenarioSpec if "arrivals" in data else ExperimentSpec)
            .from_dict(data) for data in requests
        ]
        barrier = threading.Barrier(8)
        parsed, errors = [], []

        def parse():
            try:
                barrier.wait(timeout=30)
                for _ in range(20):
                    parsed.append([spec_from_dict(data) for data in requests])
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(parsed) == 8 * 20
        assert all(specs == expected for specs in parsed)
        table = codec._SPEC_INTERN
        with table.lock:
            assert table.size == sum(map(len, table.specs))

    def test_observe_is_not_a_spec_field(self, capsys):
        # Observing a run is ``TRACER.recording()``; a spec file or a
        # ``serve-batch`` line that still asks for it is rejected.
        data = ScenarioSpec.preset("shared").to_dict()
        with pytest.raises(SpecError, match="unknown keys.*observe"):
            spec_from_dict({**data, "observe": True})
        with pytest.raises(SpecError, match="no spec field 'observe'"):
            ScenarioSpec.preset("shared").with_overrides(
                parse_overrides(["observe=true"])
            )
        assert main([
            "scenario", "--preset", "shared", "--set", "observe=true",
        ]) == 2
        assert "no spec field 'observe'" in capsys.readouterr().err
