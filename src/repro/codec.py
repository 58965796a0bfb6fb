"""One reflective codec for every spec, result and report dataclass.

Declarative specs (:mod:`repro.api.spec`, :mod:`repro.cluster.spec`,
:mod:`repro.cluster.faults`) derive from :class:`Spec`; typed results
and reports (:mod:`repro.api.results`, :mod:`repro.cluster.results`,
:mod:`repro.obs.report`, :mod:`repro.service.metrics`) from
:class:`Record`.  From ``dataclasses.fields()`` plus the resolved type
hints, compiled once per class, the codec derives ``to_dict`` (fresh
JSON-native data that never aliases the record), ``from_dict`` (its
exact inverse; unknown keys raise :class:`SpecError`), and for specs
``content_hash`` (SHA-256 of the canonical JSON, computed once) and
``with_overrides``.

**Type rules.**  Spec fields are checked at construction, so a
constructor call and ``from_dict`` raise the same :class:`SpecError`,
naming the field path.  ``int`` fields take integers, never ``bool``
or ``float`` (NumPy integers become ``int``); ``float`` fields take
finite reals and store ``float``; strings, bools, tuples and mappings
must be what the field declares; a nested spec may be given as its
dict.  ``Dict[str, Any]`` fields (``options``) hold any JSON value,
hashed as given, read-only (:class:`FrozenDict`, :class:`FrozenList`).
Result fields keep their value's JSON type; only NumPy integers in
scalar fields become ``int``.

**Field metadata** (:func:`field`): ``ge``/``gt`` bound a spec number
from below; ``omit_default`` leaves a key out of the JSON and the hash
while it holds its default -- how a new field joins without moving
existing hashes; ``off_json`` keeps a measured field out of the JSON
and of equality (``wall_time_s``); ``decode`` dispatches a polymorphic
field (the sweep's ``base_spec`` and ``result``).  The ``derived=``
class keyword adds output-only blocks (``metrics``, ``provenance``,
the scenario ``type`` tag), dropped again on input.

**Interning.**  :func:`spec_from_dict`, the one spec dispatcher (the
service's ``spec_from_request``), hands a repeated request the spec it
built before, keyed by the request's canonical JSON: specs are
immutable, and a parse reads only append-only registries and constant
tables.  A shared spec's ``to_dict()`` still hands out fresh
containers, so no caller sees another's edits.

>>> from repro.api.spec import ClusterSpec
>>> ClusterSpec(servers=8, bandwidth_gbps=100).bandwidth_gbps
100.0
>>> ClusterSpec(servers="8")
Traceback (most recent call last):
    ...
repro.codec.SpecError: cluster.servers: expected an integer, got '8'
>>> ClusterSpec.from_dict({"servers": 8}) == ClusterSpec(servers=8)
True
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import threading
import typing
from collections import OrderedDict
from collections.abc import Mapping
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

NoneType = type(None)
MISSING = dataclasses.MISSING


class SpecError(ValueError):
    """A spec failed validation or deserialization."""


def canonical_json(data: Any) -> str:
    """The canonical JSON encoding content hashes are computed over.

    Sorted keys and compact separators, so the encoding is a pure
    function of the *content* -- dict insertion order, whitespace, and
    construction path all wash out.

    >>> canonical_json({"b": 1, "a": [2, 3]})
    '{"a":[2,3],"b":1}'
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Read-only JSON values
# ----------------------------------------------------------------------

def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is read-only")


class FrozenDict(dict):
    """A read-only ``dict`` that compares, pickles and encodes like one.

    Built only by :func:`freeze`, so everything inside is frozen too.
    """

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return FrozenDict, (dict(self),)


class FrozenList(list):
    """A read-only ``list``; see :class:`FrozenDict`."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = _read_only
    sort = reverse = _read_only

    def __reduce__(self):
        return type(self), (list(self),)


class _ScalarList(FrozenList):
    """A FrozenList of JSON scalars only: thaw copies it whole."""

    __slots__ = ()


_FROZEN = frozenset({FrozenDict, FrozenList, _ScalarList})
_JSON_SCALARS = frozenset({str, int, float, bool, NoneType})
_MAPPING = (dict, Mapping)  # a dict passes without the ABC check


def freeze(value: Any, path: Optional[str] = None) -> Any:
    """A read-only deep copy of a JSON value.

    With a ``path`` (a spec field), anything JSON cannot carry -- a
    non-string key, a non-finite float, another type -- raises
    :class:`SpecError` naming the field.
    """
    kind = type(value)
    if kind in _FROZEN:
        return value
    if kind in _JSON_SCALARS:
        if path is not None and kind is float and not math.isfinite(value):
            raise SpecError(f"{path}: expected a finite number, got {value!r}")
        return value
    plain = path is None  # scalars inside need no check
    if isinstance(value, (list, tuple)):
        if _JSON_SCALARS.issuperset(map(type, value)):
            if not plain:
                for item in value:
                    freeze(item, path)  # a float must be finite
            return _ScalarList(value)
        return FrozenList([
            item if plain and type(item) in _JSON_SCALARS
            else freeze(item, path)
            for item in value
        ])
    if isinstance(value, _MAPPING):
        if not plain and not all(isinstance(k, str) for k in value):
            raise SpecError(f"{path}: keys must be strings, got {value!r}")
        return FrozenDict({
            key: item if plain and type(item) in _JSON_SCALARS
            else freeze(item, path)
            for key, item in value.items()
        })
    if path is not None:
        raise SpecError(f"{path}: {value!r} is not a JSON value")
    return value


def thaw(value: Any) -> Any:
    """A fresh, mutable copy of a JSON value (the inverse of freeze)."""
    if type(value) is _ScalarList:
        return list(value)
    if isinstance(value, dict):
        return {
            key: item if type(item) in _JSON_SCALARS else thaw(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            item if type(item) in _JSON_SCALARS else thaw(item)
            for item in value
        ]
    return value


def field(
    default: Any = MISSING,
    *,
    default_factory: Any = MISSING,
    ge: Any = None,
    gt: Any = None,
    omit_default: bool = False,
    off_json: bool = False,
    decode: Optional[Callable[[Any], Any]] = None,
) -> Any:
    """A ``dataclasses.field`` carrying the codec's per-field metadata.

    ``ge``/``gt`` bound a spec number from below (None passes).
    """
    return dataclasses.field(
        default=default,
        default_factory=default_factory,
        compare=not off_json,
        metadata={
            "bound": (">=", ge) if ge is not None else (
                (">", gt) if gt is not None else None
            ),
            "omit_default": omit_default,
            "off_json": off_json,
            "decode": decode,
        },
    )


# ----------------------------------------------------------------------
# Polymorphic dispatch: the one spec and the one result dispatcher
# ----------------------------------------------------------------------

#: Upper bound on the total length of the spec intern's keys (4 MiB).
INTERN_KEY_CHARS = 4 << 20


class _SpecIntern:
    """A thread-safe LRU from a request's canonical JSON to its spec.

    Bounded by the total length of its keys, not by an entry count.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.size = 0
        self.lock = threading.Lock()
        self.specs: "OrderedDict[str, Any]" = OrderedDict()

    def get(self, key: str):
        with self.lock:
            spec = self.specs.get(key)
            if spec is not None:
                self.specs.move_to_end(key)
            return spec

    def put(self, key: str, spec) -> None:
        if len(key) > self.bound:
            return
        with self.lock:
            if key in self.specs:  # a racing parse of the same request
                return
            self.specs[key] = spec
            self.size += len(key)
            while self.size > self.bound:
                evicted, _ = self.specs.popitem(last=False)
                self.size -= len(evicted)


_SPEC_INTERN = _SpecIntern(INTERN_KEY_CHARS)
_STR = frozenset({str})


def _plain_json(node: Any) -> bool:
    """True for a value built of ``dict`` (``str`` keys), ``list`` and
    JSON scalars only, subclasses excluded."""
    kind = type(node)
    if kind is dict:
        if not _STR.issuperset(map(type, node)):
            return False
        items = node.values()
    elif kind is list:
        items = node
    else:
        return kind in _JSON_SCALARS
    for item in items:
        if type(item) not in _JSON_SCALARS and not _plain_json(item):
            return False
    return True


def _intern_key(data: Any) -> Optional[str]:
    """The canonical JSON of a plain JSON request object, or None.

    ``json.dumps`` writes a number, bool or None key as a string and a
    tuple as a list, so a request with one could share its text with a
    twin that parses differently (``{1: "x"}`` under ``options`` is a
    ``SpecError``, ``{"1": "x"}`` is not): only plain requests get a key.
    """
    if type(data) is not dict:
        return None
    try:
        # Encoding first stops at a cycle, which the walk would chase.
        key = canonical_json(data)
        plain = _plain_json(data)
    except (TypeError, ValueError, RecursionError):
        return None
    return key if plain else None


def _parse_spec(data: Mapping[str, Any]):
    if isinstance(data, _MAPPING) and "arrivals" in data:
        from repro.cluster.spec import ScenarioSpec

        return ScenarioSpec.from_dict(data)
    from repro.api.spec import ExperimentSpec

    return ExperimentSpec.from_dict(data)


def spec_from_dict(data: Mapping[str, Any]):
    """An ExperimentSpec or ScenarioSpec: only scenarios have ``arrivals``.

    Interned: a plain JSON request (dicts with ``str`` keys, lists,
    JSON scalars) whose canonical JSON built a spec before gets that
    same immutable spec back, its ``content_hash`` already computed,
    without parsing or validating again.  Only successful parses are
    kept, in an LRU bounded by :data:`INTERN_KEY_CHARS` of keys.

    >>> request = {"name": "twin", "cluster": {"servers": 8}}
    >>> spec_from_dict(request) is spec_from_dict(dict(request))
    True
    """
    key = _intern_key(data)
    if key is not None:
        spec = _SPEC_INTERN.get(key)
        if spec is not None:
            return spec
    spec = _parse_spec(data)
    if key is not None:
        _SPEC_INTERN.put(key, spec)
    return spec


def result_from_dict(data: Mapping[str, Any]):
    """A ScenarioResult (tagged ``"type": "scenario"``) or ExperimentResult."""
    if isinstance(data, _MAPPING) and data.get("type") == "scenario":
        from repro.cluster.results import ScenarioResult

        return ScenarioResult.from_dict(data)
    from repro.api.results import ExperimentResult

    return ExperimentResult.from_dict(data)


# ----------------------------------------------------------------------
# Overrides
# ----------------------------------------------------------------------

def _descend(node: Any, part: str, key: str, path) -> Any:
    """One step of a dotted override path (dict key or list index)."""
    if isinstance(node, list):
        try:
            index = int(part)
        except ValueError:
            index = -1
        if not 0 <= index < len(node):
            raise SpecError(
                f"override {key!r}: no spec field {'.'.join(path)!r}"
            )
        return node[index]
    if isinstance(node, Mapping) and part in node:
        return node[part]
    raise SpecError(f"override {key!r}: no spec field {'.'.join(path)!r}")


def apply_overrides(
    data: Dict[str, Any],
    overrides: Mapping[str, Any],
    shorthands: Mapping[str, str],
) -> Dict[str, Any]:
    """Apply dotted-path (or shorthand) overrides to a spec dict in place.

    Keys are full dotted paths into the spec dict
    (``"cluster.servers"``, ``"jobs.0.model"`` -- numeric parts index
    into lists) or entries of ``shorthands``.  Unknown leaves are
    rejected except under an ``options`` mapping, whose keys are
    open-ended.  An empty string clears a list field (the CLI's
    ``--set baselines=``).
    """
    for key, value in overrides.items():
        path = shorthands.get(key, key).split(".")
        node = data
        for part in path[:-1]:
            node = _descend(node, part, key, path)
        leaf = path[-1]
        if isinstance(node, list):
            _descend(node, leaf, key, path)  # bounds check
            node[int(leaf)] = value
            continue
        in_options = len(path) >= 2 and path[-2] == "options"
        if not isinstance(node, dict) or (
            leaf not in node and not in_options
        ):
            raise SpecError(
                f"override {key!r}: no spec field {'.'.join(path)!r}"
            )
        if value == "" and isinstance(node.get(leaf), list):
            value = []
        node[leaf] = value
    return data


# ----------------------------------------------------------------------
# Per-class plans
# ----------------------------------------------------------------------

#: Encoding modes: the JSON and the override base (nothing omitted,
#: and an absent nested spec spelled out, so every field has a path).
JSON, FULL = 0, 1


class _Plan(NamedTuple):
    #: ``(name, exact type, check)``: construction normalizes each
    #: value through its check unless it has the exact type already.
    checks: Tuple[Tuple[str, Any, Callable], ...]
    #: Per mode: a compiled ``encode(record) -> dict``.
    encoders: Tuple[Callable[[Any], Dict[str, Any]], ...]
    allowed: frozenset
    required: frozenset
    #: The class's own ``_validate``, or None when it adds no checks.
    validate: Optional[Callable[[Any], None]]


_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _compile(cls)
    return plan


def _compile(cls: type) -> _Plan:
    hints = typing.get_type_hints(cls)
    strict = issubclass(cls, Spec)
    prefix = cls._codec_path + "." if cls._codec_path else ""
    checks, modes = [], ([], [])
    allowed, required = set(cls._codec_derived), set()
    for f in dataclasses.fields(cls):
        meta = f.metadata
        exact, check, encoder = _compile_type(
            hints[f.name], prefix + f.name, strict, meta.get("decode")
        )
        if meta.get("bound"):  # bounds are checked on every value
            exact = None
            check = _bounded(check, prefix + f.name, *meta["bound"])
        if check is not None:
            checks.append((f.name, exact, check))
        if meta.get("off_json"):
            continue
        allowed.add(f.name)
        if f.default is MISSING and f.default_factory is MISSING:
            required.add(f.name)
        omit, default = meta.get("omit_default", False), None
        if omit:
            default = f.default if f.default is not MISSING else (
                f.default_factory()
            )
        modes[JSON].append((f.name, encoder, omit, default))
        modes[FULL].append((f.name, encoder, False, None))
    derived = tuple(cls._codec_derived.items())
    validate = cls._validate if cls._validate is not Record._validate else None
    return _Plan(
        tuple(checks),
        tuple(
            _encoder(fields, derived if mode == JSON else (), mode)
            for mode, fields in enumerate(modes)
        ),
        frozenset(allowed), frozenset(required), validate,
    )


def _encoder(fields, derived, mode: int) -> Callable[[Any], Dict[str, Any]]:
    """``encode(record)`` for one class and mode: one pass over its fields."""
    fields = tuple(
        (name, encoder and encoder(mode), omit, default)
        for name, encoder, omit, default in fields
    )

    def encode(record):
        values = record.__dict__
        data = {}
        for name, encode_value, omit, default in fields:
            value = values[name]
            if omit and value == default:
                continue
            data[name] = value if encode_value is None else encode_value(value)
        for key, derive in derived:
            data[key] = derive(record)
        return data

    return encode


def _is_record(tp: Any) -> bool:
    return isinstance(tp, type) and issubclass(tp, Record)


def _expect(value: Any, kind: Any, path: str, noun: str) -> None:
    if not isinstance(value, kind):
        raise SpecError(f"{path}: expected {noun}, got {value!r}")


def _none_passes(fn: Optional[Callable]) -> Optional[Callable]:
    if fn is None:
        return None
    return lambda value: None if value is None else fn(value)


def _compile_type(tp, path, strict, decode=None, item=False):
    """``(exact type, check, encoder)`` for one annotation.

    ``check(value)`` normalizes a constructor argument (None: nothing
    to do); ``encoder(mode)`` gives the function mapping a stored value
    to JSON in that mode (None: the value is JSON already).  ``item``
    marks a tuple item.
    """
    if decode is not None:
        def check(value):
            return decode(value) if isinstance(value, _MAPPING) else value

        def encoder(mode):
            return lambda value: None if value is None else _encode(
                value, mode
            )

        return None, check, encoder
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[inner]
        (inner,) = [arg for arg in args if arg is not NoneType]
        exact, check, inner_encoder = _compile_type(
            inner, path, strict, None, item
        )

        def encoder(mode):
            encode = inner_encoder(mode)
            if mode == FULL and _is_record(inner):  # spell out the defaults
                return lambda value: encode(
                    inner() if value is None else value
                )
            return _none_passes(encode)

        return exact, _none_passes(check), inner_encoder and encoder
    if origin is tuple and args[-1] is Ellipsis:
        _, item_check, item_encoder = _compile_type(
            args[0], path, strict, None, True
        )

        def check(value):
            if not isinstance(value, (list, tuple)):
                raise SpecError(f"{path}: expected a list, got {value!r}")
            if item_check is None:
                return tuple(value)
            return tuple(map(item_check, value))

        def encoder(mode):
            if item_encoder is None:
                return list
            encode = item_encoder(mode)
            return lambda value: [encode(entry) for entry in value]

        return None, check, encoder
    if origin is tuple:
        item_checks = [
            _compile_type(arg, path, strict, None, True)[1] for arg in args
        ]
        if not any(item_checks):  # result items are taken as given
            return None, tuple, lambda mode: list

        def check(value):
            if not isinstance(value, (list, tuple)) or len(value) != len(args):
                raise SpecError(
                    f"{path}: expected a list of {len(args)}, got {value!r}"
                )
            return tuple(
                entry if entry_check is None else entry_check(entry)
                for entry_check, entry in zip(item_checks, value)
            )

        return None, check, lambda mode: list
    if origin in (dict, Mapping, list) or tp in (Any, object):
        expected = (list, tuple) if origin is list else (
            _MAPPING if origin else object
        )
        noun = "a list" if origin is list else "an object"

        def check(value):
            _expect(value, expected, path, noun)
            return freeze(value, path if strict else None)

        return None, check, lambda mode: thaw
    if _is_record(tp):
        def check(value):
            if isinstance(value, tp):
                return value
            if not isinstance(value, _MAPPING):
                _expect(value, Mapping, path, f"a {tp.__name__} object")
            return tp.from_dict(value)

        return tp, check, lambda mode: _plan(tp).encoders[mode]
    if strict:
        return _scalar(tp, path)
    if tp in (int, float) and not item:
        return tp, _plain_number, None
    return tp, None, None


def _bounded(check: Callable, path: str, op: str, bound: Any) -> Callable:
    def bounded(value):
        value = check(value)
        if value is not None and (
            value < bound if op == ">=" else value <= bound
        ):
            raise SpecError(f"{path} must be {op} {bound}, got {value}")
        return value

    return bounded


def _plain_number(value: Any) -> Any:
    """Result numbers keep their JSON type; NumPy integers become int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return value


#: Spec scalar annotation -> (accepted type, noun for errors).
_SCALARS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a finite number"),
    str: (str, "a string"),
    bool: (bool, "true or false"),
}


def _scalar(tp: type, path: str):
    accepted, noun = _SCALARS[tp]

    def check(value):
        if type(value) is tp or (
            isinstance(value, accepted)
            and (tp is bool or not isinstance(value, bool))
        ):
            value = tp(value)
            if tp is not float or math.isfinite(value):
                return value
        raise SpecError(f"{path}: expected {noun}, got {value!r}")

    # A float is checked even when it is one: it must be finite.
    return (None if tp is float else tp), check, None


def _encode(record: "Record", mode: int) -> Dict[str, Any]:
    plan = _PLANS.get(type(record)) or _plan(type(record))
    return plan.encoders[mode](record)


# ----------------------------------------------------------------------
# Base classes
# ----------------------------------------------------------------------

class Record:
    """Base of every codec-served frozen dataclass (results, reports).

    Class keywords: ``path`` prefixes field names in error messages
    (default: the class name); ``derived`` maps output-only keys to
    functions of the record.
    """

    _codec_path = ""
    _codec_derived: Dict[str, Callable] = {}

    def __init_subclass__(cls, path=None, derived=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._codec_path = cls.__name__ if path is None else path
        cls._codec_derived = dict(derived or {})

    def __post_init__(self):
        plan = _PLANS.get(type(self)) or _plan(type(self))
        values = self.__dict__
        for name, exact, check in plan.checks:
            value = values[name]
            if type(value) is not exact:
                checked = check(value)
                if checked is not value:
                    object.__setattr__(self, name, checked)
        if plan.validate is not None:
            plan.validate(self)

    def _validate(self) -> None:
        """Checks beyond the type rules; runs after them."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dict, a fresh copy; exact inverse of from_dict."""
        return _encode(self, JSON)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Rebuild from :meth:`to_dict` output (or a parsed JSON file)."""
        plan = _PLANS.get(cls) or _plan(cls)
        if not isinstance(data, _MAPPING):
            _expect(data, Mapping, cls.__name__, "a JSON object")
        if not plan.allowed.issuperset(data):
            unknown = sorted(data.keys() - plan.allowed, key=str)
            raise SpecError(
                f"{cls.__name__}: unknown keys {unknown}; "
                f"allowed: {sorted(plan.allowed)}"
            )
        if not data.keys() >= plan.required:
            missing = sorted(plan.required - data.keys())
            raise SpecError(f"{cls.__name__}: missing keys {missing}")
        derived = cls._codec_derived
        if derived:
            data = {k: v for k, v in data.items() if k not in derived}
        return cls(**data)


class Spec(Record):
    """Base of every declarative spec: typed fields, hash, overrides.

    Class keyword ``shorthands`` maps short override keys to dotted
    paths for :meth:`with_overrides`.
    """

    _codec_shorthands: Dict[str, str] = {}

    def __init_subclass__(cls, shorthands=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._codec_shorthands = dict(shorthands or {})

    def content_hash(self) -> str:
        """SHA-256 of ``canonical_json(self.to_dict())`` -- the store key.

        Equal specs hash equal however they were built (constructor,
        ``from_dict``, overrides, ``100`` or ``100.0`` for a float);
        any change to a serialized field -- including ``seed`` --
        changes it.  Computed once per spec.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            payload = canonical_json(self.to_dict()).encode("utf-8")
            digest = hashlib.sha256(payload).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
        return digest

    def with_overrides(self, overrides: Mapping[str, Any]):
        """A copy with dotted-path (or shorthand) fields replaced.

        Keys are dotted paths into the spec dict (``"cluster.servers"``,
        ``"jobs.0.model"``, ``"fabric.options.servers_per_rack"``) --
        fields omitted from the JSON at their default included -- or
        the class's shorthands.  The result is re-validated.
        """
        data = apply_overrides(
            _encode(self, FULL), overrides, self._codec_shorthands
        )
        return type(self).from_dict(data)
