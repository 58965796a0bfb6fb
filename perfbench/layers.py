"""The traced run: attribute one pass's wall time to the repo's modules.

A :class:`Ledger` installs a :class:`repro.obs.TraceRecorder` and, for
the duration of the traced pass only, wraps public entry points the
existing spans do not cover (``run_experiment``, ``prepare``,
``build_fabric``, ``time_fabric``, ``run_scenario``,
``topology_finder``, ``content_hash``, ``SharedClusterSimulator``'s
``advance_to`` / ``next_event_time``) plus a timing proxy over the
``ResultStore`` handed to ``BatchExecutor``.  Wrappers are looked up by
the program at call time (module attributes, class attributes), so the
traced client makes exactly the calls the untraced one makes and its
results are byte-identical.

After every request the spans are folded into per-layer *self time*: a
span's duration minus the part its child spans cover.  Nesting is read
from the intervals, across threads, which is exact here because one
closed-loop client keeps one request in flight.  The self times plus
the unattributed residual add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, List, Tuple

import repro.api.runner as runner
import repro.cluster.engine as engine
from repro.api.spec import ExperimentSpec
from repro.cluster.spec import ScenarioSpec
from repro.obs import TRACER, TraceRecorder
from repro.obs.tracer import SpanEvent
from repro.perf import warmcache
from repro.sim.cluster import SharedClusterSimulator

# ``repro.core`` re-exports the function under the module's own name.
topology_finder_mod = importlib.import_module("repro.core.topology_finder")

#: Span name -> ledger layer.  ``bench.request``'s own self time (the
#: client loop between its child spans) is the unattributed residual.
LAYER_OF_SPAN = {
    "bench.request": "residual",
    "bench.parse": "api.spec.parse",
    "bench.hash": "api.spec.hash",
    "bench.serialize": "results.serialize",
    "bench.store.get.memory": "service.store.get_memory",
    "bench.store.get.disk": "service.store.get_disk",
    "bench.store.put": "service.store.put",
    "service.request": "service.executor",
    "bench.run_experiment": "api.runner",
    "experiment.time_fabric": "api.runner",
    "experiment.prepare": "api.runner.prepare",
    "bench.prepare": "api.runner.prepare",
    "bench.build_fabric": "api.registry.build_fabric",
    "bench.fabric.topoopt": "sim.fluid.topoopt",
    "bench.fabric.fattree": "sim.fluid.fattree",
    "bench.fabric.ocs-reconfig": "sim.reconfig.ocs",
    "pipeline.round": "core.alternating",
    "pipeline.mcmc_search": "parallel.mcmc",
    "mcmc.chain": "parallel.mcmc",
    "pipeline.topology_solve": "core.topology_finder",
    "bench.topology_finder": "core.topology_finder",
    "pipeline.lp_assembly": "core.routing_lp",
    "bench.run_scenario": "cluster.engine",
    "engine.step": "cluster.engine.step",
    "engine.pipeline_build": "cluster.engine.pipeline_build",
    "engine.control": "cluster.scheduler",
    "engine.fault": "cluster.faults",
    "bench.advance": "sim.cluster.advance",
    "bench.next_event": "sim.cluster.next_event",
    "flow.solve": "sim.cluster.solve",
}

#: Child spans may end a few ulps after their parent.
_EPS = 1e-6


class TimedStore:
    """A timing proxy over a ``ResultStore`` (public API only).

    A read is a memory hit exactly when the store hands back an object
    it handed out or received before -- the memory tier returns cached
    objects, a disk read rebuilds a new one.  The proxy keeps those
    objects alive so their ids cannot be reused.
    """

    def __init__(self, store, ledger: "Ledger"):
        self._store = store
        self._ledger = ledger
        self._seen: Dict[int, Any] = {}

    def get(self, spec):
        began = time.perf_counter()
        result = self._store.get(spec)
        ended = time.perf_counter()
        tier = "memory" if id(result) in self._seen else "disk"
        if result is not None:
            self._seen[id(result)] = result
        self._ledger.record(f"bench.store.get.{tier}", began, ended)
        return result

    def put(self, spec, result):
        began = time.perf_counter()
        key = self._store.put(spec, result)
        self._ledger.record("bench.store.put", began, time.perf_counter())
        self._seen[id(result)] = result
        return key

    def __getattr__(self, name):
        return getattr(self._store, name)


class Ledger:
    """Per-layer self time, inclusive time and span counts of a pass."""

    def __init__(self):
        self.recorder = TraceRecorder()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.iterations = 0
        #: Seconds spent folding spans during the pass (not program time).
        self.fold_s = 0.0
        self.cache_stats: Dict[str, Dict[str, int]] = {}

    def span(self, name: str, **args):
        if name == "bench.request":
            return self._request_span(args)
        return TRACER.span(name, cat="bench", **args)

    @contextmanager
    def _request_span(self, args):
        with TRACER.span("bench.request", cat="bench", **args):
            yield
        self.fold()

    def record(self, name: str, began: float, ended: float) -> None:
        """Add a finished span timed with ``time.perf_counter``."""
        recorder = self.recorder
        recorder.add_span(SpanEvent(
            name, "bench", began - recorder._t0, ended - began, 0,
            threading.get_ident(), recorder.next_seq(), None,
        ))

    def store_proxy(self, store) -> TimedStore:
        return TimedStore(store, self)

    @contextmanager
    def installed(self):
        """Record into this ledger with every wrapper in place."""
        warmcache.reset_stats()
        with ExitStack() as stack:
            stack.enter_context(TRACER.recording(self.recorder))
            for owner, name, wrapper in self._wrappers():
                original = getattr(owner, name)
                setattr(owner, name, wrapper(original))
                stack.callback(setattr, owner, name, original)
            yield self
        # Fold what the last request left; ``fold_s`` keeps counting only
        # the folding done inside the pass, which its wall time includes.
        in_pass = self.fold_s
        self.fold()
        self.fold_s = in_pass
        self.cache_stats = warmcache.stats()

    def _wrappers(self) -> List[Tuple[Any, str, Any]]:
        def spanned(span_name):
            def wrap(original):
                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    with TRACER.span(span_name, cat="bench"):
                        return original(*args, **kwargs)
                return wrapper
            return wrap

        def fabric(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                kind = kwargs.get("kind", args[3] if len(args) > 3 else "")
                with TRACER.span(f"bench.fabric.{kind}", cat="bench"):
                    return original(*args, **kwargs)
            return wrapper

        # Stepping runs once per simulated event: batch spans keep it to
        # one (start, end) pair per call.
        advance_span = TRACER.batch_span("bench.advance", cat="bench")
        next_span = TRACER.batch_span("bench.next_event", cat="bench")

        def advance(original):
            @functools.wraps(original)
            def wrapper(simulator, target):
                with advance_span:
                    done = original(simulator, target)
                self.iterations += len(done)
                return done
            return wrapper

        def next_event(original):
            @functools.wraps(original)
            def wrapper(simulator):
                with next_span:
                    return original(simulator)
            return wrapper

        return [
            (runner, "run_experiment", spanned("bench.run_experiment")),
            (runner, "prepare", spanned("bench.prepare")),
            (runner, "build_fabric", spanned("bench.build_fabric")),
            (runner, "time_fabric", fabric),
            (engine, "run_scenario", spanned("bench.run_scenario")),
            (topology_finder_mod, "topology_finder",
             spanned("bench.topology_finder")),
            (ExperimentSpec, "content_hash", spanned("bench.hash")),
            (ScenarioSpec, "content_hash", spanned("bench.hash")),
            (SharedClusterSimulator, "advance_to", advance),
            (SharedClusterSimulator, "next_event_time", next_event),
        ]

    def fold(self) -> None:
        """Fold the recorded spans into the ledger and drop them."""
        began = time.perf_counter()
        recorder = self.recorder
        recorder.flush()
        spans, recorder.spans = recorder.spans, []
        recorder.timelines.clear()
        items = sorted(
            (
                (s.start_s, s.start_s + s.dur_s, _span_key(s))
                for s in spans
            ),
            key=lambda item: (item[0], -item[1]),
        )
        stack: List[List[Any]] = []  # [start, end, key, children_s]
        for start, end, key in items:
            while stack and end > stack[-1][1] + _EPS:
                self._close(stack.pop())
            if stack:
                stack[-1][3] += end - start
            stack.append([start, end, key, 0.0])
            self.calls[key] += 1
            self.total_s[key] += end - start
        while stack:
            self._close(stack.pop())
        self.fold_s += time.perf_counter() - began

    def _close(self, node) -> None:
        start, end, key, children = node
        name = key.split("|")[0]
        self.self_s[LAYER_OF_SPAN.get(name, "other." + name)] += max(
            end - start - children, 0.0
        )


def _span_key(span) -> str:
    if span.name == "service.request" and span.args:
        return f"service.request|{span.args.get('route')}"
    return span.name
