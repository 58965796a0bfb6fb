"""Metric names and units: the single table ``BENCHMARK.json`` mirrors.

End-to-end metrics come from untraced runs only; per-layer metrics come
from the traced run only (``--trace 1``).  Every time in ``PER_LAYER``
is *self* time -- the layer's span minus its child spans -- except
``cluster.engine.run_s`` and ``service.executor.compute_ms``, which are
inclusive, so the self times plus ``residual.unattributed_s`` add up to
the traced pass's wall time.
"""

WORKLOADS = ("cosearch", "fleet", "serve")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("process.import_s", "s"),
    ("api.spec.calls", "count"),
    ("api.spec.parse_ms", "ms"),
    ("api.spec.hash_ms", "ms"),
    ("results.serialize_ms", "ms"),
    ("results.bytes", "bytes"),
    ("service.store.memory_hits", "count"),
    ("service.store.disk_hits", "count"),
    ("service.store.misses", "count"),
    ("service.store.evictions", "count"),
    ("service.store.hit_ratio", "ratio"),
    ("service.store.get_memory_ms", "ms"),
    ("service.store.get_disk_ms", "ms"),
    ("service.store.put_ms", "ms"),
    ("service.executor.route_store", "count"),
    ("service.executor.route_compute", "count"),
    ("service.executor.route_dedup", "count"),
    ("service.executor.compute_ms", "ms"),
    ("service.executor.self_ms", "ms"),
    ("service.executor.errors", "count"),
    ("api.runner.self_s", "s"),
    ("api.runner.prepare_s", "s"),
    ("api.registry.build_fabric_s", "s"),
    ("core.alternating.rounds", "count"),
    ("core.alternating.residual_s", "s"),
    ("parallel.mcmc.search_s", "s"),
    ("parallel.mcmc.proposed", "count"),
    ("parallel.mcmc.accept_ratio", "ratio"),
    ("core.topology_finder.solves", "count"),
    ("core.topology_finder.solve_s", "s"),
    ("core.routing_lp.assembly_s", "s"),
    ("sim.fluid.calls", "count"),
    ("sim.fluid.topoopt_s", "s"),
    ("sim.fluid.fattree_s", "s"),
    ("sim.reconfig.ocs_s", "s"),
    ("sim.cluster.advance_calls", "count"),
    ("sim.cluster.advance_s", "s"),
    ("sim.cluster.next_event_calls", "count"),
    ("sim.cluster.next_event_s", "s"),
    ("sim.cluster.solves", "count"),
    ("sim.cluster.solve_s", "s"),
    ("sim.cluster.iterations_per_advance", "ratio"),
    ("cluster.engine.run_s", "s"),
    ("cluster.engine.steps", "count"),
    ("cluster.engine.step_s", "s"),
    ("cluster.engine.pipeline_builds", "count"),
    ("cluster.engine.pipeline_build_s", "s"),
    ("cluster.engine.unattributed_s", "s"),
    ("cluster.scheduler.control_calls", "count"),
    ("cluster.scheduler.control_s", "s"),
    ("cluster.scheduler.admits", "count"),
    ("cluster.faults.events", "count"),
    ("cluster.faults.suspensions", "count"),
    ("cluster.faults.handle_s", "s"),
    ("perf.warmcache.pipeline_hit_ratio", "ratio"),
    ("perf.warmcache.costmodel_hit_ratio", "ratio"),
    ("obs.tracing_overhead_pct", "%"),
    ("residual.unattributed_s", "s"),
    ("residual.unattributed_pct", "%"),
)

UNITS = dict(END_TO_END + PER_LAYER)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(ledger, traced, untraced_s: float, import_s: float) -> dict:
    """Every ``PER_LAYER`` value from a folded ledger and its pass.

    ``traced`` is the traced pass; ``untraced_s`` the wall time of the
    same requests untraced, in the same process.  The tracing overhead
    is the difference, with the ledger's own folding time taken out of
    the traced pass.
    """
    self_s, calls, total_s = ledger.self_s, ledger.calls, ledger.total_s
    counters = ledger.recorder.counters
    store = traced.counts.get("store", {})
    routes = traced.counts.get("routes", {})
    wall_s = traced.wall_s - ledger.fold_s
    attributed = sum(v for k, v in self_s.items() if k != "residual")
    residual_s = wall_s - attributed
    hits = store.get("memory_hits", 0) + store.get("disk_hits", 0)
    caches = ledger.cache_stats
    return {
        "process.import_s": import_s,
        "api.spec.calls": calls["bench.parse"],
        "api.spec.parse_ms": 1e3 * self_s["api.spec.parse"],
        "api.spec.hash_ms": 1e3 * self_s["api.spec.hash"],
        "results.serialize_ms": 1e3 * self_s["results.serialize"],
        "results.bytes": traced.bytes,
        "service.store.memory_hits": store.get("memory_hits", 0),
        "service.store.disk_hits": store.get("disk_hits", 0),
        "service.store.misses": store.get("misses", 0),
        "service.store.evictions": store.get("evictions", 0),
        "service.store.hit_ratio": ratio(hits, hits + store.get("misses", 0)),
        "service.store.get_memory_ms":
            1e3 * self_s["service.store.get_memory"],
        "service.store.get_disk_ms": 1e3 * self_s["service.store.get_disk"],
        "service.store.put_ms": 1e3 * self_s["service.store.put"],
        "service.executor.route_store": routes.get("store", 0),
        "service.executor.route_compute": routes.get("compute", 0),
        "service.executor.route_dedup": routes.get("dedup", 0),
        "service.executor.compute_ms":
            1e3 * total_s["service.request|compute"],
        "service.executor.self_ms": 1e3 * self_s["service.executor"],
        "service.executor.errors": traced.counts.get("service_errors", 0),
        "api.runner.self_s": self_s["api.runner"],
        "api.runner.prepare_s": self_s["api.runner.prepare"],
        "api.registry.build_fabric_s": self_s["api.registry.build_fabric"],
        "core.alternating.rounds": counters.get("pipeline.rounds", 0),
        "core.alternating.residual_s": self_s["core.alternating"],
        "parallel.mcmc.search_s": self_s["parallel.mcmc"],
        "parallel.mcmc.proposed": counters.get("mcmc.proposed", 0),
        "parallel.mcmc.accept_ratio": ratio(
            counters.get("mcmc.accepted", 0), counters.get("mcmc.proposed", 0)
        ),
        "core.topology_finder.solves": (
            calls["pipeline.topology_solve"] + calls["bench.topology_finder"]
        ),
        "core.topology_finder.solve_s": self_s["core.topology_finder"],
        "core.routing_lp.assembly_s": self_s["core.routing_lp"],
        "sim.fluid.calls": (
            calls["bench.fabric.topoopt"] + calls["bench.fabric.fattree"]
        ),
        "sim.fluid.topoopt_s": self_s["sim.fluid.topoopt"],
        "sim.fluid.fattree_s": self_s["sim.fluid.fattree"],
        "sim.reconfig.ocs_s": self_s["sim.reconfig.ocs"],
        "sim.cluster.advance_calls": calls["bench.advance"],
        "sim.cluster.advance_s": self_s["sim.cluster.advance"],
        "sim.cluster.next_event_calls": calls["bench.next_event"],
        "sim.cluster.next_event_s": self_s["sim.cluster.next_event"],
        "sim.cluster.solves": calls["flow.solve"],
        "sim.cluster.solve_s": self_s["sim.cluster.solve"],
        "sim.cluster.iterations_per_advance": ratio(
            ledger.iterations, calls["bench.advance"]
        ),
        "cluster.engine.run_s": total_s["bench.run_scenario"],
        "cluster.engine.steps": calls["engine.step"],
        "cluster.engine.step_s": self_s["cluster.engine.step"],
        "cluster.engine.pipeline_builds": calls["engine.pipeline_build"],
        "cluster.engine.pipeline_build_s":
            self_s["cluster.engine.pipeline_build"],
        "cluster.engine.unattributed_s": self_s["cluster.engine"],
        "cluster.scheduler.control_calls": calls["engine.control"],
        "cluster.scheduler.control_s": self_s["cluster.scheduler"],
        "cluster.scheduler.admits": counters.get("scheduler.admit", 0),
        "cluster.faults.events": calls["engine.fault"],
        "cluster.faults.suspensions": counters.get("scheduler.suspend", 0),
        "cluster.faults.handle_s": self_s["cluster.faults"],
        "perf.warmcache.pipeline_hit_ratio": _hit_ratio(caches["pipeline"]),
        "perf.warmcache.costmodel_hit_ratio": _hit_ratio(caches["costmodel"]),
        "obs.tracing_overhead_pct":
            100.0 * (wall_s - untraced_s) / untraced_s,
        "residual.unattributed_s": residual_s,
        "residual.unattributed_pct": 100.0 * ratio(residual_s, wall_s),
    }


def _hit_ratio(stats: dict) -> float:
    return ratio(stats["hits"], stats["hits"] + stats["misses"])
