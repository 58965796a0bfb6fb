"""Command-line interface over the declarative experiment API.

The primary entry points run :class:`repro.api.ExperimentSpec` files::

    python -m repro.cli run --spec exp.json --set servers=32
    python -m repro.cli sweep --spec exp.json --grid grid.json
    python -m repro.cli compare --spec exp.json --fabrics topoopt,fattree

``run`` executes one experiment and prints the co-optimized strategy,
topology, simulated iteration time against the spec's baseline fabrics,
and interconnect cost; ``--json PATH`` additionally writes the typed
:class:`repro.api.ExperimentResult` (deterministic for a given spec and
seed).  ``sweep`` expands a parameter grid into a row-per-run table;
``compare`` times one workload on a list of fabrics; ``scenario`` runs
a multi-job shared-cluster scenario spec
(``python -m repro.cli scenario --preset shared --fabrics
topoopt,fattree``; see ``docs/scenarios.md``).

Service subcommands (``docs/service.md``): ``serve-batch`` drains a
JSONL file of spec requests through the memoized, deduplicating
:class:`repro.service.BatchExecutor`; ``cache`` inspects or clears a
content-addressed result store directory.

Observability (``docs/observability.md``): ``trace`` replays one
scenario under a live :class:`repro.obs.TraceRecorder` and exports it
as Chrome trace-event JSON plus an :class:`repro.obs.ObsReport`;
``scenario``, ``sweep``, and ``serve-batch`` accept ``--trace-out`` to
record their own runs the same way.

Tooling subcommands: ``bench-smoke`` (kernel micro-benchmarks, <60 s),
``bench`` (one benchmark entry at a chosen size, ``--profile N`` for a
cProfile breakdown plus warm-cache counters), ``check-docs`` (doctests
+ doc reference validation), and ``check-examples`` (runs every
``examples/*.py`` at smoke scale under a wall-time cap).

Without a subcommand, ``python -m repro.cli`` prints the subcommand
list and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.api import (
    ExperimentResult,
    ExperimentSpec,
    FabricSpec,
    RegistryError,
    SpecError,
    compare_fabrics,
    parse_overrides,
    run_experiment,
    run_sweep,
)
from repro.api.spec import EXPERIMENT_PRESETS
from repro.models.configs import FAMILY_DESCRIPTIONS


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def print_report(result: ExperimentResult) -> None:
    """Human-readable experiment report (``repro run``)."""
    spec = result.spec
    workload = result.workload
    print(f"workload      : {workload.model} ({workload.scale} preset)")
    print(f"  parameters  : {workload.params_bytes / 1e9:.2f} GB "
          f"({workload.embedding_tables} embedding tables)")
    print(f"cluster       : {spec.cluster.servers} servers x "
          f"{spec.cluster.degree} interfaces @ "
          f"{spec.cluster.bandwidth_gbps:g} Gbps")

    strategy = result.strategy
    print(f"\nstrategy      : {strategy.num_layers} layers "
          f"({strategy.model_parallel} model-parallel, "
          f"{strategy.sharded} sharded, rest DP)")
    print(f"traffic       : AllReduce "
          f"{result.traffic.allreduce_bytes / 1e9:.2f} GB, "
          f"MP {result.traffic.mp_bytes / 1e9:.2f} GB / iteration")

    if result.topology is not None:
        topo = result.topology
        print(f"topology      : {topo.num_links} links, "
              f"diameter {topo.diameter}, "
              f"d_AR={topo.allreduce_degree}, d_MP={topo.mp_degree}")
        for group in topo.groups:
            print(f"  group of {group['size']:>3}: "
                  f"strides {tuple(group['strides'])}")

    print("\niteration time (simulated):")
    primary = result.fabric
    print(f"  {primary.name:<20} : {primary.total_s * 1e3:9.2f} ms")
    for timing in result.baselines:
        if timing.total_s > 0 and primary.total_s > 0:
            if timing.total_s <= primary.total_s:
                ratio = (f"({primary.total_s / timing.total_s:.2f}x "
                         f"{primary.name})")
            else:
                ratio = (f"({timing.total_s / primary.total_s:.2f}x "
                         f"slower than {primary.name})")
        else:
            ratio = ""
        print(f"  {timing.name:<20} : {timing.total_s * 1e3:9.2f} ms "
              f"{ratio}".rstrip())

    priced = [t for t in result.timings if t.cost_usd is not None]
    if priced:
        parts = ", ".join(
            f"{t.name} ${t.cost_usd / 1e3:.0f}k" for t in priced
        )
        print(f"\ninterconnect cost: {parts}")
        if primary.cost_usd:
            for timing in result.baselines:
                if timing.cost_usd:
                    print(f"  {timing.name} / {primary.name}: "
                          f"{timing.cost_usd / primary.cost_usd:.1f}x")


# ----------------------------------------------------------------------
# Spec loading helpers
# ----------------------------------------------------------------------

def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="ExperimentSpec JSON file (see docs/api.md for the schema)",
    )
    families = "; ".join(
        f"{name}: {FAMILY_DESCRIPTIONS[name]}" for name in EXPERIMENT_PRESETS
    )
    parser.add_argument(
        "--preset", default=None,
        choices=tuple(EXPERIMENT_PRESETS),
        help=f"start from a named preset instead of a spec file "
             f"({families})",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="overrides",
        help="override a spec field (dotted path or shorthand, e.g. "
             "servers=32, fabric.kind=expander); repeatable",
    )


def _load_spec(args: argparse.Namespace, spec_cls=ExperimentSpec):
    """Resolve --spec/--preset/--set into a spec of ``spec_cls``.

    Shared by the experiment subcommands and ``repro scenario``
    (``spec_cls`` needs ``from_dict``, ``preset``, ``with_overrides``).
    """
    if args.spec and args.preset:
        raise SpecError("pass either --spec or --preset, not both")
    if args.spec:
        with open(args.spec) as handle:
            spec = spec_cls.from_dict(json.load(handle))
    elif args.preset:
        spec = spec_cls.preset(args.preset)
    else:
        raise SpecError("pass --spec PATH or --preset FAMILY")
    if args.overrides:
        spec = spec.with_overrides(parse_overrides(args.overrides))
    return spec


def _write_json(path: str, payload: Dict[str, Any]) -> bool:
    """Write ``payload`` to ``path`` ('-' = stdout); False on failure."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
        return True
    try:
        Path(path).write_text(text + "\n")
    except OSError as error:
        print(f"error: cannot write {path}: {error}", file=sys.stderr)
        return False
    print(f"result written to {path}")
    return True


def _trace_context(path: Optional[str]):
    """Recording context for ``--trace-out``: a recorder, or a no-op.

    Yields the installed :class:`repro.obs.TraceRecorder` when ``path``
    is set (the caller writes the Chrome trace there afterwards) and
    ``None`` otherwise, so commands can wrap their run section
    unconditionally.
    """
    import contextlib

    if not path:
        return contextlib.nullcontext(None)
    from repro.obs import TRACER, TraceRecorder

    return TRACER.recording(TraceRecorder())


def _add_trace_out_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the run under the observability plane and write "
             "it as Chrome trace-event JSON (chrome://tracing; see "
             "docs/observability.md)",
    )


def _format_rows(headers: Sequence[str], rows) -> List[str]:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows))
        if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(
            str(c).rjust(w) for c, w in zip(row, widths)
        ))
    return lines


# ----------------------------------------------------------------------
# run / sweep / compare
# ----------------------------------------------------------------------

def cmd_run(argv: Sequence[str] = ()) -> int:
    """Execute one experiment spec and report the result."""
    parser = argparse.ArgumentParser(prog="repro run")
    _add_spec_arguments(parser)
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the ExperimentResult JSON to PATH ('-' for stdout)",
    )
    args = parser.parse_args(list(argv))
    try:
        spec = _load_spec(args)
        result = run_experiment(spec)
    except (SpecError, RegistryError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print_report(result)
    if result.wall_time_s is not None:
        print(f"\nwall time     : {result.wall_time_s:.2f} s "
              f"(seed {spec.seed})")
    if args.json and not _write_json(args.json, result.to_dict()):
        return 2
    return 0


def cmd_sweep(argv: Sequence[str] = ()) -> int:
    """Expand a parameter grid over a base spec; one row per run."""
    parser = argparse.ArgumentParser(prog="repro sweep")
    _add_spec_arguments(parser)
    parser.add_argument(
        "--grid", default=None, metavar="PATH",
        help="JSON file mapping override keys to value lists, e.g. "
             '{"cluster.servers": [16, 32], "fabric.kind": ["topoopt"]}',
    )
    parser.add_argument(
        "--vary", action="append", default=[], metavar="KEY=V1,V2,...",
        help="inline grid axis (repeatable): --vary servers=16,32",
    )
    parser.add_argument("--max-workers", type=int, default=None)
    parser.add_argument(
        "--executor", default="thread",
        choices=("thread", "process", "serial"),
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="kill a sweep point that runs longer than this "
             "(pool executors only; the serial path runs inline)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="resubmit a crashed or timed-out point this many extra "
             "times (same seed) before recording it as an error row",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed result store directory: points already "
             "stored are served as cache hits, fresh results are "
             "written back (docs/service.md)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the SweepResult JSON to PATH ('-' for stdout)",
    )
    _add_trace_out_argument(parser)
    args = parser.parse_args(list(argv))
    try:
        spec = _load_spec(args)
        grid: Dict[str, List[Any]] = {}
        if args.grid:
            with open(args.grid) as handle:
                loaded = json.load(handle)
            if not isinstance(loaded, dict):
                raise SpecError(
                    f"--grid {args.grid}: expected a JSON object "
                    f"mapping keys to value lists"
                )
            grid.update(loaded)
        for axis in args.vary:
            key, sep, values = axis.partition("=")
            if not sep:
                raise SpecError(
                    f"--vary expects KEY=V1,V2,..., got {axis!r}"
                )
            from repro.api import parse_scalar

            grid[key] = [parse_scalar(v) for v in values.split(",")]
        if not grid:
            raise SpecError("pass --grid PATH and/or --vary KEY=V1,V2")
        store = None
        if args.store:
            from repro.service import ResultStore

            store = ResultStore(args.store)
        # Points traced in-process (serial and thread executors) land
        # in the recorder; process-pool points run outside it.
        with _trace_context(args.trace_out) as recorder:
            sweep = run_sweep(
                spec, grid,
                max_workers=args.max_workers, executor=args.executor,
                point_timeout_s=args.point_timeout, retries=args.retries,
                store=store,
            )
        if args.trace_out:
            from repro.obs import write_chrome_trace

            write_chrome_trace(args.trace_out, recorder)
            print(f"trace written to {args.trace_out}")
    except (SpecError, RegistryError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = sweep.rows()
    grid_keys = list(grid)
    extras = [
        key for key in ("seed", "total_ms", "network_frac", "error")
        if key not in grid_keys
    ]
    table = [
        [row[k] for k in grid_keys]
        + [
            {
                "seed": row["seed"],
                "total_ms": (
                    f"{row['total_s'] * 1e3:.2f}" if row["total_s"]
                    else "-"
                ),
                "network_frac": (
                    f"{row['network_fraction']:.2f}"
                    if row["network_fraction"] is not None else "-"
                ),
                "error": row["error"] or "",
            }[key]
            for key in extras
        ]
        for row in rows
    ]
    headers = grid_keys + extras
    for line in _format_rows(headers, table):
        print(line)
    failed = sum(1 for row in rows if row["error"])
    summary = f"\n{len(rows)} points, {failed} failed"
    if store is not None:
        hits = sum(1 for point in sweep.points if point.cache_hit)
        summary += f", {hits} cache hits"
    print(summary)
    if args.json and not _write_json(args.json, sweep.to_dict()):
        return 2
    return 1 if failed else 0


def cmd_compare(argv: Sequence[str] = ()) -> int:
    """Time one experiment's traffic on a list of fabrics."""
    parser = argparse.ArgumentParser(prog="repro compare")
    _add_spec_arguments(parser)
    parser.add_argument(
        "--fabrics", default="topoopt,ideal-switch,fattree",
        help="comma-separated fabric registry names to compare",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the comparison JSON to PATH ('-' for stdout)",
    )
    args = parser.parse_args(list(argv))
    try:
        spec = _load_spec(args)
        kinds = [k.strip() for k in args.fabrics.split(",") if k.strip()]
        if not kinds:
            raise SpecError("--fabrics needs at least one fabric name")
        fabrics = {kind: FabricSpec(kind=kind) for kind in kinds}
        for fabric_spec in fabrics.values():
            fabric_spec.validate_kind()
        timings = compare_fabrics(spec, fabrics)
    except (SpecError, RegistryError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    base = timings[kinds[0]].total_s
    table = [
        [
            kind,
            f"{t.total_s * 1e3:.2f}",
            f"{t.total_s / base:.2f}x" if base > 0 else "-",
            f"${t.cost_usd / 1e3:.0f}k" if t.cost_usd else "-",
        ]
        for kind, t in ((k, timings[k]) for k in kinds)
    ]
    print(f"workload {spec.workload.model} on {spec.cluster.servers} "
          f"servers (strategy {spec.optimizer.strategy}):")
    for line in _format_rows(
        ("fabric", "iteration_ms", f"vs {kinds[0]}", "cost"), table
    ):
        print(line)
    if args.json and not _write_json(
        args.json,
        {kind: timing.to_dict() for kind, timing in timings.items()},
    ):
        return 2
    return 0


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------

def cmd_scenario(argv: Sequence[str] = ()) -> int:
    """Run a shared-cluster scenario spec (see docs/scenarios.md).

    ``--spec PATH`` loads a :class:`repro.cluster.ScenarioSpec` JSON
    file; ``--preset shared|lifetime`` starts from a canonical setup;
    ``--set`` overrides fields as in ``repro run``.  ``--fabrics a,b``
    replays the *same* arrival trace on several fabrics and prints the
    Figure 16-style comparison (per-fabric average / p99 iteration
    time, JCT, queueing).  ``--scheduler fcfs,easy,conservative``
    replays the same trace under several queue policies and prints the
    per-policy JCT / queueing-delay comparison; a single policy simply
    overrides the spec's ``queue`` field.
    """
    from repro.cluster import SCENARIO_PRESETS, ScenarioSpec, run_scenario

    parser = argparse.ArgumentParser(prog="repro scenario")
    parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="ScenarioSpec JSON file (see docs/scenarios.md)",
    )
    parser.add_argument(
        "--preset", default=None, choices=tuple(SCENARIO_PRESETS),
        help="start from a named scenario preset",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="overrides",
        help="override a spec field (dotted path or shorthand, e.g. "
             "policy=best-fit, jobs.0.iterations=2); repeatable",
    )
    parser.add_argument(
        "--fabrics", default=None, metavar="KIND,KIND,...",
        help="run the same scenario on several fabrics and compare",
    )
    parser.add_argument(
        "--scheduler", default=None, metavar="QUEUE,QUEUE,...",
        help="queue policy (fcfs, easy, conservative); several "
             "comma-separated policies replay the same trace under "
             "each and print the comparison",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the ScenarioResult JSON to PATH ('-' for stdout); "
             "with --fabrics a {kind: result} object, with a "
             "multi-policy --scheduler a {queue: result} object",
    )
    _add_trace_out_argument(parser)
    args = parser.parse_args(list(argv))
    try:
        spec = _load_spec(args, spec_cls=ScenarioSpec)
        schedulers = []
        if args.scheduler:
            schedulers = [
                q.strip() for q in args.scheduler.split(",") if q.strip()
            ]
            if not schedulers:
                raise SpecError(
                    "--scheduler needs at least one queue policy"
                )
            if args.fabrics and len(schedulers) > 1:
                raise SpecError(
                    "--scheduler accepts several policies or --fabrics "
                    "several fabrics, not both at once"
                )
            if len(schedulers) == 1:
                # Plain override: the whole run uses this discipline.
                spec = spec.with_overrides({"queue": schedulers[0]})
                schedulers = []
        if args.fabrics:
            kinds = [k.strip() for k in args.fabrics.split(",") if k.strip()]
            if not kinds:
                raise SpecError("--fabrics needs at least one fabric name")
        with _trace_context(args.trace_out) as recorder:
            if args.fabrics:
                results = {
                    kind: run_scenario(
                        spec.with_overrides({"fabric.kind": kind})
                    )
                    for kind in kinds
                }
            elif schedulers:
                results = {
                    queue: run_scenario(
                        spec.with_overrides({"queue": queue})
                    )
                    for queue in schedulers
                }
            else:
                results = {spec.fabric.kind: run_scenario(spec)}
        if args.trace_out:
            from repro.obs import write_chrome_trace

            write_chrome_trace(args.trace_out, recorder)
            print(f"trace written to {args.trace_out}")
    except (SpecError, RegistryError, KeyError, ValueError, OSError,
            RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    primary = results[next(iter(results))]
    print(f"scenario      : {spec.name or '(unnamed)'} "
          f"(seed {spec.seed})")
    print(f"cluster       : {spec.cluster.servers} servers x "
          f"{spec.cluster.degree} interfaces @ "
          f"{spec.cluster.bandwidth_gbps:g} Gbps, "
          f"{spec.scheduler.policy} scheduling")
    print(f"arrivals      : {spec.arrivals.process}, "
          f"{len(primary.jobs)} jobs")
    if not args.fabrics and not schedulers:
        result = primary
        print(f"\n{'job':<14} {'srv':>4} {'arrive':>9} {'queued':>9} "
              f"{'jct':>9} {'iter avg':>10}")
        for job in result.jobs:
            print(f"{job.name:<14} {job.num_servers:>4} "
                  f"{job.arrival_s:>8.1f}s {job.queueing_delay_s:>8.1f}s "
                  f"{job.jct_s:>8.1f}s {job.iteration_avg_s * 1e3:>7.1f} ms")
        metrics = result.metrics()
        print(f"\ncluster       : iteration avg "
              f"{metrics['iteration_avg_s'] * 1e3:.1f} ms / p99 "
              f"{metrics['iteration_p99_s'] * 1e3:.1f} ms")
        print(f"                JCT avg {metrics['jct_avg_s']:.1f} s, "
              f"queueing avg {metrics['queueing_avg_s']:.1f} s")
        print(f"                utilization "
              f"{metrics['mean_utilization'] * 100:.0f}%, peak "
              f"fragmentation {metrics['peak_fragmentation']:.2f}")
    elif schedulers:
        table = []
        for queue, result in results.items():
            metrics = result.metrics()
            table.append([
                queue,
                f"{metrics['jct_avg_s']:.2f}",
                f"{metrics['jct_p99_s']:.2f}",
                f"{metrics['queueing_avg_s']:.2f}",
                str(metrics["preemptions"]),
                str(metrics["resizes"]),
            ])
        print()
        for line in _format_rows(
            ("scheduler", "jct_avg_s", "jct_p99_s", "queue_avg_s",
             "preempts", "resizes"),
            table,
        ):
            print(line)
    else:
        table = []
        for kind, result in results.items():
            metrics = result.metrics()
            table.append([
                kind,
                f"{metrics['iteration_avg_s'] * 1e3:.2f}",
                f"{metrics['iteration_p99_s'] * 1e3:.2f}",
                f"{metrics['jct_avg_s']:.2f}",
                f"{metrics['queueing_avg_s']:.2f}",
            ])
        print()
        for line in _format_rows(
            ("fabric", "iter_avg_ms", "iter_p99_ms", "jct_avg_s",
             "queue_avg_s"),
            table,
        ):
            print(line)
    if args.json:
        # Shape follows the flags, not the count: --fabrics (and a
        # multi-policy --scheduler) always gets the keyed object, even
        # with a single-name list.
        if args.fabrics or schedulers:
            payload: Dict[str, Any] = {
                k: r.to_dict() for k, r in results.items()
            }
        else:
            payload = primary.to_dict()
        if not _write_json(args.json, payload):
            return 2
    return 0


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------

def cmd_trace(argv: Sequence[str] = ()) -> int:
    """Run one scenario under the observability plane and export traces.

    ``repro trace --preset shared --out trace.json`` replays the
    scenario with a live :class:`repro.obs.TraceRecorder` installed --
    engine event-loop steps, pipeline builds (MCMC chains,
    TopologyFinder solves, LP assembly), flow solves, scheduler
    decisions, and per-link utilization timelines all record -- and
    writes the run as Chrome trace-event JSON (load it in
    ``chrome://tracing`` or https://ui.perfetto.dev).  ``--metrics-out``
    additionally writes every span/counter/gauge/timeline as flat
    JSONL; ``--json`` writes the merged :class:`repro.obs.ObsReport`.
    The simulated result itself is byte-identical to an untraced run
    (``bench-smoke`` enforces this), so tracing is always safe to add.
    """
    from repro.cluster import SCENARIO_PRESETS, ScenarioSpec, run_scenario
    from repro.obs import (
        ObsReport,
        TraceRecorder,
        write_chrome_trace,
        write_metrics_jsonl,
    )

    parser = argparse.ArgumentParser(prog="repro trace")
    parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="ScenarioSpec JSON file (see docs/scenarios.md)",
    )
    parser.add_argument(
        "--preset", default=None, choices=tuple(SCENARIO_PRESETS),
        help="start from a named scenario preset",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="overrides",
        help="override a spec field (dotted path or shorthand); "
             "repeatable",
    )
    parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="also write every metric as one JSON object per line",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the ObsReport JSON to PATH ('-' for stdout)",
    )
    args = parser.parse_args(list(argv))
    try:
        spec = _load_spec(args, spec_cls=ScenarioSpec)
        recorder = TraceRecorder()
        result = run_scenario(spec, recorder=recorder)
        write_chrome_trace(args.out, recorder)
        if args.metrics_out:
            write_metrics_jsonl(args.metrics_out, recorder)
    except (SpecError, RegistryError, KeyError, ValueError, OSError,
            RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = ObsReport.build(recorder)
    print(f"scenario      : {spec.name or '(unnamed)'} "
          f"(seed {spec.seed}, {len(result.jobs)} jobs)")
    print(f"trace         : {args.out} "
          f"({len(recorder.spans)} spans, "
          f"{len(recorder.timelines)} timelines)")
    if args.metrics_out:
        print(f"metrics       : {args.metrics_out}")
    print()
    for line in report.format_lines():
        print(line)
    if args.json and not _write_json(args.json, report.to_dict()):
        return 2
    return 0


# ----------------------------------------------------------------------
# bench-smoke
# ----------------------------------------------------------------------

def bench_smoke(argv: Sequence[str] = ()) -> int:
    """Run the kernel micro-benchmarks at smoke scale (<60 s).

    A pre-merge perf sanity check: prints reference-vs-vectorized
    timings for phase simulation, routing construction, LP assembly,
    the staggered-flow event engine, the search plane (MCMC steps/sec
    and end-to-end alternating optimization), and the multi-job
    scenario engine, and fails (exit 1) if a vectorized kernel has
    regressed to slower than the retained seed implementation at n=64,
    the incremental MCMC costs drift from the full-rebuild oracle, the
    scenario engine loses (spec, seed) determinism / allocator
    equivalence, the scenario kernel falls under its 1.5x speedup
    floor at n=64, the capped fleet-scale scenario fails to drain its
    trace, the scheduler policy sweep fails its gate (every queue
    policy drains a 100-job trace deterministically under a 60 s
    wall-time cap, with backfill strictly beating FCFS queueing delay
    on the head-of-line-blocking trace), the failure-storm
    scenario fails its gate (every recovery policy drains the trace
    through a correlated fault storm, deterministically, with zero
    scheduler-invariant violations and >= 20 applied fault events), or
    the service-throughput gate trips (the warm store-backed drain of
    the Zipf request mix must be >= 5x cold specs/sec, the cold drain
    must compute each unique spec exactly once, and store-served
    results must be byte-identical to fresh computes), or the
    observability gate trips (a traced scenario run must produce
    byte-identical result JSON to an untraced one, with tracing
    overhead under 10%).  Every failed gate is reported, not just the
    first (:func:`smoke_gate_failures`).
    """
    from repro.perf.bench import SMOKE_SIZES, format_results, run_benchmarks

    parser = argparse.ArgumentParser(prog="repro bench-smoke")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the results tree to PATH as JSON",
    )
    args = parser.parse_args(list(argv))
    results = run_benchmarks(SMOKE_SIZES)
    for line in format_results(results):
        print(line)
    if args.json:
        from repro.perf.bench import write_results

        write_results(results, args.json)
        print(f"results written to {args.json}")
    failures = smoke_gate_failures(results, f"n={max(SMOKE_SIZES)}")
    for message in failures:
        print(message, file=sys.stderr)
    if failures:
        return 1
    print("bench-smoke ok")
    return 0


def smoke_gate_failures(results: Dict[str, Any], gate_key: str) -> List[str]:
    """The message of every ``bench-smoke`` gate ``results`` fails.

    ``results`` is the :func:`repro.perf.bench.run_benchmarks` tree and
    ``gate_key`` the size the per-size gates read (``"n=64"``); the
    single-size entries are read at whatever size they ran.  One
    ``(failed, message)`` row per gate, all evaluated, so a run reports
    every failure rather than the first.
    """
    def at_gate(entry: str) -> Dict[str, Any]:
        return results[entry][gate_key]

    def only(entry: str) -> Dict[str, Any]:
        return next(iter(results[entry].values()))

    slower = [
        entry
        for entry in (
            "phase_sim", "routing", "staggered_phase",
            "mcmc_steps", "alternating",
        )
        if at_gate(entry)["speedup"] < 1.0
    ]
    scenario = at_gate("scenario")
    fleet = only("scenario_fleet")
    sweep = only("scheduler_sweep")
    storm = only("scenario_storm")
    service = only("service_throughput")
    obs = only("obs_overhead")
    gates = [
        (slower,
         f"PERF REGRESSION: {', '.join(slower)} slower than the seed "
         f"implementation at {gate_key}"),
        (at_gate("mcmc_steps")["cost_rel_err"] >= 1e-12,
         "EQUIVALENCE REGRESSION: incremental MCMC costs drifted from "
         "the full-rebuild oracle"),
        (not scenario["deterministic"],
         "DETERMINISM REGRESSION: same (scenario spec, seed) produced "
         "different result JSON"),
        (scenario["iteration_rel_err"] >= 1e-9,
         "EQUIVALENCE REGRESSION: scenario kernel allocator drifted "
         "from the pure-Python reference"),
        (scenario["speedup"] < 1.5,
         f"PERF REGRESSION: scenario kernel speedup "
         f"{scenario['speedup']}x at {gate_key} under the 1.5x floor"),
        (fleet["jobs_completed"] < fleet["jobs_submitted"],
         f"FLEET REGRESSION: scenario_fleet completed "
         f"{fleet['jobs_completed']}/{fleet['jobs_submitted']} jobs "
         f"(trace did not drain)"),
        (not sweep["drained"],
         "SCHEDULER REGRESSION: a queue policy failed to drain the "
         "100-job trace"),
        (not sweep["deterministic"],
         "DETERMINISM REGRESSION: same (spec, seed) under EASY backfill "
         "produced different result JSON"),
        (not sweep["backfill_beats_fcfs"],
         "SCHEDULER REGRESSION: backfill no longer beats FCFS mean "
         "queueing delay on the head-of-line-blocking trace"),
        (sweep["wall_s"] > 60.0,
         f"PERF REGRESSION: scheduler_sweep took {sweep['wall_s']}s "
         f"(wall-time cap 60 s)"),
        (not storm["drained"],
         "RESILIENCE REGRESSION: a recovery policy failed to drain the "
         "100-job trace through the fault storm"),
        (not storm["deterministic"],
         "DETERMINISM REGRESSION: same (spec, seed) under the fault "
         "storm produced different result JSON"),
        (storm["invariant_violations"],
         f"RESILIENCE REGRESSION: {storm['invariant_violations']} "
         f"scheduler-invariant violations under the fault storm"),
        (not storm["storm_bites"],
         f"RESILIENCE REGRESSION: the storm schedule only landed "
         f"{storm['fault_events']} fault events (floor 20) -- the chaos "
         f"gate is no longer exercising recovery"),
        (not service["dedup_exact"],
         f"SERVICE REGRESSION: cold drain launched "
         f"{service['computed']} computations for "
         f"{service['unique_requested']} unique specs (in-flight dedup "
         f"must coalesce duplicates onto one computation)"),
        (not service["byte_identical"],
         "SERVICE REGRESSION: a store-served result's JSON differs from "
         "a freshly computed one (content-addressed memoization must be "
         "byte-identical)"),
        (service["warm_speedup"] < 5.0,
         f"SERVICE REGRESSION: warm drain only "
         f"{service['warm_speedup']}x cold specs/sec (floor 5x) -- the "
         f"result store is no longer paying for itself"),
        (not obs["byte_identical"],
         "OBSERVABILITY REGRESSION: a traced scenario run's result JSON "
         "differs from the untraced run's (instrumentation must never "
         "perturb simulation results)"),
        (obs["overhead_pct"] >= 10.0,
         f"PERF REGRESSION: tracing overhead {obs['overhead_pct']}% on "
         f"the scenario engine (cap 10%)"),
    ]
    return [message for failed, message in gates if failed]


def cmd_bench(argv: Sequence[str] = ()) -> int:
    """Run one kernel micro-benchmark entry, optionally under cProfile.

    ``repro bench scenario --n 256`` runs a single entry at one size
    and prints its record as JSON.  ``--profile 25`` reruns the entry
    under :mod:`cProfile` and prints the top 25 functions by cumulative
    time -- the first tool to reach for when a bench-smoke speedup
    floor trips and you need to see where the hot loop went -- followed
    by the process-wide warm-cache counters
    (:func:`repro.perf.warmcache.stats`), so a cold cache shows up next
    to the profile that suffered from it.
    """
    from repro.perf.bench import BENCH_ENTRIES

    parser = argparse.ArgumentParser(prog="repro bench")
    parser.add_argument(
        "entry", choices=sorted(BENCH_ENTRIES),
        help="benchmark entry to run",
    )
    parser.add_argument(
        "--n", type=int, default=None, metavar="SIZE",
        help="problem size (servers); default 64, fleet default 200",
    )
    parser.add_argument(
        "--profile", type=int, default=0, metavar="TOP",
        help="rerun under cProfile and print the TOP functions by "
             "cumulative time",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the profile rows and warm-cache counters as JSON "
             "('-' for stdout; implies --profile)",
    )
    args = parser.parse_args(list(argv))
    n = args.n
    if n is None:
        n = {"scenario_fleet": 200, "service_throughput": 16}.get(
            args.entry, 64
        )
    runner = BENCH_ENTRIES[args.entry]
    record = runner(n)
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.profile or args.profile_out:
        import cProfile
        import io
        import pstats

        top = args.profile or 25
        profiler = cProfile.Profile()
        profiler.enable()
        runner(n)
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
        from repro.perf import warmcache

        cache_stats = warmcache.stats()
        if args.profile:
            print(stream.getvalue(), end="")
            print("warm caches:")
            for name, counters in sorted(cache_stats.items()):
                print(f"  {name:<10}: " + ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(counters.items())
                ))
        if args.profile_out:
            rows = [
                {
                    "function": f"{filename}:{lineno}({funcname})",
                    "ncalls": ncalls,
                    "primitive_calls": primitive,
                    "tottime_s": round(tottime, 6),
                    "cumtime_s": round(cumtime, 6),
                }
                for (filename, lineno, funcname),
                    (primitive, ncalls, tottime, cumtime, _callers)
                in stats.stats.items()
            ]
            rows.sort(key=lambda row: row["cumtime_s"], reverse=True)
            payload = {
                "entry": args.entry,
                "n": n,
                "record": record,
                "profile": rows[:top],
                "warm_caches": cache_stats,
            }
            if not _write_json(args.profile_out, payload):
                return 2
    return 0


# ----------------------------------------------------------------------
# serve-batch / cache (optimization-as-a-service; docs/service.md)
# ----------------------------------------------------------------------

def cmd_serve_batch(argv: Sequence[str] = ()) -> int:
    """Drain a JSONL file of spec requests through the batch executor.

    Each line of ``--requests`` is one spec JSON object -- an
    :class:`~repro.api.ExperimentSpec` or a
    :class:`repro.cluster.ScenarioSpec`, recognized structurally --
    and the whole file is submitted to a
    :class:`repro.service.BatchExecutor`: duplicate requests coalesce
    (in-flight dedup), previously computed specs come straight from
    the ``--store`` directory, and everything else fans out over the
    worker pool with per-request ``--point-timeout``/``--retries``
    containment.  Prints one line per request (route + outcome) and
    the :class:`~repro.service.ServiceReport`; ``--json`` writes both.
    """
    from repro.service import BatchExecutor, ResultStore, spec_from_request

    parser = argparse.ArgumentParser(prog="repro serve-batch")
    parser.add_argument(
        "--requests", required=True, metavar="PATH",
        help="JSONL file: one spec JSON object per line",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed result store directory "
             "(default: in-memory only, gone after the run)",
    )
    parser.add_argument(
        "--executor", default="process",
        choices=("process", "thread", "serial"),
    )
    parser.add_argument("--max-workers", type=int, default=None)
    parser.add_argument(
        "--queue-depth", type=int, default=64,
        help="max concurrently admitted computations; further submits "
             "block (backpressure) rather than queue unboundedly",
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request compute timeout (pool executors only)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="resubmit a crashed or timed-out request this many extra "
             "times before failing it",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write {requests, report} JSON to PATH ('-' for stdout)",
    )
    _add_trace_out_argument(parser)
    args = parser.parse_args(list(argv))
    try:
        specs = []
        with open(args.requests) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    specs.append(spec_from_request(json.loads(line)))
                except Exception as error:
                    raise SpecError(
                        f"{args.requests}:{lineno}: bad request: {error}"
                    )
        if not specs:
            raise SpecError(f"{args.requests}: no requests found")
        store = ResultStore(args.store) if args.store else ResultStore()
        # Request spans (route, latency) record in the parent process;
        # pool workers' pipeline spans do only for --executor serial.
        with _trace_context(args.trace_out) as recorder:
            with BatchExecutor(
                store=store,
                max_workers=args.max_workers,
                executor=args.executor,
                queue_depth=args.queue_depth,
                point_timeout_s=args.point_timeout,
                retries=args.retries,
            ) as service:
                requests = service.drain(specs)
                report = service.report()
        if args.trace_out:
            from repro.obs import write_chrome_trace

            write_chrome_trace(args.trace_out, recorder)
            print(f"trace written to {args.trace_out}")
    except (SpecError, RegistryError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = []
    for index, request in enumerate(requests):
        error = request.future.exception()
        rows.append({
            "index": index,
            "key": request.key,
            "route": request.route,
            "error": str(error) if error is not None else None,
        })
        status = "ok" if error is None else f"ERROR {error}"
        print(f"  {index:>4}  {request.key[:12]}  "
              f"{request.route:<8} {status}")
    print()
    for line in report.format_lines():
        print(line)
    if args.json and not _write_json(
        args.json, {"requests": rows, "report": report.to_dict()}
    ):
        return 2
    return 1 if report.errors else 0


def cmd_cache(argv: Sequence[str] = ()) -> int:
    """Inspect or clear a content-addressed result store directory.

    ``repro cache stats --store DIR`` prints the store's entry count
    and layout; ``clear`` drops every entry; ``lookup SPEC.json``
    reports whether the fully-resolved spec would be served from the
    store, and under which key.  Output is line-oriented and
    deterministic, so the docs can doctest it.
    """
    from repro.service import STORE_VERSION, ResultStore, spec_from_request

    parser = argparse.ArgumentParser(prog="repro cache")
    parser.add_argument(
        "action", choices=("stats", "clear", "lookup"),
        help="what to do with the store",
    )
    parser.add_argument(
        "spec", nargs="?", default=None, metavar="SPEC.json",
        help="spec file to look up (lookup only)",
    )
    parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="result store directory (created on first write)",
    )
    args = parser.parse_args(list(argv))
    try:
        store = ResultStore(args.store)
        if args.action == "lookup":
            if not args.spec:
                raise SpecError("cache lookup needs a SPEC.json argument")
            with open(args.spec) as handle:
                spec = spec_from_request(json.load(handle))
            key = store.key_for(spec)
            verdict = "hit" if store.contains(spec) else "miss"
            print(f"{verdict} {key}")
            return 0
        if args.action == "clear":
            dropped = store.clear()
            print(f"cleared {dropped} entries")
            return 0
        stats = store.stats()
        print(f"store         : {store.root}")
        print(f"entries       : {stats['disk_entries']}")
        print(f"version       : v{STORE_VERSION}")
    except (SpecError, RegistryError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# check-docs
# ----------------------------------------------------------------------

#: Modules whose doctests document the public API; ``check-docs`` runs
#: them all.
DOCTEST_MODULES = (
    "repro.api.spec",
    "repro.cluster.faults",
    "repro.cluster.spec",
    "repro.network.topology",
    "repro.obs.tracer",
    "repro.perf.fairshare",
    "repro.perf.warmcache",
    "repro.service.metrics",
    "repro.sim.fluid",
)


def check_docs(argv: Sequence[str] = ()) -> int:
    """Verify the documentation layer; exit non-zero on any breakage.

    Three checks, in order:

    1. doctests of the public-API modules (:data:`DOCTEST_MODULES`);
    2. doctests embedded in ``README.md`` and ``docs/*.md``;
    3. every ``python -m repro.cli <subcommand>`` reference in those
       files must name a real subcommand, and every script referenced
       as ``scripts/<name>.sh`` must exist.
    """
    import doctest
    import importlib
    import re

    parser = argparse.ArgumentParser(prog="repro check-docs")
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="repo root holding README.md and docs/ "
             "(default: two levels above this package)",
    )
    args = parser.parse_args(list(argv))
    root = (
        Path(args.root) if args.root
        else Path(__file__).resolve().parents[2]
    )
    failures = 0

    for name in DOCTEST_MODULES:
        result = doctest.testmod(importlib.import_module(name))
        print(f"doctest {name:28s}: {result.attempted} examples, "
              f"{result.failed} failed")
        failures += result.failed

    doc_paths = [root / "README.md"]
    doc_paths += sorted((root / "docs").glob("*.md"))
    command_ref = re.compile(r"python -m repro\.cli\s+([a-z][a-z0-9-]*)")
    script_ref = re.compile(r"scripts/([a-z0-9_-]+\.sh)")
    for path in doc_paths:
        if not path.exists():
            print(f"MISSING {path.relative_to(root)}", file=sys.stderr)
            failures += 1
            continue
        result = doctest.testfile(
            str(path), module_relative=False,
            optionflags=doctest.NORMALIZE_WHITESPACE,
        )
        rel = path.relative_to(root)
        print(f"doctest {str(rel):28s}: {result.attempted} examples, "
              f"{result.failed} failed")
        failures += result.failed
        text = path.read_text()
        for command in command_ref.findall(text):
            if command not in SUBCOMMANDS:
                print(f"{rel}: unknown repro.cli subcommand "
                      f"{command!r} (have: {', '.join(SUBCOMMANDS)})",
                      file=sys.stderr)
                failures += 1
        for script in script_ref.findall(text):
            if not (root / "scripts" / script).exists():
                print(f"{rel}: references missing scripts/{script}",
                      file=sys.stderr)
                failures += 1

    if failures:
        print(f"check-docs: {failures} failure(s)", file=sys.stderr)
        return 1
    print("check-docs ok")
    return 0


# ----------------------------------------------------------------------
# check-examples
# ----------------------------------------------------------------------

def check_examples(argv: Sequence[str] = ()) -> int:
    """Run every ``examples/*.py`` at smoke scale under a time cap.

    Each example is executed in a subprocess with ``REPRO_SMOKE=1`` in
    the environment (examples shrink their search budgets when they see
    it) and must exit zero within ``--timeout`` seconds, so the
    examples cannot rot against the API.
    """
    import os
    import subprocess
    import time

    parser = argparse.ArgumentParser(prog="repro check-examples")
    parser.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="wall-time cap per example (default: 120)",
    )
    parser.add_argument(
        "--examples-dir", default=None, metavar="DIR",
        help="directory of examples (default: <repo root>/examples)",
    )
    args = parser.parse_args(list(argv))
    root = Path(__file__).resolve().parents[2]
    examples_dir = (
        Path(args.examples_dir) if args.examples_dir
        else root / "examples"
    )
    scripts = sorted(examples_dir.glob("*.py"))
    if not scripts:
        print(f"no examples found under {examples_dir}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["REPRO_SMOKE"] = "1"
    src = str(root / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src if not existing else f"{src}{os.pathsep}{existing}"
    )
    failures = 0
    for script in scripts:
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                timeout=args.timeout,
                env=env,
                cwd=str(root),
            )
            elapsed = time.perf_counter() - started
            status = "ok" if proc.returncode == 0 else "FAIL"
        except subprocess.TimeoutExpired:
            elapsed = time.perf_counter() - started
            proc = None
            status = "TIMEOUT"
        print(f"  {script.name:<32} {status:>8} ({elapsed:5.1f} s)")
        if status != "ok":
            failures += 1
            if proc is not None and proc.stderr:
                tail = proc.stderr.strip().splitlines()[-12:]
                for line in tail:
                    print(f"    {line}", file=sys.stderr)
            elif status == "TIMEOUT":
                print(f"    exceeded --timeout {args.timeout:g} s",
                      file=sys.stderr)
    if failures:
        print(f"check-examples: {failures} failure(s)", file=sys.stderr)
        return 1
    print("check-examples ok")
    return 0


# ----------------------------------------------------------------------
# chaos-smoke
# ----------------------------------------------------------------------

def chaos_smoke(argv: Sequence[str] = ()) -> int:
    """Replay randomized fault storms against the invariant harness.

    Draws ``--runs`` chaos scenarios
    (:func:`repro.cluster.invariants.chaos_scenario_spec`: a random
    scenario plus a random storm schedule and recovery policy), runs
    each twice through :func:`repro.cluster.invariants.verify_scenario`
    -- byte-identical JSON, scheduler-log replay, conservation and
    fault-bound checks -- and fails on the first violation.  The quick
    pre-merge slice of the chaos harness in
    ``tests/test_chaos.py``.
    """
    from repro.cluster.invariants import chaos_scenario_spec, verify_scenario

    parser = argparse.ArgumentParser(prog="repro chaos-smoke")
    parser.add_argument(
        "--runs", type=int, default=5,
        help="number of seeded chaos scenarios to verify (default: 5)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="BASE",
        help="first chaos seed; runs use BASE..BASE+runs-1",
    )
    args = parser.parse_args(list(argv))
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2
    for seed in range(args.seed, args.seed + args.runs):
        spec = chaos_scenario_spec(seed)
        try:
            result = verify_scenario(spec)
        except AssertionError as error:
            print(f"chaos seed {seed} ({spec.name!r}): {error}",
                  file=sys.stderr)
            return 1
        fault = result.fault_metrics()
        print(
            f"  seed {seed:>3}  policy {spec.recovery.policy:<18} "
            f"jobs {len(result.jobs):>3}  "
            f"faults {fault['fault_events']:>2}  "
            f"lost {fault['lost_work_s']:8.1f} s  ok"
        )
    print(f"chaos-smoke ok ({args.runs} runs)")
    return 0


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "scenario": cmd_scenario,
    "trace": cmd_trace,
    "serve-batch": cmd_serve_batch,
    "cache": cmd_cache,
    "bench": cmd_bench,
    "bench-smoke": bench_smoke,
    "chaos-smoke": chaos_smoke,
    "check-docs": check_docs,
    "check-examples": check_examples,
}

#: Subcommands of ``python -m repro.cli``; the docs checker validates
#: every command reference in README.md / docs/*.md against this set.
SUBCOMMANDS = tuple(COMMANDS)


def _usage() -> str:
    """The subcommand list printed when no subcommand is given."""
    lines = ["usage: python -m repro.cli <subcommand> [options]", "",
             "subcommands:"]
    for name, command in COMMANDS.items():
        summary = command.__doc__.strip().splitlines()[0].replace("``", "")
        lines.append(f"  {name:<15} {summary}")
    lines += ["", "'python -m repro.cli <subcommand> --help' lists the "
                  "subcommand's options"]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    if argv and argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    if argv:
        print(f"error: unknown subcommand {argv[0]!r}", file=sys.stderr)
    print(_usage(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
