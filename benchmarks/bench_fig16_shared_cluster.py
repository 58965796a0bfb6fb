"""Figure 16: shared cluster -- average and p99 iteration time vs load.

Paper (432 servers, d=8, B=100 Gbps; jobs of 16 servers; mix 40% DLRM,
30% BERT, 20% CANDLE, 10% VGG16): TopoOpt improves the average
iteration time 1.7x over Fat-tree and the tail up to 3.4x at full load,
because optical sharding isolates jobs while the Fat-tree core is
shared.

Each (architecture, load) cell is one ``ScenarioSpec`` run by the
scenario engine: every job arrives at t = 0 on its own block of
servers, and the average and p99 pool all jobs' iterations
(``ScenarioResult.iteration_stats``).
"""

from benchmarks.harness import emit, format_table, full_scale, scale_config
from repro.api import ClusterSpec, FabricSpec
from repro.cluster import (
    ArrivalSpec,
    JobTemplateSpec,
    ScenarioSpec,
    run_scenario,
)

DEGREE = 8
LINK_GBPS = 100.0
ITERATIONS = 4
JOB_MIX = ["DLRM", "DLRM", "DLRM", "DLRM", "BERT", "BERT", "BERT",
           "CANDLE", "CANDLE", "VGG16"]  # 40/30/20/10%
LOADS = (0.2, 0.6, 1.0) if not full_scale() else (0.2, 0.4, 0.6, 0.8, 1.0)


def architectures(servers_per_job):
    """Display name -> the scenario fabric of each Figure 16 series."""
    return {
        "TopoOpt": FabricSpec(kind="topoopt"),
        "Fat-tree": FabricSpec(kind="fattree"),
        # Racks are half a job wide, so every job spans racks and its
        # ring crosses the (2:1 oversubscribed) ToR uplinks.
        "Oversub Fat-tree": FabricSpec(
            kind="oversubscribed-fattree",
            options={"servers_per_rack": max(servers_per_job // 2, 2)},
        ),
        "Ideal Switch": FabricSpec(kind="ideal-switch"),
    }


def scenario_spec(load, fabric, cfg):
    """The cluster at ``load``: that share of its servers busy at t = 0.

    Jobs cycle through ``JOB_MIX``, one per ``servers_per_job`` block,
    and each runs ``ITERATIONS`` iterations.
    """
    jobs = max(1, int(load * cfg.shared_servers / cfg.servers_per_job))
    return ScenarioSpec(
        name=f"fig16-{fabric.kind}-{load:g}",
        cluster=ClusterSpec(
            servers=cfg.shared_servers,
            degree=DEGREE,
            bandwidth_gbps=LINK_GBPS,
        ),
        fabric=fabric,
        arrivals=ArrivalSpec(process="explicit", times=(0.0,) * jobs),
        jobs=tuple(
            JobTemplateSpec(
                model=model,
                servers=cfg.servers_per_job,
                iterations=ITERATIONS,
            )
            for model in JOB_MIX
        ),
    )


def run_experiment():
    cfg = scale_config()
    fabrics = architectures(cfg.servers_per_job)
    results = {}
    for load in LOADS:
        results[load] = {}
        for arch, fabric in fabrics.items():
            result = run_scenario(scenario_spec(load, fabric, cfg))
            results[load][arch] = result.iteration_stats()
    return results


def bench_fig16_shared_cluster(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    cfg = scale_config()
    archs = ["TopoOpt", "Fat-tree", "Oversub Fat-tree", "Ideal Switch"]
    lines = [
        f"Figure 16: shared cluster of {cfg.shared_servers} servers "
        f"(d={DEGREE}, B={LINK_GBPS:g} Gbps)"
    ]
    for metric, index in (("average", 0), ("p99", 1)):
        lines.append(f"\n  {metric} iteration time (ms) vs load:")
        rows = [
            (
                f"{load * 100:.0f}%",
                *(f"{results[load][a][index] * 1e3:.1f}" for a in archs),
            )
            for load in results
        ]
        lines += ["  " + l for l in format_table(("load", *archs), rows)]
    full_load = results[max(results)]
    avg_gain = full_load["Fat-tree"][0] / full_load["TopoOpt"][0]
    tail_gain = full_load["Fat-tree"][1] / full_load["TopoOpt"][1]
    lines.append(
        f"\nat full load: TopoOpt vs Fat-tree {avg_gain:.2f}x average, "
        f"{tail_gain:.2f}x p99 (paper: 1.7x avg, 3.4x p99)"
    )
    emit("fig16_shared_cluster", lines)

    for load, per_arch in results.items():
        # TopoOpt beats both Fat-trees at every load.
        assert per_arch["TopoOpt"][0] < per_arch["Fat-tree"][0]
    # The shared-fabric penalty grows with load for Fat-tree.
    loads = sorted(results)
    assert (
        results[loads[-1]]["Fat-tree"][1]
        >= results[loads[0]]["Fat-tree"][1]
    )
    assert avg_gain > 1.2
