"""Figure 11: dedicated cluster, d=4 -- iteration time vs link bandwidth.

Paper (128 servers, d=4): TopoOpt tracks the Ideal Switch for the
AllReduce-dominated models (CANDLE/VGG/BERT, ~2.8-3x over the
cost-equivalent Fat-tree), trails Ideal by 1.3x/1.7x for DLRM/NCF
(host-forwarding tax on MP transfers), OCS-reconfig suffers from demand
mis-estimation, and the Expander is worst.

Ported to the declarative API: each model is one ``ExperimentSpec``,
prepared once, and ``bandwidth_sweep`` times the architectures with
``compare_fabrics`` at every bandwidth on the spec's shared traffic.

Default scale: 32 servers with the section 5.6 model presets; set
REPRO_SCALE=full for 128 servers with the section 5.3 presets.
"""

from benchmarks.harness import (
    ARCHITECTURE_FABRICS,
    bandwidth_sweep,
    emit,
    experiment_spec,
    format_table,
    full_scale,
    scale_config,
    speedup_vs,
)
from repro.api import SpecError

DEGREE = 4
MODELS_SMALL = ["CANDLE", "VGG16", "BERT", "DLRM"]
MODELS_FULL = ["CANDLE", "VGG16", "BERT", "DLRM", "NCF", "ResNet50"]
ARCHS = ["TopoOpt", "Ideal Switch", "Fat-tree", "Expander", "SiP-ML"]


def run_experiment():
    cfg = scale_config()
    models = MODELS_FULL if full_scale() else MODELS_SMALL
    n = cfg.dedicated_servers
    fabrics = {arch: ARCHITECTURE_FABRICS[arch] for arch in ARCHS}
    results = {}
    for name in models:
        try:
            spec = experiment_spec(name, n, degree=DEGREE)
        except SpecError:
            spec = experiment_spec(
                name, n, model_scale="simulation", degree=DEGREE
            )
        results[name] = bandwidth_sweep(spec, fabrics, cfg.bandwidths_gbps)
    return results


def bench_fig11_dedicated_d4(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    cfg = scale_config()
    lines = [
        f"Figure 11: dedicated cluster of {cfg.dedicated_servers} "
        f"servers, d={DEGREE} (iteration time, ms)"
    ]
    fattree_speedups = []
    for model, per_bandwidth in results.items():
        lines.append(f"\n  {model}:")
        rows = []
        for gbps, times in per_bandwidth.items():
            rows.append(
                (
                    f"{gbps:g} Gbps",
                    *(f"{times[a] * 1e3:.1f}" for a in ARCHS),
                )
            )
        lines += [
            "  " + line for line in format_table(("B", *ARCHS), rows)
        ]
        ratios = [
            speedup_vs(times, "Fat-tree")["TopoOpt"]
            for times in per_bandwidth.values()
        ]
        avg = sum(ratios) / len(ratios)
        fattree_speedups.append((model, avg))
        lines.append(
            f"  TopoOpt vs cost-equivalent Fat-tree: {avg:.2f}x "
            "(paper: 2.1-3x)"
        )
    emit("fig11_dedicated_d4", lines)

    for model, per_bandwidth in results.items():
        for gbps, times in per_bandwidth.items():
            # Nothing beats the Ideal Switch.
            assert times["Ideal Switch"] <= min(times.values()) * 1.02
            # TopoOpt always beats the cost-equivalent Fat-tree.
            assert times["TopoOpt"] < times["Fat-tree"], (model, gbps)
        # The Expander never beats TopoOpt.
        for gbps, times in per_bandwidth.items():
            assert times["TopoOpt"] <= times["Expander"] * 1.05
    # Meaningful average speedups over Fat-tree.
    assert all(s > 1.3 for _, s in fattree_speedups)
