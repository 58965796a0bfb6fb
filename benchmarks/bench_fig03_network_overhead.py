"""Figure 3: network overhead (%) vs number of GPUs for six DNN jobs.

Paper: on a conventional fabric, communication grows to as much as 60%
of iteration time as jobs scale from 8 to 128 GPUs (weak scaling: fixed
per-GPU batch).  We simulate each List 1 model on a 100 Gbps switch at
increasing server counts and report the communication share.
"""

from benchmarks.harness import emit, experiment_spec, format_table, full_scale
from repro.api import SpecError, prepare
from repro.sim.network_sim import simulate_iteration

MODELS = ["DLRM", "CANDLE", "BERT", "VGG16"]
FULL_MODELS = ["DLRM", "CANDLE", "BERT", "NCF", "ResNet50", "VGG16"]
GPUS_PER_SERVER = 4
NICS_PER_SERVER = 4
BANDWIDTH_GBPS = 100.0


def run_experiment():
    models = FULL_MODELS if full_scale() else MODELS
    gpu_counts = (8, 16, 32, 64, 128) if full_scale() else (8, 16, 32, 64)
    table = {}
    for name in models:
        row = []
        for gpus in gpu_counts:
            n = max(gpus // GPUS_PER_SERVER, 2)
            scale = "simulation" if full_scale() else "shared"
            try:
                spec = experiment_spec(name, n, scale)
            except SpecError:
                spec = experiment_spec(name, n, "simulation")
            # Meta-style servers: multiple GPU NICs per server (four
            # 100 Gbps pipes), matching the production setup of sec. 7.
            prepared = prepare(
                spec.with_overrides({
                    "degree": NICS_PER_SERVER,
                    "bandwidth_gbps": BANDWIDTH_GBPS,
                    "fabric.kind": "ideal-switch",
                })
            )
            breakdown = simulate_iteration(
                prepared.fabric, prepared.traffic, prepared.compute_s
            )
            row.append(breakdown.network_overhead_fraction)
        table[name] = (gpu_counts, row)
    return table


def bench_fig03(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = ["Figure 3: network overhead (%) vs number of GPUs"]
    any_counts = next(iter(table.values()))[0]
    rows = []
    for name, (counts, fractions) in table.items():
        rows.append(
            (name, *(f"{f * 100:.0f}%" for f in fractions))
        )
    lines += format_table(
        ("model", *(f"{c} GPUs" for c in any_counts)), rows
    )
    peak = max(f for _, (_, fr) in table.items() for f in fr)
    lines.append(
        f"peak overhead {peak * 100:.0f}% (paper: up to 60% at 128 GPUs)"
    )
    emit("fig03_network_overhead", lines)
    # Shape: overhead rises with scale for every model.
    for name, (_, fractions) in table.items():
        assert fractions[-1] >= fractions[0], name
    assert peak > 0.3
