"""Figure 21: impact of all-to-all traffic in the 12-node testbed.

Paper: DLRM with 128x-enlarged embedding dimensions; as the batch grows
from 32 to 512 the all-to-all share rises from 5% to 78% and the
iteration time grows for all fabrics; TopoOpt stays between the two
switches (1.6x better than Switch 25Gbps at batch 512) because the
12-node bandwidth tax is small.
"""

from benchmarks.harness import emit, format_table
from repro.models import build_model
from repro.parallel.strategy import hybrid_strategy
from repro.parallel.traffic import extract_traffic
from repro.testbed.prototype import TestbedEmulator

BATCHES = (32, 64, 128, 256, 512)
FABRICS = ["TopoOpt 4x25Gbps", "Switch 100Gbps", "Switch 25Gbps"]


def _traffic_ratio(traffic):
    """All-to-all bytes over *carried* AllReduce bytes (2(k-1)S)."""
    carried = sum(
        2.0 * (g.size - 1) * g.total_bytes
        for g in traffic.allreduce_groups
    )
    return traffic.total_mp_bytes / carried if carried else float("inf")


def run_experiment():
    emulator = TestbedEmulator()
    model = build_model("DLRM-alltoall", scale="testbed")
    rows = []
    for batch in BATCHES:
        traffic = extract_traffic(
            model, hybrid_strategy(model, 12), batch, 1
        )
        ratio = _traffic_ratio(traffic)
        times = {
            fabric: emulator.iteration("DLRM-alltoall", fabric, batch).total_s
            for fabric in FABRICS
        }
        rows.append((batch, ratio, times))
    return rows


def bench_fig21_testbed_alltoall(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table_rows = [
        (
            batch,
            f"{ratio * 100:.0f}%",
            *(f"{times[f] * 1e3:.1f}" for f in FABRICS),
        )
        for batch, ratio, times in rows
    ]
    lines = [
        "Figure 21: testbed all-to-all sweep (DLRM iteration time, ms)"
    ]
    lines += format_table(
        ("batch", "a2a:AR", *FABRICS), table_rows
    )
    last = rows[-1][2]
    gain = last["Switch 25Gbps"] / last["TopoOpt 4x25Gbps"]
    lines.append(
        f"at batch {BATCHES[-1]}: TopoOpt {gain:.2f}x better than "
        "Switch 25Gbps (paper: 1.6x)"
    )
    emit("fig21_testbed_alltoall", lines)

    # Iteration time grows with batch on every fabric.
    for fabric in FABRICS:
        times = [t[fabric] for _, _, t in rows]
        assert all(a < b for a, b in zip(times, times[1:])), fabric
    # TopoOpt sits between the switches at every batch.
    for batch, _, times in rows:
        assert times["TopoOpt 4x25Gbps"] < times["Switch 25Gbps"]
    assert gain > 1.3
