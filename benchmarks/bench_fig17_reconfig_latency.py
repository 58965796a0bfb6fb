"""Figure 17: impact of OCS reconfiguration latency (DLRM and BERT).

Paper (d=8, B=100 Gbps): sweeping the reconfiguration latency from 1 us
to 10 ms, OCS-reconfig-noFW approaches TopoOpt as the latency goes to
1 us; host-based forwarding helps DLRM (all-to-all MP) but *hurts* BERT
(demand mis-estimation + bandwidth tax); TopoOpt's one-shot topology is
flat across the sweep.
"""

from benchmarks.harness import (
    GBPS,
    emit,
    experiment_spec,
    format_table,
    full_scale,
)
from repro.api import prepare
from repro.sim.network_sim import simulate_iteration
from repro.sim.reconfig import ReconfigurableFabricSimulator

DEGREE = 8
LINK_GBPS = 100.0
LATENCIES = (1e-6, 1e-4, 1e-3, 1e-2)


def _cluster_size():
    return 128 if full_scale() else 16


def run_experiment():
    n = _cluster_size()
    results = {}
    for model_name in ("DLRM", "BERT"):
        prepared = prepare(
            experiment_spec(
                model_name, n, "shared", degree=DEGREE, link_gbps=LINK_GBPS
            )
        )
        traffic, compute_s = prepared.traffic, prepared.compute_s
        topo_time = simulate_iteration(
            prepared.fabric, traffic, compute_s
        ).total_s
        allreduce_demand = traffic.allreduce_matrix()
        sweep = []
        for latency in LATENCIES:
            row = {}
            for fw, label in ((True, "FW"), (False, "noFW")):
                sim = ReconfigurableFabricSimulator(
                    n,
                    DEGREE,
                    LINK_GBPS * GBPS,
                    reconfiguration_latency_s=latency,
                    demand_epoch_s=50e-3,
                    host_forwarding=fw,
                )
                row[label] = sim.iteration_time(
                    traffic.mp_matrix.copy(),
                    allreduce_demand.copy(),
                    compute_s,
                )
            sweep.append((latency, row))
        results[model_name] = (topo_time, sweep)
    return results


def bench_fig17_reconfig_latency(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = [
        f"Figure 17: reconfiguration-latency sweep "
        f"({_cluster_size()} servers, d={DEGREE})"
    ]
    for model_name, (topo_time, sweep) in results.items():
        lines.append(
            f"\n  {model_name} (TopoOpt one-shot: {topo_time * 1e3:.2f} ms):"
        )
        rows = [
            (
                f"{latency * 1e6:g} us",
                f"{row['FW'] * 1e3:.2f}",
                f"{row['noFW'] * 1e3:.2f}",
            )
            for latency, row in sweep
        ]
        lines += [
            "  " + l
            for l in format_table(
                ("reconfig latency", "OCS-FW ms", "OCS-noFW ms"), rows
            )
        ]
    lines.append(
        "\nshape: at 1 us OCS-reconfig approaches TopoOpt; at 10 ms it is "
        "several times slower (paper 5.7)"
    )
    emit("fig17_reconfig_latency", lines)

    for model_name, (topo_time, sweep) in results.items():
        fastest = sweep[0][1]
        slowest = sweep[-1][1]
        # Latency hurts monotonically (both modes).
        assert slowest["noFW"] > fastest["noFW"]
        # At 1 us the reconfigurable fabric is within ~2.5x of TopoOpt.
        assert min(fastest.values()) < 2.5 * topo_time
        # At 10 ms it is clearly worse than TopoOpt.
        assert min(slowest.values()) > topo_time
