"""Extension: hierarchical ToR-layer TopoOpt (section 3's scaling path).

The paper scales TopoOpt beyond the optical layer's port count by
direct-connecting ToR switches instead of servers.  We compare a flat
TopoOpt fabric against the hierarchical fabric on the same workload:
the hierarchy trades a small iteration-time penalty (aggregation +
two extra electrical hops) for needing only #racks optical ports
instead of #servers x d.
"""

from benchmarks.harness import emit, experiment_spec, format_table
from repro.api import prepare
from repro.network.hierarchical import HierarchicalTopoOptFabric
from repro.sim.network_sim import simulate_iteration

N = 32
SERVERS_PER_RACK = 4
DEGREE = 4
LINK_GBPS = 100.0


def run_experiment():
    results = {}
    for model_name in ("VGG16", "DLRM"):
        prepared = prepare(
            experiment_spec(
                model_name, N, "shared", degree=DEGREE, link_gbps=LINK_GBPS
            )
        )
        traffic, compute_s = prepared.traffic, prepared.compute_s
        flat = prepared.fabric
        hierarchical = HierarchicalTopoOptFabric(
            traffic,
            servers_per_rack=SERVERS_PER_RACK,
            tor_degree=DEGREE,
            server_gbps=DEGREE * LINK_GBPS,
            tor_link_gbps=SERVERS_PER_RACK * LINK_GBPS,
        )
        flat_t = simulate_iteration(flat, traffic, compute_s).total_s
        hier_t = simulate_iteration(
            hierarchical, traffic, compute_s
        ).total_s
        flat_ports = N * 2 * DEGREE  # look-ahead doubling
        hier_ports = hierarchical.num_racks * 2 * DEGREE
        results[model_name] = (flat_t, hier_t, flat_ports, hier_ports)
    return results


def bench_ext_hierarchical(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        (
            name,
            f"{flat_t * 1e3:.1f}",
            f"{hier_t * 1e3:.1f}",
            flat_ports,
            hier_ports,
            f"{flat_ports / hier_ports:.0f}x",
        )
        for name, (flat_t, hier_t, flat_ports, hier_ports) in results.items()
    ]
    lines = [
        f"Extension: flat vs hierarchical TopoOpt ({N} servers, "
        f"racks of {SERVERS_PER_RACK})"
    ]
    lines += format_table(
        (
            "model",
            "flat ms",
            "hierarchical ms",
            "flat optical ports",
            "hier. ports",
            "port saving",
        ),
        rows,
    )
    lines.append(
        "the ToR-layer direct-connect needs 1/servers_per_rack of the "
        "optical ports at a modest iteration-time cost (section 3)"
    )
    emit("ext_hierarchical", lines)
    for name, (flat_t, hier_t, flat_ports, hier_ports) in results.items():
        assert hier_ports < flat_ports
        # The hierarchy stays within a small factor of the flat fabric.
        assert hier_t < 3.0 * flat_t, name
