"""Extension: TotientPerms inside Fat-trees (section 7, "TotientPerms in
Fat-trees").

The paper notes the technique "may be of independent interest for
Fat-tree interconnects as well, since load-balancing the AllReduce
traffic across multiple permutations can help with network congestion."

We measure it on a leaf-spine Fat-tree whose spine-0 links are congested
by background elephant flows (another tenant).  A single ring pushes the
full per-edge payload through whatever spine its ECMP hash picked -- an
unlucky edge crossing the congested spine dominates the collective.
Splitting the same payload across several TotientPerms permutations
caps any one edge's exposure at 1/R of the payload, so the collective
finishes at the healthy links' pace.
"""

import numpy as np

from benchmarks.harness import GBPS, emit, format_table
from repro.core.select_perms import select_permutations
from repro.core.totient import coprime_strides, ring_permutation
from repro.network.fattree import LeafSpineFabric
from repro.parallel.collectives import allreduce_edge_bytes
from repro.sim.events import FlowEventEngine
from repro.sim.flows import Flow
from repro.sim.fluid import compile_phase

N = 32
SERVERS_PER_RACK = 8
NUM_SPINES = 4
DEGREE = 4
LINK_GBPS = 25.0
PAYLOAD = 4e9  # bytes synchronized
TRIALS = 6  # random server labelings (ECMP hash realizations)


def _ring_flows(order, per_edge_bytes, fabric):
    flows = []
    k = len(order)
    for i in range(k):
        src, dst = order[i], order[(i + 1) % k]
        path = fabric.paths(src, dst)[0]
        flows.append(
            Flow(path=tuple(path), size_bits=per_edge_bytes * 8.0)
        )
    return flows


def _background_flows(fabric):
    """Another tenant's elephants, pinned through spine 0."""
    spine = fabric.spine_node(0)
    flows = []
    for rack in range(fabric.num_racks - 1):
        leaf_a = fabric.num_servers + rack
        leaf_b = fabric.num_servers + rack + 1
        src = rack * fabric.servers_per_rack
        dst = (rack + 1) * fabric.servers_per_rack
        flows.append(
            Flow(
                path=(src, leaf_a, spine, leaf_b, dst),
                size_bits=PAYLOAD * 80.0,  # outlasts the collective
                kind="mp",
                tag="background",
            )
        )
    return flows


def _collective_completion(fabric, ring_flows):
    """Time until every ring flow finishes, with background present."""
    capacities = fabric.capacities()
    flows = list(ring_flows) + _background_flows(fabric)
    engine = FlowEventEngine(
        capacities,
        compile_phase(
            capacities,
            [flow.path for flow in flows],
            [flow.size_bits for flow in flows],
        ),
    )
    ring = engine.completion_times[: len(ring_flows)]  # a view
    while np.isnan(ring).any():
        if engine.step() is None:
            raise RuntimeError("collective stalled")
    return float(ring.max())


def run_experiment():
    fabric = LeafSpineFabric(
        N,
        DEGREE,
        LINK_GBPS * GBPS,
        servers_per_rack=SERVERS_PER_RACK,
        num_spines=NUM_SPINES,
    )
    rng = np.random.RandomState(7)
    labelings = []
    for _ in range(TRIALS):
        labels = list(range(N))
        rng.shuffle(labels)
        labelings.append(labels)

    results = {}
    for num_perms in (1, 2, 4):
        strides = select_permutations(N, num_perms, coprime_strides(N))
        per_edge = allreduce_edge_bytes(PAYLOAD, N, len(strides))
        times = []
        for labels in labelings:
            flows = []
            for stride in strides:
                order = ring_permutation(labels, stride)
                flows.extend(_ring_flows(order, per_edge, fabric))
            times.append(_collective_completion(fabric, flows))
        results[num_perms] = (
            strides,
            float(np.mean(times)),
            float(np.max(times)),
        )
    return results


def bench_ext_totientperms_fattree(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    base_mean = results[1][1]
    base_worst = results[1][2]
    rows = [
        (
            num_perms,
            str(strides),
            f"{mean * 1e3:.0f}",
            f"{worst * 1e3:.0f}",
            f"{base_worst / worst:.2f}x",
        )
        for num_perms, (strides, mean, worst) in results.items()
    ]
    lines = [
        f"Extension: TotientPerms AllReduce on an ECMP leaf-spine "
        f"Fat-tree with a congested spine ({N} servers, "
        f"{NUM_SPINES} spines, {PAYLOAD / 1e9:.0f} GB payload, "
        f"{TRIALS} labelings)"
    ]
    lines += format_table(
        (
            "permutations",
            "strides",
            "mean ms",
            "worst ms",
            "worst-case speedup",
        ),
        rows,
    )
    lines.append(
        "multiple permutations cap any edge's exposure to the congested "
        "spine at 1/R of the payload -- the section 7 conjecture, "
        "measured"
    )
    emit("ext_totientperms_fattree", lines)
    assert results[4][2] < base_worst  # tail shrinks
    assert results[4][1] <= base_mean * 1.02  # mean no worse


if __name__ == "__main__":
    for perms, row in run_experiment().items():
        print(perms, row)
