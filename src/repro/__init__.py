"""TopoOpt reproduction: co-optimizing network topology and parallelization.

A from-scratch Python implementation of the system described in
*TopoOpt: Co-optimizing Network Topology and Parallelization Strategy
for Distributed Training Jobs* (NSDI 2023), including the optimization
core (TotientPerms, SelectPermutations, TopologyFinder, coin-change
routing, alternating optimization), the workload and network substrates,
an event-driven fluid flow simulator, and the full evaluation harness.

Quick start::

    from repro import (
        build_model, hybrid_strategy, extract_traffic,
        topology_finder, TopoOptFabric, simulate_iteration,
    )

    model = build_model("DLRM", scale="testbed")
    strategy = hybrid_strategy(model, num_servers=12)
    traffic = extract_traffic(model, strategy, batch_per_gpu=64,
                              gpus_per_server=1)
    result = topology_finder(12, 4, traffic.allreduce_groups,
                             traffic.mp_matrix)
    fabric = TopoOptFabric(result, link_bandwidth_bps=25e9)
    breakdown = simulate_iteration(fabric, traffic, compute_s=0.05)
    print(breakdown.total_s)
"""

from repro.core import (
    AllReduceGroup,
    AlternatingOptimizer,
    AlternatingResult,
    CoinChangeRouter,
    coprime_strides,
    euler_phi,
    ocs_reconfig,
    prime_strides,
    ring_permutation,
    select_permutations,
    topology_finder,
    totient_perms,
    TopologyFinderResult,
)
from repro.models import (
    A100,
    DNNModel,
    GPUSpec,
    Layer,
    LayerKind,
    build_model,
    compute_time_seconds,
)
from repro.network import (
    DirectConnectTopology,
    ExpanderFabric,
    FatTreeFabric,
    HierarchicalTopoOptFabric,
    IdealSwitchFabric,
    LeafSpineFabric,
    OversubscribedFatTreeFabric,
    SipMLFabric,
    TopoOptFabric,
    architecture_cost,
    cost_equivalent_fattree_bandwidth,
)
from repro.parallel import (
    LayerPlacement,
    MCMCSearch,
    ParallelizationStrategy,
    PlacementKind,
    data_parallel_strategy,
    extract_traffic,
    hybrid_strategy,
)
from repro.sim import (
    Flow,
    IterationBreakdown,
    ReconfigurableFabricSimulator,
    SharedClusterSimulator,
    simulate_iteration,
    simulate_phase,
)
from repro.testbed import TestbedEmulator, TimeToAccuracyModel

__version__ = "1.0.0"

__all__ = [
    "AllReduceGroup",
    "AlternatingOptimizer",
    "AlternatingResult",
    "CoinChangeRouter",
    "coprime_strides",
    "euler_phi",
    "ocs_reconfig",
    "prime_strides",
    "ring_permutation",
    "select_permutations",
    "topology_finder",
    "totient_perms",
    "TopologyFinderResult",
    "A100",
    "DNNModel",
    "GPUSpec",
    "Layer",
    "LayerKind",
    "build_model",
    "compute_time_seconds",
    "DirectConnectTopology",
    "ExpanderFabric",
    "FatTreeFabric",
    "HierarchicalTopoOptFabric",
    "IdealSwitchFabric",
    "LeafSpineFabric",
    "OversubscribedFatTreeFabric",
    "SipMLFabric",
    "TopoOptFabric",
    "architecture_cost",
    "cost_equivalent_fattree_bandwidth",
    "LayerPlacement",
    "MCMCSearch",
    "ParallelizationStrategy",
    "PlacementKind",
    "data_parallel_strategy",
    "extract_traffic",
    "hybrid_strategy",
    "Flow",
    "IterationBreakdown",
    "ReconfigurableFabricSimulator",
    "SharedClusterSimulator",
    "simulate_iteration",
    "simulate_phase",
    "TestbedEmulator",
    "TimeToAccuracyModel",
    "__version__",
]
