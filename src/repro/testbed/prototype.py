"""The 12-node TopoOpt prototype, emulated (section 6).

The paper's testbed: 12 ASUS servers, one A100 each, one HPE 100 Gbps
NIC broken out into 4x25 Gbps interfaces (d=4, B=25 Gbps), wired through
a Telescent patch panel, with RoCEv2 + NPAR host forwarding.  Baselines:
the same servers behind a 100 Gbps switch ("Switch 100Gbps" ~ Ideal
Switch) and behind a 25 Gbps switch ("Switch 25Gbps").

The emulator builds each job with :func:`repro.api.runner.prepare` on
the testbed cluster (strategy ``auto``, TopoOpt fabric), runs it
through the fluid simulator on each fabric, applies the RDMA
forwarding penalty to multi-hop MP traffic on TopoOpt, and reports
training throughput in samples/second (Figure 19) and all-to-all
sweeps (Figure 21).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.registry import build_fabric
from repro.api.runner import PreparedExperiment, prepare
from repro.api.spec import EXPERIMENT_PRESETS, ExperimentSpec, FabricSpec
from repro.network.topoopt import TopoOptFabric
from repro.parallel.traffic import TrafficSummary
from repro.sim.network_sim import IterationBreakdown, simulate_iteration
from repro.sim.rdma import RdmaForwardingModel

#: The testbed's TopoOpt fabric, the job's own ``prepare`` output.
TOPOOPT = "TopoOpt 4x25Gbps"
#: Each baseline switch's per-server bandwidth (Gb/s, one NIC).
SWITCH_GBPS: Dict[str, float] = {
    "Switch 100Gbps": 100.0,
    "Switch 25Gbps": 25.0,
}


class TestbedEmulator:
    """Runs testbed workloads on the three section 6 fabrics."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self):
        self.rdma = RdmaForwardingModel(EXPERIMENT_PRESETS["testbed"].degree)

    def iteration(
        self,
        model_name: str,
        fabric_name: str,
        batch_per_gpu: Optional[int] = None,
    ) -> IterationBreakdown:
        """Simulate one iteration on one of the three testbed fabrics.

        ``model_name`` is a testbed preset
        (:data:`repro.models.configs.TESTBED_CONFIGS`);
        ``fabric_name``: "TopoOpt 4x25Gbps", "Switch 100Gbps", or
        "Switch 25Gbps".
        """
        return self._run(model_name, (fabric_name,), batch_per_gpu)[1][
            fabric_name
        ]

    def _run(
        self,
        model_name: str,
        fabric_names: Sequence[str],
        batch_per_gpu: Optional[int],
    ) -> Tuple[PreparedExperiment, Dict[str, IterationBreakdown]]:
        """Prepare the job once and time it on each named fabric."""
        for fabric_name in fabric_names:
            if fabric_name != TOPOOPT and fabric_name not in SWITCH_GBPS:
                raise ValueError(
                    f"unknown testbed fabric {fabric_name!r}; use "
                    "'TopoOpt 4x25Gbps', 'Switch 100Gbps', or "
                    "'Switch 25Gbps'"
                )
        prepared = prepare(
            ExperimentSpec.preset("testbed", model_name).with_overrides(
                {"strategy": "auto", "batch_per_gpu": batch_per_gpu}
            )
        )
        return prepared, {
            fabric_name: self._simulate(prepared, fabric_name)
            for fabric_name in fabric_names
        }

    def _simulate(
        self, prepared: PreparedExperiment, fabric_name: str
    ) -> IterationBreakdown:
        traffic = prepared.traffic
        if fabric_name == TOPOOPT:
            breakdown = simulate_iteration(
                prepared.fabric, traffic, prepared.compute_s
            )
            return self._apply_rdma_penalty(
                breakdown, prepared.fabric, traffic
            )
        switch = build_fabric(
            FabricSpec(
                kind="ideal-switch",
                degree=1,
                bandwidth_gbps=SWITCH_GBPS[fabric_name],
            ),
            prepared.context,
        )
        return simulate_iteration(switch, traffic, prepared.compute_s)

    def _apply_rdma_penalty(
        self,
        breakdown: IterationBreakdown,
        fabric: TopoOptFabric,
        traffic: TrafficSummary,
    ) -> IterationBreakdown:
        """Stretch the MP phase by the kernel-forwarding overhead.

        Multi-hop logical RDMA connections run at a reduced rate on the
        relay hops (Appendix I); the slowdown applied is the demand-
        weighted average of the per-path penalty factors.
        """
        matrix = traffic.mp_matrix
        n = traffic.n
        weighted = 0.0
        total = 0.0
        for src in range(n):
            for dst in range(n):
                byte_count = float(matrix[src, dst])
                if src == dst or byte_count <= 0:
                    continue
                paths = fabric.paths(src, dst, "mp")
                hops = len(paths[0]) - 1 if paths else 1
                rate_fraction = (
                    self.rdma.effective_rate_bps(hops, 1.0) if hops >= 1 else 1.0
                )
                weighted += byte_count / max(rate_fraction, 1e-9)
                total += byte_count
        slowdown = (weighted / total) if total > 0 else 1.0
        return IterationBreakdown(
            compute_s=breakdown.compute_s,
            mp_s=breakdown.mp_s * slowdown,
            allreduce_s=breakdown.allreduce_s,
            link_bytes=breakdown.link_bytes,
        )

    # ------------------------------------------------------------------
    def throughput_samples_per_s(
        self,
        model_name: str,
        fabric_name: str,
        batch_per_gpu: Optional[int] = None,
    ) -> float:
        """Figure 19's samples/second for one (model, fabric) pair."""
        return self._throughputs(model_name, (fabric_name,), batch_per_gpu)[
            fabric_name
        ]

    def _throughputs(
        self,
        model_name: str,
        fabric_names: Sequence[str],
        batch_per_gpu: Optional[int] = None,
    ) -> Dict[str, float]:
        prepared, breakdowns = self._run(
            model_name, fabric_names, batch_per_gpu
        )
        cluster = prepared.spec.cluster
        samples = (
            prepared.batch_per_gpu * cluster.gpus_per_server * cluster.servers
        )
        return {
            fabric_name: samples / breakdown.total_s
            for fabric_name, breakdown in breakdowns.items()
        }

    def throughput_table(
        self, model_names: List[str]
    ) -> Dict[str, Dict[str, float]]:
        """Figure 19: model -> fabric -> samples/second.

        Each model is prepared once and timed on all three fabrics.
        """
        return {
            name: self._throughputs(name, (TOPOOPT, *SWITCH_GBPS))
            for name in model_names
        }
