"""Event-driven fluid flow simulation (the FlexNetPacket analog).

The paper evaluates architectures with a packet-level simulator built on
htsim; per-packet effects are second-order for every reported result, so
this reproduction uses an event-driven *fluid* model: flows receive
max-min fair rates over their paths (progressive filling), recomputed at
every arrival/departure, with exact completion times under
piecewise-constant rates and 1 us per-hop propagation latency.

* :mod:`repro.sim.flows` -- flows and :class:`~repro.sim.flows.FlowSet`,
  the one compiler every stepper's flows go through.
* :mod:`repro.sim.events` -- the array-backed flow event engine.
* :mod:`repro.sim.fluid` -- the max-min phase runner built on it.
* :mod:`repro.sim.network_sim` -- training-iteration simulation
  (compute + MP + AllReduce phases, Eq. 1) on a fabric.
* :mod:`repro.sim.cluster` -- shared clusters: the concurrent-jobs
  fluid simulation the scenario engine steps (section 5.6).
* :mod:`repro.sim.reconfig` -- reconfigurable fabrics (OCS-reconfig and
  SiP-ML) with periodic demand estimation (section 5.7).
* :mod:`repro.sim.rdma` -- the host-based RDMA forwarding overlay
  (NPAR) model of section 6 / Appendix I.
"""

from repro.sim.flows import Flow
from repro.sim.fluid import simulate_phase
from repro.sim.network_sim import IterationBreakdown, simulate_iteration
from repro.sim.cluster import SharedClusterSimulator, JobSpec, JobStats
from repro.sim.reconfig import ReconfigurableFabricSimulator
from repro.sim.rdma import RdmaForwardingModel, NparInterface

__all__ = [
    "Flow",
    "simulate_phase",
    "IterationBreakdown",
    "simulate_iteration",
    "SharedClusterSimulator",
    "JobSpec",
    "JobStats",
    "ReconfigurableFabricSimulator",
    "RdmaForwardingModel",
    "NparInterface",
]
