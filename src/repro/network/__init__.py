"""Network substrate: topologies, architectures, optical devices, and costs.

This subpackage provides every interconnect the paper evaluates:

* :mod:`repro.network.topology` -- the direct-connect multigraph abstraction
  used by TopoOpt itself.
* :mod:`repro.network.fattree` -- full-bisection Fat-tree, 2:1 oversubscribed
  Fat-tree, and the Ideal Switch abstraction.
* :mod:`repro.network.expander` -- Jellyfish-style random regular expander.
* :mod:`repro.network.sipml` -- the SiP-ML ring fabric (modified per
  Appendix F of the paper).
* :mod:`repro.network.optical` -- optical switching devices (patch panels
  and 3D-MEMS OCSs, Table 1).
* :mod:`repro.network.cost` -- the component cost model of Table 2 /
  Appendix G and per-architecture interconnect cost (Figure 10).
"""

from repro.network.topology import DirectConnectTopology, LinkCapacityMap
from repro.network.topoopt import RemappedFabric, TopoOptFabric
from repro.network.fattree import (
    FatTreeFabric,
    IdealSwitchFabric,
    LeafSpineFabric,
    OversubscribedFatTreeFabric,
)
from repro.network.expander import ExpanderFabric, random_regular_topology
from repro.network.optical import (
    OpticalCircuitSwitch,
    OpticalPatchPanel,
    OpticalTechnology,
    OPTICAL_TECHNOLOGIES,
)
from repro.network.cost import (
    ComponentCosts,
    COMPONENT_COSTS,
    architecture_cost,
    cost_equivalent_fattree_bandwidth,
)


def __getattr__(name):
    """Lazily import the fabrics that live on top of :mod:`repro.sim`
    or :mod:`repro.core`, which themselves build on this package
    (PEP 562 keeps the imports acyclic)."""
    if name == "SipMLFabric":
        from repro.network.sipml import SipMLFabric

        return SipMLFabric
    if name == "HierarchicalTopoOptFabric":
        from repro.network.hierarchical import HierarchicalTopoOptFabric

        return HierarchicalTopoOptFabric
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DirectConnectTopology",
    "LinkCapacityMap",
    "TopoOptFabric",
    "RemappedFabric",
    "FatTreeFabric",
    "IdealSwitchFabric",
    "LeafSpineFabric",
    "OversubscribedFatTreeFabric",
    "ExpanderFabric",
    "random_regular_topology",
    "SipMLFabric",
    "HierarchicalTopoOptFabric",
    "OpticalCircuitSwitch",
    "OpticalPatchPanel",
    "OpticalTechnology",
    "OPTICAL_TECHNOLOGIES",
    "ComponentCosts",
    "COMPONENT_COSTS",
    "architecture_cost",
    "cost_equivalent_fattree_bandwidth",
]
