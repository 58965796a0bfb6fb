"""Optical switching devices: patch panels and OCSs.

Table 1 of the paper compares the optical technologies usable in a
TopoOpt cluster.  This module models the two commercially deployable
ones in functional detail -- reconfigurable optical patch panels
(Telescent-style, minutes-scale robotic reconfiguration) and 3D-MEMS
optical circuit switches (~10 ms).  Appendix C's look-ahead admission,
which hides the patch panel's latency between jobs, is charged by the
scenario engine (:class:`repro.cluster.scheduler.ShardManager`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

Port = int
Circuit = Tuple[Port, Port]


@dataclass(frozen=True)
class OpticalTechnology:
    """One row of Table 1."""

    name: str
    port_count: int
    reconfiguration_latency_s: float
    insertion_loss_db: Tuple[float, float]
    cost_per_port_usd: Optional[float]  # None = not commercially available
    commercially_available: bool


#: Table 1 of the paper, verbatim.
OPTICAL_TECHNOLOGIES: Dict[str, OpticalTechnology] = {
    "patch_panel": OpticalTechnology(
        "Optical Patch Panels", 1008, 60.0, (0.5, 0.5), 100.0, True
    ),
    "3d_mems": OpticalTechnology(
        "3D MEMS", 384, 10e-3, (1.5, 2.7), 520.0, True
    ),
    "2d_mems": OpticalTechnology(
        "2D MEMS", 300, 11.5e-6, (10.0, 20.0), None, False
    ),
    "silicon_photonics": OpticalTechnology(
        "Silicon Photonics", 256, 900e-9, (3.7, 3.7), None, False
    ),
    "tunable_lasers": OpticalTechnology(
        "Tunable Lasers", 128, 3.8e-9, (7.0, 13.0), None, False
    ),
    "rotornet": OpticalTechnology(
        "RotorNet", 64, 10e-6, (2.0, 2.0), None, False
    ),
}


class CircuitConflictError(ValueError):
    """Raised when a requested circuit would double-book a port."""


class _CircuitDevice:
    """Shared crossbar bookkeeping for patch panels and OCSs."""

    def __init__(self, port_count: int, reconfiguration_latency_s: float):
        if port_count < 2:
            raise ValueError("need at least two ports")
        self.port_count = port_count
        self.reconfiguration_latency_s = reconfiguration_latency_s
        self._forward: Dict[Port, Port] = {}  # ingress -> egress
        self._reverse: Dict[Port, Port] = {}  # egress -> ingress
        self.reconfigurations = 0

    # ------------------------------------------------------------------
    def connect(self, ingress: Port, egress: Port) -> None:
        self._check_port(ingress)
        self._check_port(egress)
        if ingress in self._forward:
            raise CircuitConflictError(
                f"ingress port {ingress} already wired to "
                f"{self._forward[ingress]}"
            )
        if egress in self._reverse:
            raise CircuitConflictError(
                f"egress port {egress} already wired from "
                f"{self._reverse[egress]}"
            )
        self._forward[ingress] = egress
        self._reverse[egress] = ingress

    def disconnect(self, ingress: Port) -> None:
        egress = self._forward.pop(ingress, None)
        if egress is None:
            raise KeyError(f"ingress port {ingress} is not wired")
        del self._reverse[egress]

    def peer(self, ingress: Port) -> Optional[Port]:
        return self._forward.get(ingress)

    def circuits(self) -> List[Circuit]:
        return sorted(self._forward.items())

    def reconfigure(self, circuits: List[Circuit]) -> float:
        """Atomically rewire to a new circuit set; returns the latency.

        Validates the new configuration before touching state, so a
        conflicting request leaves the device unchanged.
        """
        ingresses = [c[0] for c in circuits]
        egresses = [c[1] for c in circuits]
        if len(set(ingresses)) != len(ingresses):
            raise CircuitConflictError("duplicate ingress port in request")
        if len(set(egresses)) != len(egresses):
            raise CircuitConflictError("duplicate egress port in request")
        for ingress, egress in circuits:
            self._check_port(ingress)
            self._check_port(egress)
        self._forward = dict(circuits)
        self._reverse = {e: i for i, e in circuits}
        self.reconfigurations += 1
        return self.reconfiguration_latency_s

    def _check_port(self, port: Port) -> None:
        if not 0 <= port < self.port_count:
            raise ValueError(
                f"port {port} out of range [0, {self.port_count})"
            )


class OpticalPatchPanel(_CircuitDevice):
    """Telescent-style robotic patch panel: huge radix, minutes to rewire."""

    def __init__(self, port_count: int = 1008):
        tech = OPTICAL_TECHNOLOGIES["patch_panel"]
        super().__init__(port_count, tech.reconfiguration_latency_s)
        self.technology = tech


class OpticalCircuitSwitch(_CircuitDevice):
    """3D-MEMS OCS: smaller radix, ~10 ms reconfiguration."""

    def __init__(self, port_count: int = 384):
        tech = OPTICAL_TECHNOLOGIES["3d_mems"]
        super().__init__(port_count, tech.reconfiguration_latency_s)
        self.technology = tech

