"""Switch-based fabrics: Ideal Switch, Fat-tree, oversubscribed Fat-tree.

The paper's baselines (section 5.1):

* **Ideal Switch** -- a single electrical switch scaling to any number of
  servers, each attached with ``d x B`` bandwidth.  No network can beat
  it; a full-bisection Fat-tree approximates it, so both are modelled as
  a star through an infinitely fast hub with per-server up/down capacity.
* **Fat-tree** -- a full-bisection Fat-tree *cost-equivalent* to TopoOpt:
  one NIC per server at bandwidth ``d x B'`` with ``B' < B`` chosen so
  the interconnect cost matches (section 5.2).
* **Oversub. Fat-tree** -- a 2:1 oversubscribed Fat-tree: full ``d x B``
  at the server, but only half the ToR uplink capacity, so cross-rack
  traffic contends.

All three expose the fabric interface the flow simulator consumes:
``num_servers``, ``capacities()`` (directed link -> bps), and
``paths(src, dst)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

Link = Tuple[int, int]


class SwitchFabricBase:
    """Common star/tree plumbing for switch-based fabrics."""

    name = "switch"

    def __init__(self, num_servers: int):
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.num_servers = num_servers

    # Interface ---------------------------------------------------------
    def capacities(self) -> Dict[Link, float]:
        raise NotImplementedError

    def paths(self, src: int, dst: int, kind: str = "mp") -> List[List[int]]:
        raise NotImplementedError

    def _check(self, server: int) -> None:
        if not 0 <= server < self.num_servers:
            raise ValueError(
                f"server {server} out of range [0, {self.num_servers})"
            )


@dataclass
class IdealSwitchFabric(SwitchFabricBase):
    """One giant switch; per-server access bandwidth ``d * B`` (section 5.1).

    The hub is node id ``num_servers``.  Hub-internal capacity is
    unbounded, so the only constraints are the per-server up and down
    links -- exactly the Ideal Switch semantics.
    """

    def __init__(self, num_servers: int, degree: int, link_bandwidth_bps: float):
        super().__init__(num_servers)
        if degree < 1 or link_bandwidth_bps <= 0:
            raise ValueError("degree and bandwidth must be positive")
        self.degree = degree
        self.link_bandwidth_bps = link_bandwidth_bps
        self.name = "IdealSwitch"

    @property
    def hub(self) -> int:
        return self.num_servers

    @property
    def server_bandwidth_bps(self) -> float:
        return self.degree * self.link_bandwidth_bps

    def capacities(self) -> Dict[Link, float]:
        caps: Dict[Link, float] = {}
        for server in range(self.num_servers):
            caps[(server, self.hub)] = self.server_bandwidth_bps
            caps[(self.hub, server)] = self.server_bandwidth_bps
        return caps

    def paths(self, src: int, dst: int, kind: str = "mp") -> List[List[int]]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return [[src]]
        return [[src, self.hub, dst]]


class FatTreeFabric(IdealSwitchFabric):
    """Cost-equivalent full-bisection Fat-tree (one NIC at ``d * B'``).

    Structurally identical to the Ideal Switch star -- full bisection
    means the core never bottlenecks before the access links -- but the
    access bandwidth uses the *cost-equivalent* ``B'`` (about one third
    of TopoOpt's raw ``B`` under the paper's cost model; see
    :func:`repro.network.cost.cost_equivalent_fattree_bandwidth`).
    """

    def __init__(
        self, num_servers: int, degree: int, equivalent_bandwidth_bps: float
    ):
        super().__init__(num_servers, degree, equivalent_bandwidth_bps)
        self.name = "FatTree"


class LeafSpineFabric(SwitchFabricBase):
    """Two-tier leaf-spine Fat-tree with hash-based ECMP.

    Unlike the star abstraction, this fabric models individual spine
    links: each leaf has one uplink per spine, and a cross-rack flow is
    pinned to one spine by a deterministic hash of its (src, dst) pair
    -- the ECMP behaviour real Fat-trees exhibit.  Hash collisions
    concentrate unlucky flows on one spine link, which is exactly the
    congestion the section 7 "TotientPerms in Fat-trees" conjecture says
    multi-permutation AllReduce can dilute.

    Node ids: servers 0..n-1, leaf of rack r is n+r, spine s is
    n+racks+s.
    """

    def __init__(
        self,
        num_servers: int,
        degree: int,
        link_bandwidth_bps: float,
        servers_per_rack: int = 4,
        num_spines: int = 4,
    ):
        super().__init__(num_servers)
        if servers_per_rack < 1 or num_spines < 1:
            raise ValueError("racks and spines must be non-empty")
        self.degree = degree
        self.link_bandwidth_bps = link_bandwidth_bps
        self.servers_per_rack = servers_per_rack
        self.num_spines = num_spines
        self.num_racks = (
            num_servers + servers_per_rack - 1
        ) // servers_per_rack
        self.name = "LeafSpine"

    @property
    def server_bandwidth_bps(self) -> float:
        return self.degree * self.link_bandwidth_bps

    def leaf_of(self, server: int) -> int:
        return self.num_servers + server // self.servers_per_rack

    def spine_node(self, spine: int) -> int:
        return self.num_servers + self.num_racks + spine

    def _uplink_bandwidth(self, rack: int) -> float:
        """Full bisection: rack bandwidth split evenly over the spines."""
        start = rack * self.servers_per_rack
        population = min(
            self.servers_per_rack, self.num_servers - start
        )
        return population * self.server_bandwidth_bps / self.num_spines

    def capacities(self) -> Dict[Link, float]:
        caps: Dict[Link, float] = {}
        for server in range(self.num_servers):
            leaf = self.leaf_of(server)
            caps[(server, leaf)] = self.server_bandwidth_bps
            caps[(leaf, server)] = self.server_bandwidth_bps
        for rack in range(self.num_racks):
            leaf = self.num_servers + rack
            uplink = self._uplink_bandwidth(rack)
            for spine in range(self.num_spines):
                caps[(leaf, self.spine_node(spine))] = uplink
                caps[(self.spine_node(spine), leaf)] = uplink
        return caps

    def _ecmp_spine(self, src: int, dst: int) -> int:
        # Deterministic per-flow hash, as ECMP pins five-tuples.
        return (src * 2654435761 + dst * 40503) % self.num_spines

    def paths(self, src: int, dst: int, kind: str = "mp") -> List[List[int]]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return [[src]]
        leaf_src = self.leaf_of(src)
        leaf_dst = self.leaf_of(dst)
        if leaf_src == leaf_dst:
            return [[src, leaf_src, dst]]
        spine = self.spine_node(self._ecmp_spine(src, dst))
        return [[src, leaf_src, spine, leaf_dst, dst]]


class OversubscribedFatTreeFabric(SwitchFabricBase):
    """2:1 oversubscribed Fat-tree: half the ToR uplinks are omitted.

    Node ids: servers 0..n-1, ToR switches n..n+racks-1, core node last.
    Server access links run at ``d x B``; each ToR's uplink to the core
    carries only half of its servers' aggregate bandwidth.
    """

    def __init__(
        self,
        num_servers: int,
        degree: int,
        link_bandwidth_bps: float,
        servers_per_rack: int = 16,
    ):
        super().__init__(num_servers)
        if servers_per_rack < 1:
            raise ValueError("servers_per_rack must be positive")
        self.degree = degree
        self.link_bandwidth_bps = link_bandwidth_bps
        self.servers_per_rack = servers_per_rack
        self.num_racks = (num_servers + servers_per_rack - 1) // servers_per_rack
        self.name = "OversubFatTree"

    @property
    def server_bandwidth_bps(self) -> float:
        return self.degree * self.link_bandwidth_bps

    def tor_of(self, server: int) -> int:
        return self.num_servers + server // self.servers_per_rack

    @property
    def core(self) -> int:
        return self.num_servers + self.num_racks

    def _rack_population(self, rack: int) -> int:
        start = rack * self.servers_per_rack
        return min(self.servers_per_rack, self.num_servers - start)

    def capacities(self) -> Dict[Link, float]:
        caps: Dict[Link, float] = {}
        for server in range(self.num_servers):
            tor = self.tor_of(server)
            caps[(server, tor)] = self.server_bandwidth_bps
            caps[(tor, server)] = self.server_bandwidth_bps
        for rack in range(self.num_racks):
            tor = self.num_servers + rack
            uplink = self._rack_population(rack) * self.server_bandwidth_bps / 2.0
            caps[(tor, self.core)] = uplink
            caps[(self.core, tor)] = uplink
        return caps

    def paths(self, src: int, dst: int, kind: str = "mp") -> List[List[int]]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return [[src]]
        tor_src = self.tor_of(src)
        tor_dst = self.tor_of(dst)
        if tor_src == tor_dst:
            return [[src, tor_src, dst]]
        return [[src, tor_src, self.core, tor_dst, dst]]
