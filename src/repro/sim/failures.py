"""Link-failure handling (section 7, "Handling failures").

Unlike SiP-ML's single physical ring, a TopoOpt topology survives any
single fiber failure connected: the union of ring permutations and MP
matchings is multiply connected.  The paper's recovery policy:

* **Transient failure of an AllReduce ring edge** -- temporarily borrow
  a link dedicated to MP traffic to restore the ring (re-route the
  broken edge over an MP detour).
* **Permanent failure** -- reconfigure the optical switch to swap ports
  and rebuild the lost connection.

:class:`FailureManager` applies those policies to a TopologyFinder
result and reports the repaired routing plus the performance impact
(hops added to the broken ring edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.topology_finder import Path, TopologyFinderResult

Link = Tuple[int, int]


class LinkFailureError(RuntimeError):
    """Raised when a failure disconnects the fabric (cannot happen for
    single failures on a TopoOpt topology, by design)."""


@dataclass
class RepairAction:
    """One recovery step."""

    failed_link: Link
    kind: str  # "mp_detour" | "port_swap"
    detour_path: Optional[List[int]] = None
    extra_hops: int = 0


@dataclass
class FailureManager:
    """Tracks failed links and computes recovery actions."""

    result: TopologyFinderResult
    failed: Set[Link] = field(default_factory=set)
    repairs: List[RepairAction] = field(default_factory=list)

    # ------------------------------------------------------------------
    def fail_link(self, src: int, dst: int) -> RepairAction:
        """Fail one direction of a fiber and compute the recovery.

        Transient policy: find the shortest detour over surviving links
        (preferring non-ring MP links) and patch the routing so the
        broken ring edge rides the detour.
        """
        link = (src, dst)
        topology = self.result.topology
        if not topology.has_link(src, dst):
            raise ValueError(f"link {link} does not exist")
        if link in self.failed:
            raise ValueError(f"link {link} already failed")

        working = topology.copy()
        working.remove_link(src, dst, count=topology.multiplicity(src, dst))
        for a, b in self.failed:
            if working.has_link(a, b):
                working.remove_link(a, b, count=working.multiplicity(a, b))
        detour = working.shortest_path(src, dst)
        if detour is None:
            # Leave the manager untouched: a disconnection must not
            # half-apply (the caller suspends the job and may retry
            # other links against a consistent failure set).
            raise LinkFailureError(
                f"failure of {link} disconnected the fabric; "
                "only possible with multiple concurrent failures"
            )
        self.failed.add(link)
        action = RepairAction(
            failed_link=link,
            kind="mp_detour",
            detour_path=detour,
            extra_hops=len(detour) - 2,
        )
        self.repairs.append(action)
        self._patch_routing(link, detour)
        return action

    def repair_permanently(self, src: int, dst: int) -> RepairAction:
        """Permanent recovery: the optical switch swaps ports to
        re-create the failed connection (section 7); routing reverts."""
        link = (src, dst)
        if link not in self.failed:
            raise ValueError(f"link {link} is not failed")
        self.failed.discard(link)
        self._unpatch_routing(link)
        action = RepairAction(failed_link=link, kind="port_swap")
        self.repairs.append(action)
        return action

    # ------------------------------------------------------------------
    def _patch_routing(self, link: Link, detour: List[int]) -> None:
        """Replace every routed path crossing ``link`` with the detour.

        Path sets are immutable tuples (see
        :class:`~repro.core.topology_finder.RoutingTable`), so each is
        replaced by a new tuple rather than edited.
        """
        for table in (
            self.result.routing.allreduce_paths,
            self.result.routing.mp_paths,
        ):
            for pair, paths in table.items():
                table[pair] = tuple([
                    self._splice(path, link, detour) for path in paths
                ])

    def _unpatch_routing(self, link: Link) -> None:
        """Collapse detours of a repaired link back to the direct edge."""
        src, dst = link
        for table in (
            self.result.routing.allreduce_paths,
            self.result.routing.mp_paths,
        ):
            for pair, paths in table.items():
                table[pair] = tuple([
                    self._collapse(path, src, dst) for path in paths
                ])

    @staticmethod
    def _splice(path: Path, link: Link, detour: List[int]) -> Path:
        src, dst = link
        out: List[int] = []
        i = 0
        while i < len(path):
            if (
                i + 1 < len(path)
                and path[i] == src
                and path[i + 1] == dst
            ):
                out.extend(detour[:-1])
                i += 1  # detour ends at dst = path[i + 1]
            else:
                out.append(path[i])
                i += 1
        return tuple(out)

    @staticmethod
    def _collapse(path: Path, src: int, dst: int) -> Path:
        """Shortcut any src..dst detour segment back to (src, dst)."""
        try:
            i = path.index(src)
            j = path.index(dst, i + 1)
        except ValueError:
            return path
        return path[: i + 1] + path[j:]

    # ------------------------------------------------------------------
    def ring_still_complete(self, group_members: Tuple[int, ...]) -> bool:
        """Whether every ring edge of a group is routable post-failure."""
        for plan in self.result.group_plans:
            if plan.group.members != group_members:
                continue
            for ring in plan.rings:
                k = len(ring)
                for i in range(k):
                    src, dst = ring[i], ring[(i + 1) % k]
                    paths = self.result.routing.paths_for(
                        src, dst, "allreduce"
                    )
                    if not paths:
                        return False
                    for path in paths:
                        for a, b in zip(path, path[1:]):
                            if (a, b) in self.failed:
                                return False
            return True
        return False

    def slowdown_factor(self, group_members: Tuple[int, ...]) -> float:
        """AllReduce slowdown: the worst per-edge hop stretch.

        A ring edge re-routed over ``h`` hops moves the same bytes over
        ``h`` links, stretching the collective by at most ``h`` while
        the failure persists.
        """
        worst = 1.0
        for plan in self.result.group_plans:
            if plan.group.members != group_members:
                continue
            for ring in plan.rings:
                k = len(ring)
                for i in range(k):
                    src, dst = ring[i], ring[(i + 1) % k]
                    paths = self.result.routing.paths_for(
                        src, dst, "allreduce"
                    )
                    if paths:
                        worst = max(worst, float(len(paths[0]) - 1))
        return worst

    def overall_slowdown(self) -> float:
        """Worst ring-edge hop stretch across *all* groups.

        The scenario engine's degradation threshold compares against
        this: once any collective in the job is stretched past the
        threshold, a detour is no longer good enough and the recovery
        policy escalates to re-optimization.
        """
        worst = 1.0
        for plan in self.result.group_plans:
            worst = max(worst, self.slowdown_factor(plan.group.members))
        return worst

    def ring_edges(self) -> List[Link]:
        """Every directed ring edge, deduped, in plan/ring order.

        Storm injection picks victims from this list so correlated
        failures always target links that carry collective traffic.
        """
        seen: Set[Link] = set()
        edges: List[Link] = []
        for plan in self.result.group_plans:
            for ring in plan.rings:
                k = len(ring)
                for i in range(k):
                    edge = (ring[i], ring[(i + 1) % k])
                    if edge not in seen:
                        seen.add(edge)
                        edges.append(edge)
        return edges
