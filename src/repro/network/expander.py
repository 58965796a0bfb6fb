"""Expander fabric: Jellyfish/Xpander-style random regular direct-connect.

Each server has ``d`` NICs at bandwidth ``B`` wired into a random regular
graph (the paper's Expander baseline, after Jellyfish [127] and
Xpander [135]).  Traffic routes over k-shortest paths with host-based
forwarding.  The topology is oblivious to the DNN's traffic pattern,
which is why Figure 11 shows it performing worst: its links rarely line
up with the AllReduce rings.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.network.topology import DirectConnectTopology

Link = Tuple[int, int]
PathSet = Tuple[Tuple[int, ...], ...]


def random_regular_topology(
    n: int, degree: int, seed: int = 0, max_attempts: int = 200
) -> DirectConnectTopology:
    """Random d-regular direct-connect topology via pairing with retries.

    Builds an undirected random regular multigraph (each undirected edge
    realized as one link per direction), retrying until it is connected
    and simple enough (no self-loops; parallel edges allowed but
    discouraged by the pairing shuffle).
    """
    if n < 2:
        raise ValueError("need at least two servers")
    if degree < 1:
        raise ValueError("degree must be positive")
    if n * degree % 2 != 0:
        raise ValueError(
            f"n*degree must be even to build a regular graph, "
            f"got n={n}, d={degree}"
        )
    rng = random.Random(seed)
    for _ in range(max_attempts):
        stubs = [node for node in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(a == b for a, b in pairs):
            continue
        topo = DirectConnectTopology(n, degree)
        for a, b in pairs:
            # One undirected fiber gives one link each way, consuming one
            # tx+rx on each side -- within budget because each node
            # appears in exactly `degree` stubs.
            topo.add_bidirectional(a, b)
        if topo.is_strongly_connected():
            return topo
    raise RuntimeError(
        f"failed to build a connected random regular graph "
        f"(n={n}, d={degree}) in {max_attempts} attempts"
    )


class ExpanderFabric:
    """The Expander baseline: random regular graph + shortest-path routing."""

    def __init__(
        self,
        num_servers: int,
        degree: int,
        link_bandwidth_bps: float,
        seed: int = 0,
        path_count: int = 2,
    ):
        self.num_servers = num_servers
        self.degree = degree
        self.link_bandwidth_bps = link_bandwidth_bps
        self.topology = random_regular_topology(num_servers, degree, seed)
        self.path_count = path_count
        self.name = "Expander"
        self._path_cache: Dict[Tuple[int, int], PathSet] = {}

    def capacities(self) -> Dict[Link, float]:
        return {
            (src, dst): count * self.link_bandwidth_bps
            for src, dst, count in self.topology.edges()
        }

    def paths(self, src: int, dst: int, kind: str = "mp") -> PathSet:
        """The k shortest paths from ``src`` to ``dst``, as int tuples.

        Cached per pair and shared by every caller, so immutable: no
        caller can alter the routes another one sees.
        """
        if src == dst:
            return ((src,),)
        key = (src, dst)
        if key not in self._path_cache:
            self._path_cache[key] = tuple(
                tuple(path) for path in self.topology.k_shortest_paths(
                    src, dst, self.path_count
                )
            )
        return self._path_cache[key]
