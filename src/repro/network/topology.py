"""Topology core: graphs of GPUs, NICs, switches and links.

Every topology in :mod:`repro.network` is a :class:`Topology`: an
undirected multigraph-free :mod:`networkx` graph whose nodes are either
*hosts* (GPU/NIC endpoints) or *switches*, and whose edges carry a
per-direction ``bandwidth`` (bytes/s) and a ``kind`` tag
(``"endpoint"``, ``"interswitch"`` or ``"nvlink"``).  The flow
simulator treats each undirected edge as two independent directed
capacities, matching full-duplex links.

:class:`TopologySpec` is the lightweight counting record used by the
Table 3 cost comparison — large topologies (65k-endpoint FT3, 260k-
endpoint dragonfly) are *sized by formula* without materializing the
graph, while small instances are built as real graphs for simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# networkx is imported where a graph is built or searched, not here: the
# serving simulator imports this package but never builds a graph, and
# the import costs ~15 MB of RSS and ~0.2 s in every process that pays it.

HOST = "host"
SWITCH = "switch"

ENDPOINT_LINK = "endpoint"
INTERSWITCH_LINK = "interswitch"
NVLINK_LINK = "nvlink"


@dataclass(frozen=True)
class TopologySpec:
    """Size summary of a topology (the counting rows of Table 3).

    ``links`` counts inter-switch links only, matching the paper's
    convention (Table 3 lists 2,048 links for the 2,048-endpoint FT2 —
    exactly its leaf-spine cables).
    """

    name: str
    endpoints: int
    switches: int
    links: int

    def __post_init__(self) -> None:
        if min(self.endpoints, self.switches, self.links) < 0:
            raise ValueError("counts must be non-negative")


class Topology:
    """A network graph with typed nodes and capacitated links."""

    def __init__(self, name: str) -> None:
        import networkx as nx

        self.name = name
        self.graph = nx.Graph()

    # -- construction ---------------------------------------------------

    def add_host(self, host: str, **attrs: object) -> None:
        """Add a host (GPU/NIC endpoint) node."""
        self.graph.add_node(host, kind=HOST, **attrs)

    def add_switch(self, switch: str, **attrs: object) -> None:
        """Add a switch node."""
        self.graph.add_node(switch, kind=SWITCH, **attrs)

    def add_link(self, a: str, b: str, bandwidth: float, kind: str) -> None:
        """Add a full-duplex link with per-direction ``bandwidth``."""
        if not 0 < bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
        if a not in self.graph or b not in self.graph:
            raise KeyError(f"both endpoints must exist: {a}, {b}")
        self.graph.add_edge(a, b, bandwidth=bandwidth, kind=kind)

    # -- inspection -----------------------------------------------------

    @property
    def hosts(self) -> list[str]:
        """All host nodes, sorted."""
        return sorted(n for n, d in self.graph.nodes(data=True) if d["kind"] == HOST)

    @property
    def switches(self) -> list[str]:
        """All switch nodes, sorted."""
        return sorted(n for n, d in self.graph.nodes(data=True) if d["kind"] == SWITCH)

    def links(self, kind: str | None = None) -> list[tuple[str, str]]:
        """Edges, optionally filtered by kind."""
        return [
            (a, b)
            for a, b, d in self.graph.edges(data=True)
            if kind is None or d["kind"] == kind
        ]

    @property
    def spec(self) -> TopologySpec:
        """Counting summary (inter-switch links only, per Table 3)."""
        return TopologySpec(
            name=self.name,
            endpoints=len(self.hosts),
            switches=len(self.switches),
            links=len(self.links(INTERSWITCH_LINK)),
        )

    def bandwidth(self, a: str, b: str) -> float:
        """Per-direction bandwidth of link (a, b)."""
        return self.graph.edges[a, b]["bandwidth"]

    def degree_of(self, node: str) -> int:
        """Link count at ``node``."""
        return self.graph.degree[node]

    def max_switch_degree(self) -> int:
        """Largest switch degree (must not exceed the switch radix)."""
        degrees = [self.graph.degree[s] for s in self.switches]
        return max(degrees) if degrees else 0

    def validate_radix(self, ports: int) -> None:
        """Raise if any switch uses more links than it has ports."""
        for s in self.switches:
            if self.graph.degree[s] > ports:
                raise ValueError(
                    f"switch {s} uses {self.graph.degree[s]} ports, radix is {ports}"
                )

    def is_connected(self) -> bool:
        """True when every node can reach every other node."""
        import networkx as nx

        return nx.is_connected(self.graph) if len(self.graph) else True

    def switch_hops(self, path: list[str]) -> int:
        """Number of switch nodes traversed by a path."""
        return sum(1 for n in path if self.graph.nodes[n]["kind"] == SWITCH)
