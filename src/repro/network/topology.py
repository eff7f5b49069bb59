"""Topology core: graphs of GPUs, NICs, switches and links.

Every topology in :mod:`repro.network` is a :class:`Topology`: an
undirected simple :class:`Graph` whose nodes are either *hosts*
(GPU/NIC endpoints) or *switches*, and whose edges carry a
per-direction ``bandwidth`` (bytes/s) and a ``kind`` tag
(``"endpoint"``, ``"interswitch"`` or ``"nvlink"``).  The flow
simulator treats each undirected edge as two independent directed
capacities, matching full-duplex links.

:class:`Graph` is the repo's own adjacency (two dicts and one BFS), not
:mod:`networkx`: building, routing over, damaging and rerouting around
damage in a topology imports no graph library.  networkx is a dev
dependency only, the tests' reference oracle.

:class:`TopologySpec` is the lightweight counting record used by the
Table 3 cost comparison — large topologies (65k-endpoint FT3, 260k-
endpoint dragonfly) are *sized by formula* without materializing the
graph, while small instances are built as real graphs for simulation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

# No networkx here: importing it costs ~18 MB of RSS and ~0.12 s, and the
# network core needs only an adjacency dict and a BFS.

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


class Graph:
    """An undirected simple graph as two dicts.

    ``nodes`` maps each node to its attribute dict, and ``adj`` maps each
    node to its neighbours, each to the link's attribute dict (one dict
    shared by both directions).  Adding, removing and re-adding nodes
    and edges orders both dicts as :class:`networkx.Graph` orders its
    own, so :meth:`edges` yields what networkx's ``edges`` yields, in
    the same order: every routed flow and capacity dict depends on it.
    """

    __slots__ = ("nodes", "adj")

    def __init__(self) -> None:
        self.nodes: dict[str, dict] = {}
        self.adj: dict[str, dict[str, dict]] = {}

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def add_node(self, node: str, /, **attrs: object) -> None:
        """Add ``node``, or update the attributes of an existing one."""
        if node in self.nodes:
            self.nodes[node].update(attrs)
        else:
            self.adj[node] = {}
            self.nodes[node] = attrs

    def add_edge(self, a: str, b: str, /, **attrs: object) -> None:
        """Add edge (a, b), adding missing endpoints, or update its attributes."""
        for node in (a, b):
            if node not in self.nodes:
                self.add_node(node)
        data = self.adj[a].get(b, {})
        data.update(attrs)
        self.adj[a][b] = data
        self.adj[b][a] = data

    def remove_node(self, node: str) -> None:
        """Remove ``node`` and its edges; ``KeyError`` if it is absent."""
        for neighbor in self.adj.pop(node):
            if neighbor != node:
                del self.adj[neighbor][node]
        del self.nodes[node]

    def remove_edge(self, a: str, b: str) -> None:
        """Remove edge (a, b); ``KeyError`` if it is absent."""
        del self.adj[a][b]
        if a != b:
            del self.adj[b][a]

    def has_edge(self, a: str, b: str) -> bool:
        return a in self.adj and b in self.adj[a]

    def edges(self, data: bool = False) -> Iterator[tuple]:
        """Each edge once, as ``(a, b)`` or ``(a, b, attrs)``: ``a`` is the
        endpoint that comes first in ``adj``."""
        seen: set[str] = set()
        for a, neighbors in self.adj.items():
            for b, attrs in neighbors.items():
                if b not in seen:
                    yield (a, b, attrs) if data else (a, b)
            seen.add(a)

    def component(self, source: str) -> set[str]:
        """Every node connected to ``source``, itself included (one BFS)."""
        adj = self.adj
        seen = {source}
        frontier = [source]
        while frontier:
            reached = []
            for node in frontier:
                for neighbor in adj[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        reached.append(neighbor)
            frontier = reached
        return seen


class Topology:
    """A network graph with typed nodes and capacitated links."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph = Graph()

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
        return sorted(n for n, d in self.graph.nodes.items() if d["kind"] == HOST)

    @property
    def switches(self) -> list[str]:
        """All switch nodes, sorted."""
        return sorted(n for n, d in self.graph.nodes.items() if d["kind"] == SWITCH)

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
        return self.graph.adj[a][b]["bandwidth"]

    def degree_of(self, node: str) -> int:
        """Link count at ``node``."""
        return len(self.graph.adj[node])

    def max_switch_degree(self) -> int:
        """Largest switch degree (must not exceed the switch radix)."""
        return max((self.degree_of(s) for s in self.switches), default=0)

    def validate_radix(self, ports: int) -> None:
        """Raise if any switch uses more links than it has ports."""
        for s in self.switches:
            if self.degree_of(s) > ports:
                raise ValueError(f"switch {s} uses {self.degree_of(s)} ports, radix is {ports}")

    def is_connected(self) -> bool:
        """True when every node can reach every other node."""
        nodes = self.graph.nodes
        return not nodes or len(self.graph.component(next(iter(nodes)))) == len(nodes)

    def switch_hops(self, path: list[str]) -> int:
        """Number of switch nodes traversed by a path."""
        return sum(1 for n in path if self.graph.nodes[n]["kind"] == SWITCH)
