"""Network fault isolation and failover (Sections 5.1.1 and 6.1).

The multi-plane topology's robustness claims: traffic in one plane is
isolated from failures in another, and (with multi-port NICs, Figure
4) single-port failures leave connectivity intact.  These helpers
inject link/switch failures into a topology and evaluate what survives.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..network.multiplane import ClusterNetwork
from ..network.topology import SWITCH, Topology


def fail_link(topology: Topology, a: str, b: str) -> dict:
    """Remove a link (cable failure).

    Returns the removed edge's attributes so :func:`restore_link` can
    reinstall it exactly (repair after MTTR, or scoped injection via
    :func:`failed`).
    """
    if not topology.graph.has_edge(a, b):
        raise KeyError(f"no link {a} -- {b}")
    attrs = dict(topology.graph.adj[a][b])
    topology.graph.remove_edge(a, b)
    return attrs


def restore_link(topology: Topology, a: str, b: str, attrs: dict) -> None:
    """Reinstall a failed link with its original attributes."""
    if topology.graph.has_edge(a, b):
        raise KeyError(f"link {a} -- {b} is already up")
    topology.graph.add_edge(a, b, **attrs)


def fail_switch(topology: Topology, switch: str) -> tuple[dict, list[tuple[str, dict]]]:
    """Remove a switch and all of its links.

    Returns ``(node_attrs, [(neighbor, edge_attrs), ...])`` — the state
    :func:`restore_switch` needs to undo the failure.
    """
    if switch not in topology.graph or topology.graph.nodes[switch]["kind"] != SWITCH:
        raise KeyError(f"{switch} is not a switch")
    node_attrs = dict(topology.graph.nodes[switch])
    links = [(neighbor, dict(data)) for neighbor, data in topology.graph.adj[switch].items()]
    topology.graph.remove_node(switch)
    return node_attrs, links


def restore_switch(
    topology: Topology,
    switch: str,
    node_attrs: dict,
    links: list[tuple[str, dict]],
) -> None:
    """Reinstall a failed switch and the links it carried."""
    if switch in topology.graph:
        raise KeyError(f"switch {switch} is already up")
    topology.graph.add_node(switch, **node_attrs)
    for neighbor, attrs in links:
        topology.graph.add_edge(switch, neighbor, **attrs)


@contextmanager
def failed(
    topology: Topology,
    links: tuple[tuple[str, str], ...] = (),
    switches: tuple[str, ...] = (),
) -> Iterator[Topology]:
    """Scoped damage: fail the given links and switches, heal on exit.

    The topology is mutated in place (the yielded value is the same
    object, for convenience) and restored even when the body raises, so
    tests and the fault engine can probe a damaged fabric without
    rebuilding the cluster.
    """
    failed_links = [(a, b, fail_link(topology, a, b)) for a, b in links]
    failed_switches = []
    try:
        for switch in switches:
            failed_switches.append((switch, *fail_switch(topology, switch)))
        yield topology
    finally:
        for switch, node_attrs, switch_links in reversed(failed_switches):
            restore_switch(topology, switch, node_attrs, switch_links)
        for a, b, attrs in reversed(failed_links):
            restore_link(topology, a, b, attrs)


def hosts_reachable(topology: Topology, src: str, dst: str) -> bool:
    """Whether two hosts can still communicate (``KeyError`` if either
    is not in the topology)."""
    graph = topology.graph
    for host in (src, dst):
        if host not in graph:
            raise KeyError(f"{host} is not in {topology.name}")
    return dst in graph.component(src)


@dataclass(frozen=True)
class FailureImpact:
    """Effect of an injected failure on a cluster."""

    disconnected_pairs: int
    total_pairs: int
    affected_planes: set[int]

    @property
    def connectivity(self) -> float:
        """Fraction of GPU pairs still connected."""
        if self.total_pairs == 0:
            return 1.0
        return 1.0 - self.disconnected_pairs / self.total_pairs


def assess_impact(cluster: ClusterNetwork) -> FailureImpact:
    """Measure pairwise connectivity of a (possibly damaged) cluster."""
    gpus = cluster.gpus()
    graph = cluster.topology.graph
    # Label each GPU's component by the first GPU found in it (one BFS per
    # component); a GPU missing from the graph has no label.
    comp_of: dict[str, str] = {}
    for gpu in gpus:
        if gpu in graph and gpu not in comp_of:
            comp_of.update(dict.fromkeys(graph.component(gpu), gpu))
    disconnected = 0
    total = 0
    affected: set[int] = set()
    for i, a in enumerate(gpus):
        for b in gpus[i + 1 :]:
            total += 1
            if comp_of.get(a) != comp_of.get(b):
                disconnected += 1
                affected.add(cluster.plane_of[a])
                affected.add(cluster.plane_of[b])
    return FailureImpact(
        disconnected_pairs=disconnected, total_pairs=total, affected_planes=affected
    )


def plane_switches(cluster: ClusterNetwork, plane: int) -> list[str]:
    """Network switches belonging to one plane (MPFT only)."""
    return [
        s
        for s in cluster.topology.switches
        if cluster.topology.graph.nodes[s].get("plane") == plane
    ]


def fail_entire_plane(cluster: ClusterNetwork, plane: int) -> None:
    """Take down every switch of one MPFT plane."""
    for s in plane_switches(cluster, plane):
        fail_switch(cluster.topology, s)
