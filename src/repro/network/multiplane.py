"""Multi-Plane (MPFT) and Multi-Rail (MRFT) cluster networks (Section 5.1).

An H800 node carries eight GPU/NIC pairs.  In the **multi-plane**
deployment each pair belongs to its own, fully disjoint two-layer fat
tree; traffic between GPUs in different planes must first hop over
NVLink to the source-node GPU that lives in the destination plane
(Figure 3).  In the **multi-rail** deployment all eight rails share one
fat tree: NIC ``j`` of every node attaches to rail-``j`` leaves, but the
spines interconnect all leaves, so cross-rail traffic *can* go through
the network — at the cost of extra hops.  NCCL's PXN optimization makes
the two equivalent in practice by always forwarding over NVLink onto
the destination rail, which is exactly what the paper's Figures 5-6 and
Table 4 observe.

Hosts are named ``n{node}g{gpu}``; NVLink is modeled as a per-node
virtual switch ``n{node}/nvsw`` with 160 GB/s effective per-GPU links,
and :meth:`ClusterNetwork.nvlink_path` is the one builder of a
same-node NVLink path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.hardware import H800_NODE, NodeSpec
from .routing import equal_cost_paths
from .topology import ENDPOINT_LINK, INTERSWITCH_LINK, NVLINK_LINK, SWITCH, Topology


def gpu_name(node: int, gpu: int) -> str:
    """Canonical host name of GPU ``gpu`` on node ``node``."""
    return f"n{node}g{gpu}"


def nvswitch_name(node: int) -> str:
    """Name of node ``node``'s virtual NVLink switch."""
    return f"n{node}/nvsw"


@dataclass
class ClusterNetwork:
    """A built cluster: graph plus node/plane bookkeeping.

    Attributes:
        topology: The full graph (GPUs, NVLink switches, leaves, spines).
        num_nodes: Server count.
        gpus_per_node: GPUs (= NICs = planes/rails) per server.
        scheme: "mpft" or "mrft".
        plane_of: Host name -> plane/rail index.
        node_of: Host name -> node index.
    """

    topology: Topology
    num_nodes: int
    gpus_per_node: int
    scheme: str
    plane_of: dict[str, int] = field(default_factory=dict)
    node_of: dict[str, int] = field(default_factory=dict)

    @property
    def num_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self.num_nodes * self.gpus_per_node

    def gpus(self) -> list[str]:
        """All GPU host names in (node, gpu) order."""
        return [
            gpu_name(n, g)
            for n in range(self.num_nodes)
            for g in range(self.gpus_per_node)
        ]

    def same_node(self, a: str, b: str) -> bool:
        """True when both GPUs share a server."""
        return self.node_of[a] == self.node_of[b]

    def nvlink_peer_on_plane(self, host: str, plane: int) -> str:
        """The GPU on ``host``'s node that lives in ``plane``."""
        return gpu_name(self.node_of[host], plane)

    def nvlink_path(self, src: str, dst: str) -> list[str]:
        """The NVLink path between two GPUs of one node, through the
        node's NVSwitch."""
        return [src, nvswitch_name(self.node_of[src]), dst]


def _add_node_gpus(
    cluster: ClusterNetwork, node: int, nvlink_bandwidth: float
) -> None:
    topo = cluster.topology
    nvsw = nvswitch_name(node)
    topo.add_switch(nvsw, nvswitch=True)
    for g in range(cluster.gpus_per_node):
        host = gpu_name(node, g)
        topo.add_host(host, node=node, plane=g)
        topo.add_link(host, nvsw, nvlink_bandwidth, NVLINK_LINK)
        cluster.plane_of[host] = g
        cluster.node_of[host] = node


def build_mpft_cluster(
    num_nodes: int,
    node: NodeSpec = H800_NODE,
    nodes_per_leaf: int = 8,
    name: str = "MPFT",
) -> ClusterNetwork:
    """Build a multi-plane two-layer fat-tree cluster.

    Each of the node's ``gpus_per_node`` planes is an independent FT2:
    nodes are packed ``nodes_per_leaf`` per leaf, and each plane gets
    enough spines for full bisection (one spine per leaf-down-port).

    Args:
        num_nodes: Number of 8-GPU servers.
        node: Server hardware description (NIC and NVLink rates).
        nodes_per_leaf: Endpoints per leaf switch in each plane.
        name: Cluster name prefix.

    Returns:
        The built cluster.
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    topo = Topology(name)
    cluster = ClusterNetwork(
        topology=topo,
        num_nodes=num_nodes,
        gpus_per_node=node.gpus_per_node,
        scheme="mpft",
    )
    nic_bw = node.nic.effective_bandwidth
    nv_bw = node.gpu.scale_up.effective_bandwidth
    num_leaves = -(-num_nodes // nodes_per_leaf)
    num_spines = min(nodes_per_leaf, num_nodes) if num_leaves > 1 else 0

    for n in range(num_nodes):
        _add_node_gpus(cluster, n, nv_bw)

    for plane in range(node.gpus_per_node):
        spines = [f"{name}/p{plane}/spine{s}" for s in range(num_spines)]
        for spine in spines:
            topo.add_switch(spine, plane=plane)
        for leaf_idx in range(num_leaves):
            leaf = f"{name}/p{plane}/leaf{leaf_idx}"
            topo.add_switch(leaf, plane=plane)
            for spine in spines:
                topo.add_link(leaf, spine, nic_bw, INTERSWITCH_LINK)
            lo = leaf_idx * nodes_per_leaf
            for n in range(lo, min(lo + nodes_per_leaf, num_nodes)):
                topo.add_link(gpu_name(n, plane), leaf, nic_bw, ENDPOINT_LINK)
    return cluster


def build_mrft_cluster(
    num_nodes: int,
    node: NodeSpec = H800_NODE,
    nodes_per_leaf: int = 8,
    name: str = "MRFT",
) -> ClusterNetwork:
    """Build a single-plane multi-rail fat-tree cluster.

    Rail ``j`` leaves serve NIC ``j`` of every node, but *all* leaves
    share one spine layer, so cross-rail traffic is routable through
    the network (unlike MPFT, where planes are disjoint).
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    topo = Topology(name)
    cluster = ClusterNetwork(
        topology=topo,
        num_nodes=num_nodes,
        gpus_per_node=node.gpus_per_node,
        scheme="mrft",
    )
    nic_bw = node.nic.effective_bandwidth
    nv_bw = node.gpu.scale_up.effective_bandwidth
    num_leaf_groups = -(-num_nodes // nodes_per_leaf)
    # One shared spine layer sized for full bisection across all rails.
    num_spines = min(nodes_per_leaf, num_nodes) if num_leaf_groups * node.gpus_per_node > 1 else 0

    for n in range(num_nodes):
        _add_node_gpus(cluster, n, nv_bw)

    spines = [f"{name}/spine{s}" for s in range(num_spines)]
    for spine in spines:
        topo.add_switch(spine)
    for rail in range(node.gpus_per_node):
        for group in range(num_leaf_groups):
            leaf = f"{name}/r{rail}/leaf{group}"
            topo.add_switch(leaf, rail=rail)
            for spine in spines:
                topo.add_link(leaf, spine, nic_bw, INTERSWITCH_LINK)
            lo = group * nodes_per_leaf
            for n in range(lo, min(lo + nodes_per_leaf, num_nodes)):
                topo.add_link(gpu_name(n, rail), leaf, nic_bw, ENDPOINT_LINK)
    return cluster


def pxn_relay(cluster: ClusterNetwork, src: str, dst: str) -> tuple[list[str], str]:
    """PXN decomposition of a cross-node transfer.

    Returns ``(nvlink_prefix, network_source)``: the NVLink hop (empty
    when the source already sits on the destination's plane) and the
    GPU whose NIC injects the message into the destination plane.
    """
    if cluster.same_node(src, dst):
        raise ValueError("same-node transfers never enter the network")
    dst_plane = cluster.plane_of[dst]
    if cluster.plane_of[src] == dst_plane:
        return [], src
    relay = cluster.nvlink_peer_on_plane(src, dst_plane)
    return cluster.nvlink_path(src, relay)[:-1], relay


def pxn_path(cluster: ClusterNetwork, src: str, dst: str) -> list[str]:
    """PXN-style path: enter the network on the destination's plane.

    * Same node: pure NVLink (via the node's NVSwitch).
    * Same plane: the plane/rail network directly.
    * Cross plane: NVLink to the source-node GPU on the destination's
      plane, then that plane's network — NCCL PXN (Section 5.1.1), and
      the only option on MPFT.

    The network part is the first of the relay's equal-cost paths.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    if cluster.same_node(src, dst):
        return cluster.nvlink_path(src, dst)
    prefix, net_src = pxn_relay(cluster, src, dst)
    return prefix + equal_cost_paths(cluster.topology, net_src, dst)[0]


def planes_used(cluster: ClusterNetwork, path: list[str]) -> set[int]:
    """Planes/rails whose switches a path traverses.

    Only network switches count: hosts and NVLink switches are skipped,
    so a pure-NVLink hop uses no plane at all.  The fault tests use
    this to show a rerouted flow really escaped its dead plane.
    """
    nodes = cluster.topology.graph.nodes
    return {
        nodes[hop]["plane"]
        for hop in path
        if hop in nodes
        and nodes[hop].get("kind") == SWITCH
        and nodes[hop].get("plane") is not None
    }
