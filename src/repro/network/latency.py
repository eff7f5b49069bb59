"""Small-message latency model, calibrated to Table 5.

Table 5 reports CPU-side end-to-end latency for a 64 B transfer.  The
model decomposes a path into two NIC-side costs plus a per-switch-hop
forwarding cost and serialization:

    latency = 2 x nic_side + hops x switch_hop + bytes / bandwidth

The constants for IB and RoCE are fitted exactly to the table's
same-leaf (1 hop) and cross-leaf (3 hops) rows; NVLink is its measured
flat 3.33 us plus serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import hardware as hw
from .multiplane import ClusterNetwork
from .topology import SWITCH


@dataclass(frozen=True)
class LinkLayerLatency:
    """Latency constants of one link layer."""

    name: str
    nic_side: float
    switch_hop: float
    bandwidth: float


IB = LinkLayerLatency(
    name="InfiniBand",
    nic_side=hw.IB_NIC_SIDE_LATENCY,
    switch_hop=hw.IB_SWITCH_HOP_LATENCY,
    bandwidth=hw.IB_CX7_400G.effective_bandwidth,
)

ROCE = LinkLayerLatency(
    name="RoCE",
    nic_side=hw.ROCE_NIC_SIDE_LATENCY,
    switch_hop=hw.ROCE_SWITCH_HOP_LATENCY,
    bandwidth=hw.ROCE_400G.effective_bandwidth,
)


def end_to_end_latency(
    layer: LinkLayerLatency, switch_hops: int, msg_bytes: float = 64
) -> float:
    """Network end-to-end latency across ``switch_hops`` switches."""
    if switch_hops < 0:
        raise ValueError("switch_hops must be non-negative")
    return 2 * layer.nic_side + switch_hops * layer.switch_hop + msg_bytes / layer.bandwidth


def nvlink_latency(msg_bytes: float = 64) -> float:
    """Intra-node NVLink end-to-end latency."""
    return hw.NVLINK_E2E_LATENCY + msg_bytes / hw.NVLINK_H800.effective_bandwidth


@dataclass(frozen=True)
class LatencyRow:
    """One Table 5 row (microseconds)."""

    link_layer: str
    same_leaf_us: float
    cross_leaf_us: float | None


def table5_rows(msg_bytes: float = 64) -> list[LatencyRow]:
    """Reproduce Table 5: RoCE / IB / NVLink 64 B latencies."""
    rows = []
    for layer in (ROCE, IB):
        rows.append(
            LatencyRow(
                link_layer=layer.name,
                same_leaf_us=end_to_end_latency(layer, 1, msg_bytes) * 1e6,
                cross_leaf_us=end_to_end_latency(layer, 3, msg_bytes) * 1e6,
            )
        )
    rows.append(
        LatencyRow(
            link_layer="NVLink",
            same_leaf_us=nvlink_latency(msg_bytes) * 1e6,
            cross_leaf_us=None,
        )
    )
    return rows


def path_latency(
    cluster: ClusterNetwork,
    path: list[str],
    layer: LinkLayerLatency = IB,
    msg_bytes: float = 0,
) -> float:
    """Startup latency of a path through a cluster graph.

    NVSwitch traversals cost one NVLink end-to-end each; network switch
    hops cost ``switch_hop`` each plus the two NIC sides whenever the
    path enters the network at all.  Serialization is charged once
    (store-and-forward effects are ignored at this granularity).
    """
    graph = cluster.topology.graph
    nv_traversals = 0
    network_hops = 0
    for node in path[1:-1]:
        if graph.nodes[node]["kind"] != SWITCH:
            continue
        if graph.nodes[node].get("nvswitch"):
            nv_traversals += 1
        else:
            network_hops += 1
    total = nv_traversals * hw.NVLINK_E2E_LATENCY
    if network_hops:
        total += 2 * layer.nic_side + network_hops * layer.switch_hop
    if msg_bytes:
        # Serialization on the slowest link of the path.
        slowest = min(
            graph.adj[a][b]["bandwidth"] for a, b in zip(path[:-1], path[1:])
        )
        total += msg_bytes / slowest
    return total


def uses_nvlink_forwarding(cluster: ClusterNetwork, path: list[str]) -> bool:
    """True when the path relays through a node's NVSwitch *and* the
    network (the cross-plane forwarding cost of Section 5.1)."""
    graph = cluster.topology.graph
    has_nv = any(graph.nodes[n].get("nvswitch") for n in path[1:-1])
    has_net = any(
        graph.nodes[n]["kind"] == SWITCH and not graph.nodes[n].get("nvswitch")
        for n in path[1:-1]
    )
    return has_nv and has_net
