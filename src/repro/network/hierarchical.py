"""Hierarchical collectives: two-level NVLink + IB all-reduce.

Data-parallel gradient reduction on an H800 cluster exploits the
bandwidth hierarchy (§4.3's 4:1 NVLink:NIC ratio): reduce-scatter
inside each node over NVLink, ring all-reduce across nodes on each
GPU's own plane/rail NIC (each GPU owns 1/G of the buffer), then
all-gather inside the node.  Every GPU's NIC is busy with its own
shard — the multi-rail/multi-plane design's point.

Phases are simulated separately on the cluster graph and summed, which
matches the barrier between phases in real implementations.  The
intra-node phases run on :meth:`ClusterNetwork.nvlink_path`; the
inter-node rings (and the flat baseline ring) are routed by
:func:`repro.network.routing.route_flows` with STATIC index 0, i.e. each
hop takes the first path of the equal-cost path table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flowsim import Flow, FlowSimulator
from .multiplane import ClusterNetwork, gpu_name
from .routing import RoutingPolicy, route_flows


@dataclass(frozen=True)
class HierarchicalResult:
    """Timing of the three phases of a hierarchical all-reduce."""

    intra_reduce_time: float
    inter_ring_time: float
    intra_gather_time: float
    bytes_per_gpu: float

    @property
    def total_time(self) -> float:
        """End-to-end completion time."""
        return self.intra_reduce_time + self.inter_ring_time + self.intra_gather_time

    @property
    def algbw(self) -> float:
        """Algorithm bandwidth, bytes/s."""
        if self.total_time == 0:
            return float("inf")
        return self.bytes_per_gpu / self.total_time

    @property
    def busbw(self) -> float:
        """All-reduce bus bandwidth: 2 x algbw (NCCL convention)."""
        return 2.0 * self.algbw


def _intra_node_ring_flows(
    cluster: ClusterNetwork, per_link_bytes: float, tag: str
) -> list[Flow]:
    flows = []
    for node in range(cluster.num_nodes):
        for g in range(cluster.gpus_per_node):
            src = gpu_name(node, g)
            dst = gpu_name(node, (g + 1) % cluster.gpus_per_node)
            flows.append(Flow(src, dst, per_link_bytes, cluster.nvlink_path(src, dst), tag=tag))
    return flows


def _inter_node_ring_flows(
    cluster: ClusterNetwork, per_link_bytes: float, tag: str
) -> list[Flow]:
    """Per-plane rings across nodes; each GPU talks to the same-plane
    GPU of the next node through its own NIC."""
    n = cluster.num_nodes
    transfers = [
        (gpu_name(node, plane), gpu_name((node + 1) % n, plane), per_link_bytes, tag)
        for plane in range(cluster.gpus_per_node)
        for node in range(n)
    ]
    return route_flows(cluster.topology, transfers, RoutingPolicy.STATIC)


def run_hierarchical_allreduce(
    cluster: ClusterNetwork, bytes_per_gpu: float
) -> HierarchicalResult:
    """Simulate a two-level all-reduce of ``bytes_per_gpu`` per GPU.

    Phase volumes (ring algorithms, aggregated per neighbour link):

    * intra-node reduce-scatter: ``(G-1)/G x S`` over NVLink,
    * inter-node ring all-reduce of each GPU's ``S/G`` shard:
      ``2 (N-1)/N x S/G`` over its NIC,
    * intra-node all-gather: ``(G-1)/G x S`` over NVLink.
    """
    if bytes_per_gpu < 0:
        raise ValueError("bytes_per_gpu must be non-negative")
    g = cluster.gpus_per_node
    n = cluster.num_nodes
    sim = FlowSimulator(cluster.topology)

    intra_bytes = bytes_per_gpu * (g - 1) / g
    intra_time = 0.0
    if g > 1 and intra_bytes > 0:
        intra_time = sim.simulate(
            _intra_node_ring_flows(cluster, intra_bytes, "rs"), mode="drain"
        ).makespan

    inter_time = 0.0
    if n > 1:
        shard = bytes_per_gpu / g
        inter_bytes = 2.0 * shard * (n - 1) / n
        if inter_bytes > 0:
            inter_time = sim.simulate(
                _inter_node_ring_flows(cluster, inter_bytes, "ring"), mode="drain"
            ).makespan

    return HierarchicalResult(
        intra_reduce_time=intra_time,
        inter_ring_time=inter_time,
        intra_gather_time=intra_time,
        bytes_per_gpu=bytes_per_gpu,
    )


def flat_ring_allreduce_time(cluster: ClusterNetwork, bytes_per_gpu: float) -> float:
    """Baseline: one flat ring over all GPUs (ignores the hierarchy).

    The ring's node-to-node hops cross the slow NIC links with the
    *whole* buffer's ``2 (NG-1)/(NG) x S`` volume instead of a 1/G
    shard, so this underperforms the hierarchical algorithm — the
    reason NCCL is hierarchy-aware.
    """
    if bytes_per_gpu < 0:
        raise ValueError("bytes_per_gpu must be non-negative")
    gpus = cluster.gpus()
    total = len(gpus)
    per_link = 2.0 * bytes_per_gpu * (total - 1) / total
    transfers = [(src, gpus[(i + 1) % total], per_link, "flat") for i, src in enumerate(gpus)]
    flows = route_flows(cluster.topology, transfers, RoutingPolicy.STATIC)
    return FlowSimulator(cluster.topology).simulate(flows, mode="drain").makespan
