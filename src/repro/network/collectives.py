"""Collective traffic generators and NCCL-style bandwidth accounting.

Builds the flow sets behind the paper's communication experiments:

* all-to-all across a cluster (Figures 5-6): cross-plane traffic
  relays over NVLink onto the destination plane (PXN), then is sprayed
  (ADAPTIVE) over that plane's equal-cost paths, with InfiniBand
  startup latencies,
* ring AllGather / ReduceScatter on a routed fat tree (Figure 8), under
  the ECMP, ADAPTIVE or STATIC policy it is given.

Both take their paths from :func:`repro.network.routing.equal_cost_path_table`
and spread them with :func:`repro.network.routing.spread_flows`; a
same-node pair runs on :meth:`ClusterNetwork.nvlink_path`.  The module
then converts completion times into the NCCL test conventions:
``algbw = bytes_per_rank / time`` and ``busbw = algbw * (N-1)/N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flowsim import Flow, FlowSimulator
from .latency import path_latency
from .multiplane import ClusterNetwork, pxn_relay
from .routing import RoutingPolicy, route_flows, route_pairs, spread_flows
from .topology import Topology


@dataclass(frozen=True)
class CollectiveResult:
    """Measured outcome of one collective operation.

    Attributes:
        time: Completion time of the slowest flow (seconds).
        bytes_per_rank: Data each rank contributed (NCCL "size").
        num_ranks: Participants.
    """

    time: float
    bytes_per_rank: float
    num_ranks: int

    @property
    def algbw(self) -> float:
        """NCCL algorithm bandwidth, bytes/s."""
        if self.time == 0:
            return float("inf")
        return self.bytes_per_rank / self.time

    @property
    def busbw(self) -> float:
        """NCCL bus bandwidth, bytes/s: algbw x (N-1)/N."""
        return self.algbw * (self.num_ranks - 1) / self.num_ranks


def transfer_flows(
    cluster: ClusterNetwork,
    transfers: list[tuple[str, str, float]],
    tag: str = "",
) -> list[Flow]:
    """Flows realizing every ``(src, dst, size)`` in ``transfers``,
    concatenated in order.

    Same-node pairs use NVLink.  Cross-node pairs enter the network on
    the destination plane (PXN: mandatory on MPFT, NCCL's default on
    MRFT) and are sprayed evenly over that plane's equal-cost spine
    paths (IB adaptive routing / multi-QP spraying, the production
    default).  Every flow's startup latency is its path's InfiniBand
    :func:`~repro.network.latency.path_latency`.  The cross-node
    transfers are routed from one equal-cost path table, so each
    network source costs one BFS.
    """
    crossing = [(src, dst, size) for src, dst, size in transfers if not cluster.same_node(src, dst)]
    relays = [pxn_relay(cluster, src, dst) for src, dst, _ in crossing]
    pairs = [(net_src, dst) for (_, net_src), (_, dst, _) in zip(relays, crossing)]

    def emit(index: int, paths: list[list[str]]) -> list[Flow]:
        src, dst, size = crossing[index]
        prefix = relays[index][0]
        full_paths = [prefix + p for p in paths] if prefix else paths
        latency = path_latency(cluster, full_paths[0])
        return spread_flows(
            src, dst, size, full_paths, RoutingPolicy.ADAPTIVE, latency=latency, tag=tag
        )

    routed = iter(route_pairs(cluster.topology, pairs, emit))
    flows: list[Flow] = []
    for src, dst, size in transfers:
        if cluster.same_node(src, dst):
            path = cluster.nvlink_path(src, dst)
            latency = path_latency(cluster, path)
            flows.append(Flow(src, dst, size, path, latency=latency, tag=tag))
        else:
            flows.extend(next(routed))
    return flows


def all_to_all_flows(
    cluster: ClusterNetwork,
    participants: list[str],
    bytes_per_pair: float,
) -> list[Flow]:
    """Flows of a full all-to-all among ``participants``: each ordered
    pair (src != dst) exchanges ``bytes_per_pair`` as a
    :func:`transfer_flows` transfer."""
    transfers = [
        (src, dst, bytes_per_pair) for src in participants for dst in participants if src != dst
    ]
    return transfer_flows(cluster, transfers, tag="a2a")


def run_all_to_all(
    cluster: ClusterNetwork,
    participants: list[str],
    bytes_per_pair: float,
    mode: str = "event",
) -> CollectiveResult:
    """Simulate an all-to-all and report NCCL-convention bandwidths.

    ``mode`` selects the flow-simulator fidelity ("event" exact,
    "drain" fluid bound — accurate here and much faster at scale).
    """
    n = len(participants)
    if n < 2:
        raise ValueError("need at least two participants")
    flows = all_to_all_flows(cluster, participants, bytes_per_pair)
    result = FlowSimulator(cluster.topology).simulate(flows, mode=mode)
    return CollectiveResult(
        time=result.makespan,
        bytes_per_rank=bytes_per_pair * n,
        num_ranks=n,
    )


def ring_collective_flows(
    topology: Topology,
    ring: list[str],
    buffer_bytes: float,
    policy: RoutingPolicy,
    static_table: dict[tuple[str, str], int] | None = None,
    tag: str = "ring",
) -> list[Flow]:
    """Flows of a ring AllGather (== ReduceScatter traffic, reversed).

    A ring of N ranks moves ``(N-1)/N x buffer_bytes`` over each
    neighbour link in total; the N-1 pipelined steps are aggregated
    into one flow per neighbour pair, which preserves per-link volume
    (what determines bandwidth-dominated completion).
    """
    n = len(ring)
    if n < 2:
        raise ValueError("a ring needs at least two ranks")
    per_link = buffer_bytes * (n - 1) / n
    transfers = [(src, ring[(i + 1) % n], per_link, tag) for i, src in enumerate(ring)]
    return route_flows(topology, transfers, policy, static_table=static_table)


def run_concurrent_rings(
    topology: Topology,
    rings: list[list[str]],
    buffer_bytes: float,
    policy: RoutingPolicy,
    static_table: dict[tuple[str, str], int] | None = None,
) -> CollectiveResult:
    """Simulate several rings sharing the fabric (the Figure 8 setup).

    Returns a result whose ``time`` is the completion of the slowest
    ring and whose bandwidth figures use one ring's per-rank bytes (all
    rings are the same size).
    """
    if not rings:
        raise ValueError("need at least one ring")
    flows: list[Flow] = []
    for r, ring in enumerate(rings):
        flows.extend(
            ring_collective_flows(
                topology, ring, buffer_bytes, policy, static_table, tag=f"ring{r}"
            )
        )
    result = FlowSimulator(topology).simulate(flows)
    return CollectiveResult(
        time=result.makespan,
        bytes_per_rank=buffer_bytes,
        num_ranks=len(rings[0]),
    )
