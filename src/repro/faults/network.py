"""Fault-mode flow simulation: link/switch/plane outages mid-transfer.

§5.1.1's multi-plane argument is that a failure in one plane is
invisible to traffic on the others.  This module holds what turns that
claim into a simulated experiment: a
:class:`~repro.faults.schedule.FaultSchedule` of ``link``/``switch``
events, passed as ``FlowSimulator.simulate(faults=...)``, takes
capacity away and gives it back at failure/repair instants.  Flows
whose path lost an edge either reroute onto the surviving fabric (via a
caller-supplied policy such as :func:`cluster_reroute`, which finds the
NVLink/PXN detour through another plane) or stall at zero rate until
repair; flows that never regain a path finish at infinity and are
reported as unfinished in a :class:`NetworkFaultReport`.  A ``link`` or
``switch`` target that is not a link or switch of the simulated
topology is a ``ValueError`` before the simulation starts.

The timeline itself runs inside the flow simulator's one event loop
(:meth:`~repro.network.flowsim.FlowSimulator.simulate`): each
failure/repair instant is a loop boundary at which the incremental
engine is rebuilt over the flows that still have a live path.  This
module keeps the schedule helpers (:func:`link_target`,
:func:`expand_plane_schedule`), the reroute policy and the report.  The
reroute walks :func:`repro.network.routing.first_shortest_path`, the
routing BFS every flow builder uses, so no graph library is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..network.flowsim import Flow
from ..network.multiplane import ClusterNetwork
from ..network.routing import first_shortest_path
from ..network.topology import SWITCH, Topology
from ..reliability.failover import plane_switches
from .schedule import FaultEvent, FaultSchedule

#: Fault kinds the flow simulator consumes.
NETWORK_FAULT_KINDS = ("link", "switch")

#: A reroute policy: given a flow whose path lost an edge and the
#: currently alive directed capacities, return a replacement node path
#: (src..dst) or None to stall the flow until repair.
ReroutePolicy = Callable[[Flow, dict], "list[str] | None"]


@dataclass(frozen=True)
class NetworkFaultReport:
    """What the fault timeline did to a flow set.

    Attributes:
        events: Injected link/switch failures.
        rerouted: Flow indices that switched to a surviving path.
        stalled: Flow indices that spent any time at zero rate.
        unfinished: Flow indices that never completed (no path and no
            repair before the run drained).
        stall_time: Total flow-seconds spent stalled.
    """

    events: int
    rerouted: tuple[int, ...]
    stalled: tuple[int, ...]
    unfinished: tuple[int, ...]
    stall_time: float


def link_target(a: str, b: str) -> str:
    """Encode a link fault target (``"a|b"``, order-insensitive)."""
    return f"{a}|{b}"


def _edges_of(
    event: FaultEvent, topology: Topology, capacities: dict
) -> list[tuple[str, str]]:
    """Directed capacity entries an event takes down.  A target that is
    not a link of ``capacities`` or a switch of ``topology`` raises
    ``ValueError`` naming it."""
    if event.kind == "link":
        a, sep, b = event.target.partition("|")
        if not sep:
            raise ValueError(f"link target must be 'a|b', got {event.target!r}")
        if (a, b) not in capacities:
            raise ValueError(
                f"link fault target {event.target!r} is not a link of {topology.name}"
            )
        return [(a, b), (b, a)]
    node = topology.graph.nodes.get(event.target)
    if node is None or node.get("kind") != SWITCH:
        raise ValueError(
            f"switch fault target {event.target!r} is not a switch of {topology.name}"
        )
    return [e for e in capacities if event.target in e]


def expand_plane_schedule(
    cluster: ClusterNetwork, schedule: FaultSchedule
) -> FaultSchedule:
    """Lower ``plane`` events to switch failures of that MPFT plane.

    Non-plane events pass through untouched, so a mixed schedule stays
    one schedule.  The flow simulator itself only understands links and
    switches — a plane is a topology-level concept.
    """
    events: list[FaultEvent] = []
    for event in schedule.events:
        if event.kind != "plane":
            events.append(event)
            continue
        for switch in plane_switches(cluster, int(event.target)):
            events.append(
                FaultEvent(
                    time=event.time, kind="switch", target=switch, mttr=event.mttr
                )
            )
    return FaultSchedule(events=tuple(events))


def cluster_reroute(cluster: ClusterNetwork) -> ReroutePolicy:
    """Reroute policy over a multiplane cluster: the first surviving
    shortest path.

    Because the cluster graph contains the intra-node NVLink fabric,
    the shortest path around a dead plane is the paper's PXN-style
    detour — hop to a same-node GPU on a healthy plane over NVLink,
    cross that plane, and hop back at the destination node.  Of the
    shortest paths over the live capacities it returns the
    lexicographically smallest, as every flow builder's equal-cost path
    table orders them, and None when the damaged fabric has no path at
    all.
    """
    adj = cluster.topology.graph.adj

    def reroute(flow: Flow, capacities: dict) -> list[str] | None:
        alive = {
            node: [nb for nb in neighbors if (node, nb) in capacities]
            for node, neighbors in adj.items()
        }
        return first_shortest_path(alive, flow.src, flow.dst)

    return reroute
