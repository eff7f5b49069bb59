"""Fault-mode flow simulation: link/switch/plane outages mid-transfer.

§5.1.1's multi-plane argument is that a failure in one plane is
invisible to traffic on the others.  This module turns that claim into
a simulated experiment: a :class:`~repro.faults.schedule.FaultSchedule`
of ``link``/``switch`` events drives a time-segmented max-min fair
simulation — at every failure or repair boundary the surviving
capacities change and the fair allocation is re-solved.  Flows whose
path lost an edge either reroute onto the surviving fabric (via a
caller-supplied policy such as :func:`cluster_reroute`, which finds the
NVLink/PXN detour through another plane) or stall at zero rate until
repair; flows that never regain a path finish at infinity and are
reported as unfinished.

The runner deliberately uses the dict-based reference solver
(:func:`repro.network.flowsim.max_min_rates`), not the incremental
event engine: capacities mutate at arbitrary boundaries, which is
exactly the case the engine's frozen-component optimization excludes.
Fault-free runs never come through here —
:meth:`~repro.network.flowsim.FlowSimulator.simulate` only delegates
when the schedule is non-empty — so the hot path stays untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..network.flowsim import Flow, FlowResult, FlowSimulator, max_min_rates
from ..network.multiplane import ClusterNetwork
from ..reliability.failover import plane_switches
from .schedule import FaultEvent, FaultSchedule

#: Matches flowsim's fabric trace process.
_FABRIC_PID = 1

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


class _PathFlow:
    """Duck-typed stand-in exposing ``.edges`` to the rate solver."""

    __slots__ = ("edges",)

    def __init__(self, edges: list[tuple[str, str]]) -> None:
        self.edges = edges


def link_target(a: str, b: str) -> str:
    """Encode a link fault target (``"a|b"``, order-insensitive)."""
    return f"{a}|{b}"


def _edges_of(event: FaultEvent, capacities: dict) -> list[tuple[str, str]]:
    """Directed capacity entries an event takes down."""
    if event.kind == "link":
        a, sep, b = event.target.partition("|")
        if not sep:
            raise ValueError(f"link target must be 'a|b', got {event.target!r}")
        return [(a, b), (b, a)]
    return [e for e in capacities if event.target in e]


def expand_plane_schedule(
    cluster: ClusterNetwork, schedule: FaultSchedule
) -> FaultSchedule:
    """Lower ``plane`` events to switch failures of that MPFT plane.

    Non-plane events pass through untouched, so a mixed schedule stays
    one schedule.  The flow runner itself only understands links and
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
    """Reroute policy over a multiplane cluster: shortest surviving path.

    Because the cluster graph contains the intra-node NVLink fabric,
    the shortest path around a dead plane is the paper's PXN-style
    detour — hop to a same-node GPU on a healthy plane over NVLink,
    cross that plane, and hop back at the destination node.  Returns
    None when the damaged fabric has no path at all.
    """
    import networkx as nx

    nodes = list(cluster.topology.graph.nodes)

    def reroute(flow: Flow, capacities: dict) -> list[str] | None:
        alive = nx.Graph()
        alive.add_nodes_from(nodes)
        alive.add_edges_from(capacities)
        try:
            return nx.shortest_path(alive, flow.src, flow.dst)
        except nx.NetworkXNoPath:
            return None

    return reroute


def run_flows_with_faults(
    sim: FlowSimulator,
    flows: list[Flow],
    schedule: FaultSchedule,
    reroute: ReroutePolicy | None = None,
    time_epsilon: float = 1e-9,
) -> FlowResult:
    """Run flows through a fault timeline on ``sim``'s topology.

    Advances time from boundary to boundary — the next flow completion
    or the next failure/repair instant, whichever is sooner — solving
    max-min fair rates over the currently-routable flows at the current
    surviving capacities.  Populates ``sim.fault_report`` with a
    :class:`NetworkFaultReport` and returns a normal
    :class:`~repro.network.flowsim.FlowResult` (unfinished flows
    complete at ``inf`` and are excluded from makespan and traces).
    """
    events = schedule.for_kinds(NETWORK_FAULT_KINDS)
    if len(events) != len(schedule.events):
        other = [e.kind for e in schedule.events if e.kind not in NETWORK_FAULT_KINDS]
        if "plane" in other:
            raise ValueError(
                "plane events must be lowered first: see expand_plane_schedule()"
            )
    capacities = dict(sim.capacities)
    metrics, tracer = sim.metrics, sim.tracer

    # (time, order, action, event): repairs sort after failures at the
    # same instant so a flapping component is down for its full window.
    timeline: list[tuple[float, int, str, FaultEvent]] = []
    for event in events:
        timeline.append((event.time, 0, "fail", event))
        if math.isfinite(event.mttr):
            timeline.append((event.time + event.mttr, 1, "repair", event))
    timeline.sort(key=lambda entry: (entry[0], entry[1]))

    # Reference-count downed capacity entries: overlapping failures may
    # claim the same edge, which only heals when the last claim repairs.
    down_count: dict[tuple[str, str], int] = {}

    def apply(action: str, event: FaultEvent, now: float) -> None:
        for edge in _edges_of(event, sim.capacities):
            if action == "fail":
                down_count[edge] = down_count.get(edge, 0) + 1
                capacities.pop(edge, None)
            else:
                down_count[edge] -= 1
                if down_count[edge] == 0:
                    capacities[edge] = sim.capacities[edge]
        metrics.series("network.capacity_down").record(
            now, sum(1 for c in down_count.values() if c) / 2
        )
        if tracer.enabled:
            tracer.instant(
                f"{event.kind}_{'down' if action == 'fail' else 'up'}",
                "fault", _FABRIC_PID, 0, now, args={"target": event.target},
            )

    remaining = {i: f.size for i, f in enumerate(flows) if f.size > 0}
    completion = {i: flows[i].latency for i, f in enumerate(flows) if f.size == 0}
    paths: dict[int, list[tuple[str, str]]] = {
        i: list(flows[i].edges) for i in remaining
    }
    rerouted: set[int] = set()
    ever_stalled: set[int] = set()
    stall_time = 0.0
    now = 0.0
    cursor = 0

    while remaining:
        # Route check: a flow runs iff every edge of its current path is
        # alive; otherwise it reroutes once per outage or stalls.
        runnable: dict[int, _PathFlow] = {}
        stalled: list[int] = []
        for i in remaining:
            edges = paths[i]
            if all(edge in capacities for edge in edges):
                runnable[i] = _PathFlow(edges)
                continue
            path = reroute(flows[i], capacities) if reroute is not None else None
            if path is not None and len(path) >= 2:
                paths[i] = list(zip(path[:-1], path[1:]))
                runnable[i] = _PathFlow(paths[i])
                rerouted.add(i)
                if tracer.enabled:
                    tracer.instant(
                        "reroute", "fault", _FABRIC_PID, i, now,
                        args={"hops": len(path) - 1},
                    )
            else:
                stalled.append(i)
                ever_stalled.add(i)

        rates = max_min_rates(runnable, capacities) if runnable else {}
        if runnable:
            sim._sample_utilization(now, runnable, rates)
        next_boundary = timeline[cursor][0] if cursor < len(timeline) else math.inf
        times: dict[int, float] = {}
        dt_finish = math.inf
        for i in runnable:
            rate = rates[i]
            if rate == math.inf:
                t = 0.0
            elif rate <= 0.0:
                t = math.inf
            else:
                t = remaining[i] / rate
            times[i] = t
            if t < dt_finish:
                dt_finish = t
        # Advance to the sooner of the next completion and the next
        # fault/repair boundary; landing on a boundary sets the clock to
        # it exactly (no float drift, so the apply loop below fires).
        if next_boundary - now <= dt_finish:
            step, target_time = next_boundary - now, next_boundary
        else:
            step, target_time = dt_finish, now + dt_finish
        if step == math.inf:
            # No runnable flows and no boundaries left: the stalled
            # remainder never completes.
            for i in remaining:
                completion[i] = math.inf
            break
        horizon = step * (1 + time_epsilon)
        finished = [i for i, t in times.items() if t <= horizon]
        for i in finished:
            completion[i] = target_time + flows[i].latency
            del remaining[i]
            del paths[i]
            del times[i]
        for i, t in times.items():
            if t < math.inf:
                remaining[i] -= rates[i] * step
        stall_time += len(stalled) * step
        now = target_time
        while cursor < len(timeline) and timeline[cursor][0] <= now:
            _, _, action, event = timeline[cursor]
            apply(action, event, now)
            cursor += 1

    unfinished = tuple(
        sorted(i for i, t in completion.items() if t == math.inf)
    )
    sim.fault_report = NetworkFaultReport(
        events=len(events),
        rerouted=tuple(sorted(rerouted)),
        stalled=tuple(sorted(ever_stalled)),
        unfinished=unfinished,
        stall_time=stall_time,
    )
    makespan = max(
        (t for t in completion.values() if t != math.inf), default=0.0
    )
    sim._record_flows(flows, completion)
    return FlowResult(completion=completion, makespan=makespan, rates={})
