"""Flow-level network simulator with max-min fair bandwidth sharing.

The paper's cluster experiments (Figures 5-8) compare *bandwidth
allocation* outcomes — which links saturate, how collectives share the
fabric, how routing policies collide flows — not packet-level effects.
A flow-level model captures exactly that: each flow follows a fixed
path (or is split into weighted subflows by adaptive routing), link
capacities are shared max-min fairly among the flows crossing them, and
an event loop advances time to each flow completion, re-solving the
allocation as flows drain.

Directions matter: every undirected topology edge provides independent
capacity in each direction, like a full-duplex cable.

Event mode runs on an incremental engine (:class:`_EventEngine`): flows
are grouped into connected components of the link-sharing graph, and
each completion event hands every component that lost flows the local
ids of those flows and re-solves only it — everything else keeps its
frozen rates.  Within a component, progressive filling is driven by a
heap of link shares over per-link lists of counts and flows, so a round
costs the links and flows it freezes.  Each re-solve resumes the
component's last filling at the first round a finished flow froze in,
since every earlier round is provably unchanged (the rule and its proof
are on :class:`_EventEngine`), and refills only the flows frozen from
that round on.  Fault timelines run in the same event loop: each
failure/repair instant is a boundary at which the engine is rebuilt
over the flows that still have a live path (see
:meth:`FlowSimulator.simulate`), and the run's
:class:`~repro.faults.NetworkFaultReport` rides on its
:class:`FlowResult`.  Drain mode skips the engine for the fluid bound.
:func:`max_min_rates` remains the dict-based reference definition of
the policy; the engine is cross-checked against it in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from typing import TYPE_CHECKING

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from .topology import Topology

if TYPE_CHECKING:  # circular at runtime: faults.network imports this module
    from ..faults.network import NetworkFaultReport

#: Trace process id for the fabric (flows are tracks inside it).
_FABRIC_PID = 1

#: The ``mode`` values :meth:`FlowSimulator.simulate` accepts.
SIM_MODES = ("event", "drain")


@dataclass
class Flow:
    """One unidirectional transfer.

    Attributes:
        src: Source host.
        dst: Destination host.
        size: Bytes to move.
        path: Node list from ``src`` to ``dst``; must start/end there
            and visit no node twice.
        latency: Fixed startup latency (propagation + software) added
            to the flow's completion time.
        tag: Free-form label for reporting.
    """

    src: str
    dst: str
    size: float
    path: list[str]
    latency: float = 0.0
    tag: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.size < math.inf:
            raise ValueError(f"flow size must be finite and non-negative, got {self.size!r}")
        if not 0 <= self.latency < math.inf:
            raise ValueError(
                f"flow latency must be finite and non-negative, got {self.latency!r}"
            )
        if len(self.path) < 2 or self.path[0] != self.src or self.path[-1] != self.dst:
            raise ValueError(f"path must run {self.src} -> {self.dst}")
        if len(set(self.path)) != len(self.path):
            # A loop can cross a directed edge twice, which the engine
            # charges twice and max_min_rates once.
            raise ValueError(f"path must not repeat a node: {self.path}")
        self._edges: list[tuple[str, str]] = list(zip(self.path[:-1], self.path[1:]))

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Directed edges traversed."""
        return self._edges


@dataclass
class FlowResult:
    """Outcome of a simulation.

    Attributes:
        completion: Per-flow completion times (seconds), flow index ->
            time, including per-flow latency.
        makespan: Time when the last flow completes.
        rates: Initial max-min fair rate of each flow (bytes/s).
        fault_report: :class:`repro.faults.NetworkFaultReport` of what
            the fault timeline did; None unless the run had network
            fault events.
    """

    completion: dict[int, float]
    makespan: float
    rates: dict[int, float]
    fault_report: NetworkFaultReport | None = None


def max_min_rates(
    flows: dict[int, Flow], capacities: dict[tuple[str, str], float]
) -> dict[int, float]:
    """Max-min fair rates for ``flows`` under directed ``capacities``.

    Progressive filling: repeatedly find the most contended link, fix
    every unfrozen flow crossing it at that link's equal share, and
    subtract the committed bandwidth elsewhere.
    """
    link_flows: dict[tuple[str, str], set[int]] = {}
    for idx, flow in flows.items():
        for edge in flow.edges:
            if edge not in capacities:
                raise KeyError(f"flow {idx} uses unknown edge {edge}")
            link_flows.setdefault(edge, set()).add(idx)

    cap_left = {e: capacities[e] for e in link_flows}
    unfrozen_on = {e: set(f) for e, f in link_flows.items()}
    rates: dict[int, float] = {}
    unfrozen = set(flows)

    while unfrozen:
        share = float("inf")
        for edge, members in unfrozen_on.items():
            if not members:
                continue
            edge_share = cap_left[edge] / len(members)
            if edge_share < share:
                share = edge_share
        if share == float("inf"):  # remaining flows cross no capacitated link
            for idx in unfrozen:
                rates[idx] = float("inf")
            break
        # Freeze every link at (or within tolerance of) the bottleneck
        # share together — ties are pervasive in symmetric collectives
        # and freezing them jointly is still max-min fair.
        threshold = share * (1 + 1e-9)
        frozen_now: set[int] = set()
        for edge, members in unfrozen_on.items():
            if members and cap_left[edge] / len(members) <= threshold:
                frozen_now.update(members)
        for idx in frozen_now:
            rates[idx] = share
            unfrozen.discard(idx)
            for edge in flows[idx].edges:
                cap_left[edge] = max(0.0, cap_left[edge] - share)
                unfrozen_on[edge].discard(idx)
    return rates


class _Component:
    """One connected component of the flow/link sharing graph.

    Flows only influence each other's max-min rates through shared
    links, transitively; the fair allocation therefore decomposes
    exactly by connected component.  The event engine exploits this:
    when flows complete, only the components they belong to are
    re-solved, every other flow keeps its frozen rate — the
    O(flows x links) per-event re-solve becomes O(affected).

    Incidence is kept both ways as plain lists over local ids
    (``links_of`` per flow, ``flows_on`` per link), plus the flat
    ``flat``/``own`` arrays the link-load refresh bincounts over.

    The component owns its active state: one flag per local flow in
    ``on`` and their count in ``live``, cleared by
    :meth:`_EventEngine.solve_component` for the flows that finished.
    It also keeps what its last solve needs to be resumed: each flow's
    freeze round, the links each round touched and the flows it froze,
    and each link's capacity history — its capacity followed by what
    every touching round left on it.  Rounds touch only the links of
    the flows they freeze, so the history never grows past the
    incidence.
    """

    __slots__ = (
        "flows", "links", "links_of", "flows_on", "flat", "own",
        "hist", "on", "live", "freeze", "touched", "frozen",
    )

    def __init__(self, flows, links, links_of, caps):
        self.flows = flows  # global engine flow ids, fixed order
        self.links = links  # global link ids of the component
        self.links_of = links_of  # local link ids of each local flow
        self.flows_on = [[] for _ in caps]  # local flows crossing each link
        for f, row in enumerate(links_of):
            for link in row:
                self.flows_on[link].append(f)
        self.flat = np.fromiter(chain.from_iterable(links_of), dtype=np.int64)
        self.own = np.repeat(np.arange(len(links_of)), [len(row) for row in links_of])
        self.hist = [[cap] for cap in caps]  # capacity, then after each touch
        self.on = [True] * len(links_of)  # active flag of each local flow
        self.live = len(links_of)  # number of active flows
        self.freeze = [0] * len(links_of)  # round each flow froze in
        self.touched: list[list[int]] = []  # links each round touched
        self.frozen: list[list[int]] = []  # flows each round froze

    def rewind(self, k: int) -> list[int]:
        """Drop rounds ``k..`` of the last solve; return the flows to refill.

        Restores every link a dropped round touched to the capacity it
        had after round ``k - 1``.  The flows to refill are the active
        ones those rounds froze, or every active flow when ``k == 0``.
        """
        hist, on = self.hist, self.on
        for touched in self.touched[k:]:
            for link in touched:
                hist[link].pop()
        if k:
            rest = [f for frozen in self.frozen[k:] for f in frozen if on[f]]
        else:
            rest = list(compress(range(len(on)), on))
        del self.touched[k:], self.frozen[k:]
        return rest

    def fill(self, rest: list[int]) -> tuple[list[int], list[float]]:
        """Progressive filling of ``rest`` from round ``len(self.frozen)``.

        A heap holds ``(capacity / unfrozen count, link, version)`` for
        every link with unfrozen flows; entries whose version is behind
        the link's are stale and skipped.  Each round pops every link
        within the ``1e-9`` relative tolerance of the minimum share,
        freezes the unfrozen flows on them at that share, then applies
        ``cap = max(cap - share * count, 0)`` once per link those flows
        cross (``count`` of them) and re-pushes it.  That per-link
        ``count x share`` subtraction matches the one-flow-at-a-time
        subtraction of :func:`max_min_rates` to float rounding; a round
        costs the links it pops and the incidence of the flows it
        freezes, not a pass over the component.  Counts and versions
        are lists over local link ids, the unfrozen flags a list over
        local flow ids.

        Returns the flows in freeze order and their rates.
        """
        hist, freeze = self.hist, self.freeze
        links_of, flows_on = self.links_of, self.flows_on
        touched, frozen = self.touched, self.frozen
        cnt = [0] * len(hist)  # unfrozen flows on each link
        unfrozen = [False] * len(freeze)
        for f in rest:
            unfrozen[f] = True
            for link in links_of[f]:
                cnt[link] += 1
        ver = [0] * len(hist)  # bumped per touch; stales heap entries
        heap = [(hist[link][-1] / n, link, 0) for link, n in enumerate(cnt) if n]
        heapify(heap)
        left = len(rest)
        done: list[int] = []
        rates: list[float] = []
        rnd = len(frozen)
        while left:
            # Every link of an unfrozen flow holds a current entry, so
            # the heap cannot run dry while flows are left.
            while heap[0][2] != ver[heap[0][1]]:
                heappop(heap)
            now = []
            share = heap[0][0]
            limit = share * (1 + 1e-9)
            while heap and heap[0][0] <= limit:
                _, link, version = heappop(heap)
                if version != ver[link]:
                    continue
                for f in flows_on[link]:
                    if unfrozen[f]:
                        unfrozen[f] = False
                        freeze[f] = rnd
                        now.append(f)
            left -= len(now)
            delta: dict[int, int] = {}  # flows frozen now on each link
            for f in now:
                for link in links_of[f]:
                    if link in delta:
                        delta[link] += 1
                    else:
                        delta[link] = 1
            for link, d in delta.items():
                h = hist[link]
                cap = h[-1] - share * d
                if cap < 0.0:
                    cap = 0.0
                h.append(cap)
                n = cnt[link] - d
                cnt[link] = n
                v = ver[link] = ver[link] + 1
                if n:
                    heappush(heap, (cap / n, link, v))
            touched.append(list(delta))
            frozen.append(now)
            done += now
            rates += [share] * len(now)
            rnd += 1
        return done, rates


class _EventEngine:
    """Component-incremental engine behind event mode.

    Produces the same completion times as re-running
    :func:`max_min_rates` from scratch at every completion event (the
    reference implementation, kept above as the tested definition of
    the policy), but:

    * link membership is interned once into integer ids, and each
      component keeps its incidence as per-flow and per-link lists
      instead of per-event dicts of sets;
    * progressive filling is heap-driven (:meth:`_Component.fill`): a
      round costs the links it freezes and the flows it touches, not a
      pass over every link and incidence of the component; the
      equal-share subtraction is applied per link as ``count x share``,
      which matches the sequential reference to float rounding;
    * completions only re-solve the affected component(s); untouched
      components reuse their frozen rates bit-for-bit;
    * a re-solve resumes the component's previous progressive filling
      instead of restarting it (below);
    * a re-solve is driven by the flows that finished: each flow's
      component and local id are mapped once at build time, the event
      loop groups each event's finished flows by component, and each
      component clears their flags in its own per-flow active list, so
      no solve rescans the component to find who left;
    * the event loop keeps one index of the active flows per fault
      segment, compacted after each event; every active flow's
      remaining bytes are still decremented at every event (the
      completion times depend on those exact subtractions), and each
      component's link-load refresh is one ``bincount``.

    **Resume rule.**  Let ``k`` be the earliest round in which any flow
    that finished since the component's last solve froze.  Rounds
    ``0..k-1`` of a cold solve over the new active set are exactly the
    old ones: in each of them a finished flow was still unfrozen, so
    every link it crossed had a share strictly above that round's
    freeze threshold.  Removing it only raises those shares (or drops
    the link from the candidates), so the minimum share, the set of
    frozen links, the flows they freeze and every ``cap -= share x
    count`` update are the same floats as before.  The re-solve
    therefore pops the capacity history of rounds ``k..`` (restoring
    the capacities left after round ``k - 1``), keeps the rates of the
    flows frozen earlier, and refills only the active flows rounds
    ``k..`` froze; ``k == 0`` is a cold solve.  It costs the incidence
    it refills, not the component's.  The rates are bit-identical to a
    cold solve, and so is the saved state.  On a shifted-ring
    all-to-all, where one coupled component needs about a hundred
    rounds per solve, nearly every re-solve resumes at its last round.
    """

    def __init__(
        self, paths: dict[int, list[tuple[str, str]]], capacities: dict
    ) -> None:
        self.flow_ids = list(paths)  # flow index of each engine flow
        n = len(self.flow_ids)
        edge_ids: dict[tuple[str, str], int] = {}
        caps_list: list[float] = []
        links_of: list[list[int]] = []
        for idx, edges in paths.items():
            row = []
            for edge in edges:
                eid = edge_ids.get(edge)
                if eid is None:
                    cap = capacities.get(edge)
                    if cap is None:
                        raise KeyError(f"flow {idx} uses unknown edge {edge}")
                    eid = len(caps_list)
                    edge_ids[edge] = eid
                    caps_list.append(cap)
                row.append(eid)
            links_of.append(row)
        self.link_caps = np.asarray(caps_list, dtype=np.float64)
        num_links = len(caps_list)

        # Union-find over engine flows: flows sharing a link share a set.
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        first_on_link = [-1] * num_links
        for eng in range(n):
            for eid in links_of[eng]:
                other = first_on_link[eid]
                if other < 0:
                    first_on_link[eid] = eng
                else:
                    ra, rb = find(eng), find(other)
                    if ra != rb:
                        parent[ra] = rb
        roots: dict[int, int] = {}
        self.comp_of = [0] * n  # component label of each engine flow
        self.local_of = [0] * n  # its local id in that component
        members: list[list[int]] = []
        for eng in range(n):
            root = find(eng)
            label = roots.get(root)
            if label is None:
                label = len(members)
                roots[root] = label
                members.append([])
            self.comp_of[eng] = label
            self.local_of[eng] = len(members[label])
            members[label].append(eng)

        self.components: list[_Component] = []
        for comp_members in members:
            local: dict[int, int] = {}  # global -> local link id, first seen
            rows = [
                [local.setdefault(eid, len(local)) for eid in links_of[e]]
                for e in comp_members
            ]
            self.components.append(
                _Component(
                    flows=np.asarray(comp_members, dtype=np.int64),
                    links=np.fromiter(local, dtype=np.int64, count=len(local)),
                    links_of=rows,
                    caps=[caps_list[eid] for eid in local],
                )
            )

        self.rates = np.zeros(n, dtype=np.float64)
        self.active = np.ones(n, dtype=bool)
        self.link_load = np.zeros(num_links, dtype=np.float64)

    def solve_component(self, comp: _Component, gone: Sequence[int] = ()) -> None:
        """Max-min progressive filling over the component's active flows.

        ``gone`` holds the local ids of the component's flows that
        finished since its last solve; they leave its active set here.
        Mirrors :func:`max_min_rates` (see :meth:`_Component.fill`).  A
        re-solve resumes the last one at round ``k``, the earliest round
        in which a flow of ``gone`` froze, and keeps the rates of the
        flows frozen before it; the first solve (nothing frozen yet)
        starts at round 0.  When rounds ``k..`` froze no flow that is
        still active, there is nothing to refill and the fill is skipped.
        """
        on = comp.on
        for f in gone:
            on[f] = False
        comp.live -= len(gone)
        if not comp.live:
            self.link_load[comp.links] = 0.0
            return
        k = min(map(comp.freeze.__getitem__, gone), default=len(comp.frozen))
        rest = comp.rewind(k)
        if rest:
            done, rates = comp.fill(rest)
            self.rates[comp.flows[done]] = rates
        # Refresh the component's link loads for utilization sampling;
        # inactive and unbounded flows weigh zero.
        weights = self.rates[comp.flows]
        weights[~(self.active[comp.flows] & np.isfinite(weights))] = 0.0
        self.link_load[comp.links] = np.bincount(
            comp.flat, weights=weights[comp.own], minlength=len(comp.links)
        )

    def solve_all(self) -> None:
        for comp in self.components:
            self.solve_component(comp)

    def utilization(self) -> tuple[float, float, int] | None:
        """Mean/max utilization over links carrying traffic, or None."""
        loaded = np.flatnonzero(self.link_load)
        if len(loaded) == 0:
            return None
        utils = np.minimum(1.0, self.link_load[loaded] / self.link_caps[loaded])
        return float(utils.mean()), float(utils.max()), len(loaded)


class FlowSimulator:
    """Event-driven max-min fair flow simulator over a topology.

    Args:
        topology: The fabric.
        tracer: Optional :class:`repro.obs.Tracer`; each flow becomes a
            span (track = flow index) in a "network" trace process and
            link utilization is sampled as counter events at every
            allocation re-solve.  Defaults to the zero-cost null tracer.
        metrics: Optional registry; each ``simulate`` records flow-time
            histograms, per-solve link-utilization series, and a flow
            counter into it (fresh per call when not supplied, exposed
            as ``self.metrics``).
    """

    def __init__(
        self,
        topology: Topology,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.topology = topology
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._metrics_arg = metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.capacities: dict[tuple[str, str], float] = {}
        for a, b, data in topology.graph.edges(data=True):
            self.capacities[(a, b)] = data["bandwidth"]
            self.capacities[(b, a)] = data["bandwidth"]

    def _sample_engine(self, now: float, engine: _EventEngine) -> None:
        """Record utilization from the engine's maintained link loads."""
        sample = engine.utilization()
        if sample is None:
            return
        mean_util, max_util, nlinks = sample
        self.metrics.series("network.link_utilization.mean").record(now, mean_util)
        self.metrics.series("network.link_utilization.max").record(now, max_util)
        if self.tracer.enabled:
            self.tracer.counter(
                "link_utilization", _FABRIC_PID, now,
                {"mean": mean_util, "max": max_util, "links": float(nlinks)},
            )

    def _record_flows(self, flows: list[Flow], completion: dict[int, float]) -> None:
        """Emit per-flow spans and completion-time metrics."""
        times = self.metrics.histogram("network.flow_time_s")
        self.metrics.counter("network.flows").inc(len(flows))
        tracer = self.tracer
        if tracer.enabled:
            tracer.process(_FABRIC_PID, "network")
        for idx, flow in enumerate(flows):
            t = completion.get(idx)
            if t is None or t == float("inf"):
                continue
            times.observe(t)
            if tracer.enabled:
                name = flow.tag or f"{flow.src}->{flow.dst}"
                tracer.complete(
                    name, "flow", _FABRIC_PID, idx, 0.0, t,
                    args={"bytes": flow.size, "hops": len(flow.edges)},
                )

    def simulate(
        self,
        flows: list[Flow],
        time_epsilon: float = 1e-9,
        mode: str = "event",
        faults=None,
        reroute=None,
    ) -> FlowResult:
        """Run all flows to completion.

        Args:
            flows: The transfers; all start at time zero.
            time_epsilon: Relative completion grouping tolerance: any
                flow whose remaining time at current rates is within
                ``(1 + time_epsilon) x dt`` of the next completion
                event finishes with it.  Coarser values (e.g. 0.02)
                collapse the event count for noisy symmetric traffic
                at a bounded relative accuracy cost.
            mode: "event" re-solves the fair allocation at every
                completion (exact).  "drain" uses
                the fluid bound — makespan is the largest per-link
                drain time ``traffic/capacity`` plus the worst startup
                latency; exact whenever the bottleneck link stays busy
                to the end, which holds for the saturated symmetric
                collectives the benches run.
            faults: Optional :class:`repro.faults.FaultSchedule` (event
                mode only).  Its ``link``/``switch`` events take
                capacity away and give it back at failure/repair
                instants; each instant is a boundary of the event loop
                (see below), and the result's ``fault_report`` records
                what the timeline did.  A schedule without such events leaves
                the run byte-identical to the fault-free simulation.
            reroute: Optional reroute policy for flows whose path lost
                an edge (see :func:`repro.faults.cluster_reroute`);
                without one, broken flows stall until repair.

        Returns:
            Completion times, makespan and the initial fair rates.
            Flows that never regain a path complete at ``inf`` and are
            left out of the makespan.

        Event mode advances to whichever comes first, the next
        completion or the next failure/repair boundary.  At a boundary
        the downed capacity is updated, every unfinished flow is
        route-checked once (it keeps its path, reroutes, or stalls),
        and the engine is rebuilt over the flows with a live path on
        the surviving capacities.  A fault-free run has no boundaries
        and builds one engine.
        """
        if not 0 <= time_epsilon < math.inf:
            # A NaN horizon would never let a flow finish.
            raise ValueError(
                f"time_epsilon must be finite and non-negative, got {time_epsilon!r}"
            )
        if mode not in SIM_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if faults and mode != "event":
            raise ValueError("fault injection requires event mode")
        self.metrics = (
            self._metrics_arg if self._metrics_arg is not None else MetricsRegistry()
        )
        if mode == "drain":
            traffic: dict[tuple[str, str], float] = {}
            for f in flows:
                for e in f.edges:
                    traffic[e] = traffic.get(e, 0.0) + f.size
            drain = max(
                (t / self.capacities[e] for e, t in traffic.items()), default=0.0
            )
            # Per-flow completions are not resolved by the fluid bound;
            # report each flow's own busiest-link drain time as a
            # lower-bound proxy.
            completion = {}
            for i, f in enumerate(flows):
                own = max((traffic[e] / self.capacities[e] for e in f.edges), default=0.0)
                completion[i] = f.latency + (own if f.size > 0 else 0.0)
            makespan = drain + max((f.latency for f in flows), default=0.0)
            self._record_flows(flows, completion)
            return FlowResult(completion=completion, makespan=makespan, rates={})
        paths = {i: f.edges for i, f in enumerate(flows) if f.size > 0}
        events = ()
        if faults:
            from ..faults.network import NETWORK_FAULT_KINDS, NetworkFaultReport, _edges_of

            if any(e.kind == "plane" for e in faults.events):
                raise ValueError(
                    "plane events must be lowered first: see expand_plane_schedule()"
                )
            events = faults.for_kinds(NETWORK_FAULT_KINDS)
        # (time, failing, event): failures sort before repairs at the
        # same instant so a flapping component is down for its full window.
        timeline = []
        for event in events:
            timeline.append((event.time, True, event))
            if math.isfinite(event.mttr):
                timeline.append((event.time + event.mttr, False, event))
        timeline.sort(key=lambda entry: (entry[0], not entry[1]))
        alive = dict(self.capacities)
        # Reference-count downed capacity entries: overlapping failures may
        # claim the same edge, which only heals when the last claim repairs.
        down: dict[tuple[str, str], int] = {}
        tracer = self.tracer

        def apply(failing: bool, event, now: float) -> None:
            for edge in _edges_of(event, self.capacities):
                if failing:
                    down[edge] = down.get(edge, 0) + 1
                    alive.pop(edge, None)
                else:
                    down[edge] -= 1
                    if down[edge] == 0:
                        alive[edge] = self.capacities[edge]
            self.metrics.series("network.capacity_down").record(
                now, sum(1 for c in down.values() if c) / 2
            )
            if tracer.enabled:
                tracer.instant(
                    f"{event.kind}_{'down' if failing else 'up'}",
                    "fault", _FABRIC_PID, 0, now, args={"target": event.target},
                )

        completion = {i: f.latency for i, f in enumerate(flows) if f.size == 0}
        remaining = {i: flows[i].size for i in paths}  # bytes left, unfinished flows
        rerouted: set[int] = set()
        ever_stalled: set[int] = set()
        initial_rates = None
        stall_time = now = 0.0
        cursor = 0
        while remaining:
            while cursor < len(timeline) and timeline[cursor][0] <= now:
                _, failing, event = timeline[cursor]
                apply(failing, event, now)
                cursor += 1
            boundary = timeline[cursor][0] if cursor < len(timeline) else math.inf
            # Route check, once per boundary: a flow runs iff no edge of
            # its path is down; otherwise it reroutes or stalls.
            live: dict[int, list[tuple[str, str]]] = {}
            stalled: list[int] = []
            for i in remaining:
                if down and any(down.get(edge) for edge in paths[i]):
                    path = reroute(flows[i], alive) if reroute is not None else None
                    if path is None or len(path) < 2:
                        stalled.append(i)
                        continue
                    paths[i] = list(zip(path[:-1], path[1:]))
                    rerouted.add(i)
                    if tracer.enabled:
                        tracer.instant(
                            "reroute", "fault", _FABRIC_PID, i, now,
                            args={"hops": len(path) - 1},
                        )
                live[i] = paths[i]
            ever_stalled.update(stalled)

            engine = _EventEngine(live, alive)
            ids = np.asarray(engine.flow_ids, dtype=np.int64)
            engine.solve_all()
            if initial_rates is None:
                initial_rates = {int(i): float(r) for i, r in zip(ids, engine.rates)}
            latencies = np.asarray([flows[i].latency for i in live], dtype=np.float64)
            left = np.asarray([remaining[i] for i in live], dtype=np.float64)
            self._sample_engine(now, engine)
            comp_of, local_of = engine.comp_of, engine.local_of
            act = np.flatnonzero(engine.active)  # active engine flows, ascending
            start, at_boundary = now, False
            while len(act):
                rates = engine.rates[act]
                t = left[act] / rates
                dt = float(t.min())
                # A failure/repair instant due first ends the segment
                # exactly on it; flows finishing with it still complete.
                at_boundary = boundary != math.inf and boundary - now <= dt
                if at_boundary:
                    dt = boundary - now
                horizon = dt * (1 + time_epsilon)
                finished = t <= horizon
                fin = act[finished]
                now = boundary if at_boundary else now + dt
                left[act] -= rates * dt
                engine.active[fin] = False
                act = act[~finished]
                for idx, lat in zip(ids[fin], latencies[fin]):
                    completion[int(idx)] = now + float(lat)
                if at_boundary:
                    break
                # Only the components that lost flows need a new allocation;
                # every other component's rates are reused as-is.
                gone: dict[int, list[int]] = {}
                for eng in fin.tolist():
                    gone.setdefault(comp_of[eng], []).append(local_of[eng])
                for label in sorted(gone):
                    engine.solve_component(engine.components[label], gone[label])
                if len(act):
                    self._sample_engine(now, engine)
            if not at_boundary:  # every live flow finished first
                if boundary == math.inf:  # no repair left: stalled flows never finish
                    stall_time += len(stalled) * (now - start)
                    completion.update(dict.fromkeys(stalled, math.inf))
                    break
                now = boundary
            stall_time += len(stalled) * (now - start)
            left_of = dict(zip(engine.flow_ids, left.tolist()))
            remaining = {
                i: left_of.get(i, b) for i, b in remaining.items() if i not in completion
            }

        report = None
        if events:
            report = NetworkFaultReport(
                events=len(events),
                rerouted=tuple(sorted(rerouted)),
                stalled=tuple(sorted(ever_stalled)),
                unfinished=tuple(sorted(i for i, t in completion.items() if t == math.inf)),
                stall_time=stall_time,
            )
        makespan = max((t for t in completion.values() if t != math.inf), default=0.0)
        self._record_flows(flows, completion)
        return FlowResult(completion, makespan, initial_rates or {}, report)
