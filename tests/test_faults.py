"""Tests for the fault injection & recovery engine (:mod:`repro.faults`).

Covers the schedule layer (ordering, serialization, MTBF sampling, CLI
parsing), the serving integration (seeded determinism, retry/backoff
bounds, degraded admission, the request conservation identity), the
network integration (plane isolation, reroute-or-stall, repair), the
failover restore helpers, and the checkpoint/restart goodput simulation
pinned against the Young-Daly closed form.
"""

from __future__ import annotations

import hashlib
import math
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    NEVER,
    NODE_GPUS,
    FaultEvent,
    FaultSchedule,
    RecoveryPolicy,
    cluster_reroute,
    expand_plane_schedule,
    link_target,
    parse_faults_arg,
)
from repro.network import (
    Flow,
    FlowSimulator,
    build_mpft_cluster,
    build_mrft_cluster,
    planes_used,
    pxn_path,
)
from repro.obs import Tracer
from repro.reliability import (
    fail_link,
    fail_switch,
    failed,
    goodput_fraction,
    hosts_reachable,
    optimal_checkpoint_interval,
    restore_link,
    restore_switch,
)
from repro.serving import (
    KVPoolConfig,
    PagedKVPool,
    Request,
    ServingSimulator,
    SimConfig,
    WorkloadSpec,
    report_asdict,
)
from repro.training import GoodputReport, simulate_checkpointed_training

from .graph_oracle import to_networkx


# -- schedules -----------------------------------------------------------

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["gpu", "node", "link", "step", "pool", ""]),
    st.text(max_size=4),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _schedule_payloads(draw) -> dict:
    """Dicts shaped more or less like a fault schedule: mostly lists of
    event objects with the real keys, sometimes anything at all."""
    entry = st.dictionaries(
        st.sampled_from(["time", "kind", "target", "count", "mttr", "extra"]),
        _JSON_SCALARS,
        max_size=6,
    )
    events = draw(st.one_of(st.lists(entry | _JSON_VALUES, max_size=4), _JSON_VALUES))
    payload = draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=2))
    if draw(st.booleans()):
        payload["events"] = events
    return payload


class TestFaultSchedule:
    def test_events_sort_by_time(self):
        late = FaultEvent(time=9.0, kind="gpu")
        early = FaultEvent(time=1.0, kind="node")
        sched = FaultSchedule(events=(late, early))
        assert sched.times() == (1.0, 9.0)
        assert sched.events[0] is early

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind="gpu")
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind="meteor")
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind="gpu", count=0)
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind="gpu", mttr=0.0)

    def test_gpus_lost(self):
        assert FaultEvent(time=0.0, kind="gpu", count=3).gpus_lost == 3
        assert FaultEvent(time=0.0, kind="node", count=2).gpus_lost == 2 * NODE_GPUS

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule(events=(FaultEvent(time=0.0, kind="step"),))

    def test_for_kinds_filters(self):
        sched = FaultSchedule(
            events=(
                FaultEvent(time=1.0, kind="gpu", target="decode"),
                FaultEvent(time=2.0, kind="link", target="a|b"),
                FaultEvent(time=3.0, kind="step"),
            )
        )
        assert [e.kind for e in sched.for_kinds(("gpu", "node"))] == ["gpu"]
        assert sched.times(("step",)) == (3.0,)

    def test_json_roundtrip(self, tmp_path):
        sched = FaultSchedule(
            events=(
                FaultEvent(time=5.0, kind="node", target="pool", count=2, mttr=30.0),
                FaultEvent(time=1.5, kind="link", target="a|b"),
            )
        )
        # text, dict and file-path forms all reproduce the schedule
        assert FaultSchedule.from_json(sched.to_json()) == sched
        assert FaultSchedule.from_json({"events": [e.to_dict() for e in sched.events]}) == sched
        path = tmp_path / "faults.json"
        path.write_text(sched.to_json())
        assert FaultSchedule.from_json(path) == sched

    def test_infinite_mttr_survives_roundtrip(self):
        sched = FaultSchedule(events=(FaultEvent(time=1.0, kind="gpu"),))
        event = FaultSchedule.from_json(sched.to_json()).events[0]
        assert event.mttr == math.inf

    def test_sampled_is_seed_deterministic(self):
        kwargs = dict(kind="node", targets=("prefill", "decode"), mttr=25.0)
        a = FaultSchedule.sampled(100.0, 1000.0, seed=11, **kwargs)
        b = FaultSchedule.sampled(100.0, 1000.0, seed=11, **kwargs)
        c = FaultSchedule.sampled(100.0, 1000.0, seed=12, **kwargs)
        assert a == b
        assert a != c
        assert a.events  # horizon of 10x MTBF: failures all but certain
        assert all(0 <= e.time < 1000.0 for e in a.events)
        assert all(e.target in ("prefill", "decode") for e in a.events)
        assert all(e.mttr == 25.0 for e in a.events)

    def test_sampled_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.sampled(0.0, 10.0, seed=0)
        with pytest.raises(ValueError):
            FaultSchedule.sampled(1.0, 10.0, seed=0, targets=())

    def test_parse_mtbf_forms(self):
        sched = parse_faults_arg("mtbf:50", horizon=500.0, seed=3)
        assert all(e.mttr == 5.0 for e in sched.events)  # default MTBF/10
        sched = parse_faults_arg("mtbf:50:2", horizon=500.0, seed=3)
        assert all(e.mttr == 2.0 for e in sched.events)
        sched = parse_faults_arg("mtbf:50:2:100", horizon=500.0, seed=3)
        assert all(e.time < 100.0 for e in sched.events)  # explicit horizon wins
        with pytest.raises(ValueError):
            parse_faults_arg("mtbf:", horizon=10.0, seed=0)

    def test_parse_json_path(self, tmp_path):
        sched = FaultSchedule(events=(FaultEvent(time=2.0, kind="gpu", target="pool"),))
        path = tmp_path / "sched.json"
        path.write_text(sched.to_json())
        assert parse_faults_arg(str(path), horizon=10.0, seed=0) == sched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time": math.inf},
            {"time": math.nan},
            {"time": True},
            {"time": "1.0"},
            {"mttr": math.nan},
            {"mttr": -math.inf},
            {"mttr": False},
            {"count": True},
            {"count": 1.5},
            {"count": 2.0},
        ],
        ids=repr,
    )
    def test_event_refuses_values_that_crash_or_change_meaning(self, kwargs):
        """Non-finite times crash the event queues, a NaN mttr would read
        as "never repaired", and a bool or float count would be coerced."""
        with pytest.raises(ValueError):
            FaultEvent(**{"time": 1.0, "kind": "gpu", **kwargs})

    @pytest.mark.parametrize(
        "payload",
        [
            {"events": {"time": 1.0, "kind": "gpu"}},
            {"events": "gpu"},
            {"events": [1.0]},
            {"events": [["time", 1.0]]},
            {"events": [{"kind": "gpu"}]},
            {"events": [{"time": 1.0}]},
            {"events": [{"time": 10**400, "kind": "gpu"}]},
            {"events": [{"time": 1, "kind": "gpu", "count": True, "mttr": math.nan}]},
            {"events": [{"time": 1, "kind": "gpu", "count": 2.5}]},
            {"events": [{"time": None, "kind": "gpu"}]},
        ],
        ids=lambda payload: repr(payload)[:60],
    )
    def test_from_json_malformed_schedule_is_value_error(self, payload):
        with pytest.raises(ValueError):
            FaultSchedule.from_json(payload)

    def test_from_json_text_form_is_checked_the_same_way(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_json('{"events": [1]}')
        with pytest.raises(ValueError):
            FaultSchedule.from_json('{"events": [{"time": NaN, "kind": "gpu"}]}')
        assert FaultSchedule.from_json("{}") == FaultSchedule()

    @settings(max_examples=300, deadline=None)
    @given(payload=_schedule_payloads())
    def test_from_json_fuzz_ends_in_schedule_or_value_error(self, payload):
        try:
            sched = FaultSchedule.from_json(payload)
        except ValueError:
            return
        # Whatever is accepted is a well-formed schedule that round-trips.
        for event in sched.events:
            assert math.isfinite(event.time) and event.time >= 0
            assert event.mttr > 0 and type(event.count) is int and event.count >= 1
        assert FaultSchedule.from_json(sched.to_json()) == sched

    def test_recovery_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(retry_budget=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_base=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(degraded_queue_limit=0)


# -- serving integration -------------------------------------------------


def _node_failure_config() -> SimConfig:
    """A colocated pool under load that loses a node for 10 s at t=5."""
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=10.0,
            num_requests=300,
            prompt_mean=512,
            output_mean=128,
            arrival="bursty",
        ),
        mode="colocated",
        prefill_gpus=2,
        decode_gpus=8,
        kv_blocks_per_gpu=40,
        seed=7,
        faults=FaultSchedule(
            events=(FaultEvent(time=5.0, kind="node", target="pool", mttr=10.0),)
        ),
        recovery=RecoveryPolicy(retry_budget=2, degraded_queue_limit=24),
    )


class TestServingFaults:
    def test_fault_free_run_has_no_degradation(self):
        config = SimConfig(
            workload=WorkloadSpec(request_rate=4.0, num_requests=40), seed=1
        )
        report = ServingSimulator(config).run()
        assert report.degradation is None
        assert "degradation" not in report_asdict(report)

    def test_seeded_fault_run_is_reproducible(self, tmp_path):
        digests, reports = [], []
        for i in range(2):
            tracer = Tracer()
            report = ServingSimulator(_node_failure_config(), tracer=tracer).run()
            path = tmp_path / f"run{i}.trace.json"
            tracer.write(str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            reports.append(report)
        assert reports[0] == reports[1]
        assert digests[0] == digests[1]

    def test_node_failure_accounting_and_recovery(self):
        report = ServingSimulator(_node_failure_config()).run()
        d = report.degradation
        assert d is not None and len(d.windows) == 1
        # The conservation identity: every arrival is accounted for.
        assert d.accounted
        assert d.admitted == 300
        assert d.finished == report.completed
        assert d.dropped >= d.shed + d.retry_dropped
        # Goodput dips during the outage and recovers past it after repair.
        w = d.windows[0]
        assert w.gpus_lost == NODE_GPUS
        assert w.goodput_during < w.goodput_before
        assert w.goodput_after > w.goodput_during
        # Degraded admission shed load; the step in flight was aborted.
        assert d.shed > 0
        assert d.steps_aborted >= 1
        assert d.lost_tokens > 0
        # Every eviction either retried or exhausted its budget.
        assert d.evicted == d.retries + d.retry_dropped

    def test_permanent_fault_strands_requests(self):
        config = SimConfig(
            workload=WorkloadSpec(request_rate=4.0, num_requests=60),
            mode="colocated",
            prefill_gpus=1,
            decode_gpus=3,
            seed=5,
            faults=FaultSchedule(
                events=(FaultEvent(time=2.0, kind="node", target="pool"),)
            ),
        )
        report = ServingSimulator(config).run()
        d = report.degradation
        assert d is not None and d.accounted
        # All four GPUs die and never return: later arrivals are stranded.
        assert d.unserved > 0
        w = d.windows[0]
        assert w.end == NEVER
        assert w.goodput_after == 0.0

    def test_a_repair_drops_thousands_of_never_fitting_heads(self):
        """While a fault window is open a request larger than the whole
        pool queues (the repaired pool might fit it); at the repair every
        such head is dropped in one loop, with no recursion, however
        many queued."""
        config = SimConfig(
            workload=WorkloadSpec(
                request_rate=100.0, num_requests=3000, prompt_mean=4096, prompt_cv=0.0
            ),
            mode="colocated",
            kv_blocks_per_gpu=1,
            faults=FaultSchedule(events=(FaultEvent(time=0.0, kind="gpu", mttr=25.0),)),
            recovery=RecoveryPolicy(degraded_queue_limit=5000),
        )
        report = ServingSimulator(config).run()
        d = report.degradation
        assert d.admitted == 3000
        assert report.completed + d.dropped + d.unserved == d.admitted
        assert d.dropped > sys.getrecursionlimit()

    def test_null_schedule_equals_no_schedule(self):
        base = SimConfig(workload=WorkloadSpec(request_rate=4.0, num_requests=40), seed=2)
        nulled = SimConfig(
            workload=WorkloadSpec(request_rate=4.0, num_requests=40),
            seed=2,
            faults=FaultSchedule(),
        )
        assert ServingSimulator(base).run() == ServingSimulator(nulled).run()


# -- paged KV pool resize ------------------------------------------------


class TestKvPoolResize:
    def test_grow_and_shrink(self):
        pool = PagedKVPool(KVPoolConfig(total_blocks=10, block_tokens=64))
        request = Request(rid=1, arrival=0.0, prompt_tokens=1, output_tokens=1)
        assert pool.allocate(request, 64 * 6)
        assert pool.free_blocks == 4
        pool.resize(16)
        assert pool.free_blocks == 10
        assert pool.config.total_blocks == 16
        pool.resize(4)  # below the 6 blocks held: over-committed
        assert pool.free_blocks == -2
        assert request.kv_tokens == 64 * 6  # the holding survives a resize
        assert pool.never_fits(64 * 4 + 1, 0)  # the rule reads the new size
        pool.free(request)
        assert (pool.free_blocks, request.kv_tokens) == (4, 0)

    def test_resize_validation(self):
        pool = PagedKVPool(KVPoolConfig(total_blocks=4))
        with pytest.raises(ValueError):
            pool.resize(0)


# -- failover restore helpers --------------------------------------------


class TestFailoverRestore:
    def test_link_roundtrip(self):
        cluster = build_mpft_cluster(2)
        topo = cluster.topology
        a, b = "n0g0", "MPFT/p0/leaf0"
        before = dict(to_networkx(topo).edges[a, b])
        attrs = fail_link(topo, a, b)
        assert not topo.graph.has_edge(a, b)
        restore_link(topo, a, b, attrs)
        assert dict(to_networkx(topo).edges[a, b]) == before
        with pytest.raises(KeyError):
            restore_link(topo, a, b, attrs)  # already up
        with pytest.raises(KeyError):
            fail_link(topo, a, "no-such-node")

    def test_switch_roundtrip(self):
        cluster = build_mpft_cluster(2)
        topo = cluster.topology
        switch = "MPFT/p1/leaf0"
        degree = to_networkx(topo).degree[switch]
        node_attrs, links = fail_switch(topo, switch)
        assert switch not in topo.graph
        assert len(links) == degree
        restore_switch(topo, switch, node_attrs, links)
        assert to_networkx(topo).degree[switch] == degree
        assert topo.graph.nodes[switch]["plane"] == 1
        with pytest.raises(KeyError):
            restore_switch(topo, switch, node_attrs, links)
        with pytest.raises(KeyError):
            fail_switch(topo, "n0g0")  # hosts are not switches

    def test_failed_context_manager_heals(self):
        cluster = build_mpft_cluster(2)
        topo = cluster.topology
        edges_before = to_networkx(topo).number_of_edges()
        with failed(topo, links=(("n0g0", "MPFT/p0/leaf0"),), switches=("MPFT/p0/leaf0",)):
            assert "MPFT/p0/leaf0" not in topo.graph
            # Plane 0 is gone, but the NVLink detour keeps hosts reachable.
            assert hosts_reachable(topo, "n0g0", "n1g0")
        assert to_networkx(topo).number_of_edges() == edges_before
        assert topo.graph.has_edge("n0g0", "MPFT/p0/leaf0")

    def test_failed_restores_on_exception(self):
        cluster = build_mpft_cluster(2)
        topo = cluster.topology
        edges_before = to_networkx(topo).number_of_edges()
        with pytest.raises(RuntimeError):
            with failed(topo, switches=("MPFT/p0/leaf0",)):
                raise RuntimeError("body blew up")
        assert to_networkx(topo).number_of_edges() == edges_before


# -- network flow integration --------------------------------------------


@pytest.fixture(scope="class")
def mpft():
    cluster = build_mpft_cluster(4)
    flows = []
    for p in range(4):
        src, dst = f"n0g{p}", f"n1g{p}"
        flows.append(Flow(src, dst, 1e9, pxn_path(cluster, src, dst), tag=f"p{p}"))
    return cluster, flows


class TestNetworkFaults:
    def test_empty_schedule_is_identical(self, mpft):
        cluster, flows = mpft
        sim = FlowSimulator(cluster.topology)
        base = sim.simulate(flows)
        nulled = sim.simulate(flows, faults=FaultSchedule())
        assert nulled.completion == base.completion
        assert nulled.fault_report is None

    def test_plane_isolation_without_reroute(self, mpft):
        """§5.1.1: a dead plane stalls only its own traffic."""
        cluster, flows = mpft
        sim = FlowSimulator(cluster.topology)
        base = sim.simulate(flows)
        schedule = expand_plane_schedule(
            cluster,
            FaultSchedule(events=(FaultEvent(time=0.001, kind="plane", target="0"),)),
        )
        # Lowered to per-switch failures (4 nodes: one leaf per plane).
        assert all(e.kind == "switch" for e in schedule.events)
        result = sim.simulate(flows, faults=schedule)
        assert result.completion[0] == math.inf  # plane-0 flow never finishes
        assert 0 in result.fault_report.unfinished
        assert 0 in result.fault_report.stalled
        # Surviving planes are bit-for-bit unaffected by the outage.
        for i in range(1, 4):
            assert result.completion[i] == pytest.approx(base.completion[i], abs=1e-9)
        assert result.makespan < math.inf

    def test_reroute_escapes_dead_plane(self, mpft):
        cluster, flows = mpft
        sim = FlowSimulator(cluster.topology)
        schedule = expand_plane_schedule(
            cluster,
            FaultSchedule(events=(FaultEvent(time=0.001, kind="plane", target="0"),)),
        )
        result = sim.simulate(flows, faults=schedule, reroute=cluster_reroute(cluster))
        assert all(t < math.inf for t in result.completion.values())
        assert 0 in result.fault_report.rerouted
        assert result.fault_report.unfinished == ()
        # The policy's detour really leaves plane 0 (PXN over NVLink).
        alive = {
            edge: cap
            for edge, cap in sim.capacities.items()
            if "p0/" not in edge[0] and "p0/" not in edge[1]
        }
        path = cluster_reroute(cluster)(flows[0], alive)
        assert path is not None
        assert 0 not in planes_used(cluster, path)

    def test_repair_resumes_original_path(self, mpft):
        cluster, flows = mpft
        sim = FlowSimulator(cluster.topology)
        base = sim.simulate(flows)
        schedule = expand_plane_schedule(
            cluster,
            FaultSchedule(
                events=(FaultEvent(time=0.001, kind="plane", target="0", mttr=0.02),)
            ),
        )
        result = sim.simulate(flows, faults=schedule)
        # The stalled flow finishes exactly one repair window late.
        assert result.completion[0] == pytest.approx(base.completion[0] + 0.02, rel=1e-6)
        assert result.fault_report.stall_time == pytest.approx(0.02, rel=1e-6)
        assert result.fault_report.unfinished == ()

    def test_unlowered_plane_event_rejected(self, mpft):
        cluster, flows = mpft
        sim = FlowSimulator(cluster.topology)
        schedule = FaultSchedule(events=(FaultEvent(time=0.001, kind="plane", target="0"),))
        with pytest.raises(ValueError, match="expand_plane_schedule"):
            sim.simulate(flows, faults=schedule)

    def test_link_fault_targets_one_cable(self, mpft):
        cluster, flows = mpft
        sim = FlowSimulator(cluster.topology)
        base = sim.simulate(flows)
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time=0.001,
                    kind="link",
                    target=link_target("n0g2", "MPFT/p2/leaf0"),
                    mttr=0.01,
                ),
            )
        )
        result = sim.simulate(flows, faults=schedule)
        assert result.completion[2] == pytest.approx(base.completion[2] + 0.01, rel=1e-6)
        for i in (0, 1, 3):
            assert result.completion[i] == pytest.approx(base.completion[i], abs=1e-9)

    def test_unknown_fault_targets_are_refused_before_any_engine(self, mpft, monkeypatch):
        """A link or switch target that is not in the topology is a
        ``ValueError`` naming it, raised before the first engine is
        built, whether or not the component would ever be repaired."""
        from repro.network import flowsim

        cluster, flows = mpft
        sim = FlowSimulator(cluster.topology)

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(flowsim, "_EventEngine", no_engine)
        for kind, target in [
            ("link", "n0g0|n1g0"),  # both hosts exist, no cable joins them
            ("link", "h0|h1"),
            ("switch", "MPFT/p9/leaf0"),
            ("switch", "n0g0"),  # a host, not a switch
        ]:
            for mttr in (0.001, math.inf):
                event = FaultEvent(time=0.0001, kind=kind, target=target, mttr=mttr)
                with pytest.raises(ValueError, match=f"{kind} fault target '{target}'"):
                    sim.simulate(flows, faults=FaultSchedule(events=(event,)))


def _damaged_capacities(cluster, links, switches, planes):
    """The live directed capacities of ``cluster`` once ``links``,
    ``switches`` and every switch of ``planes`` are down."""
    graph = cluster.topology.graph
    dead = set(switches) | {
        s
        for s in cluster.topology.switches
        if graph.nodes[s].get("plane", graph.nodes[s].get("rail")) in planes
    }
    cut = set(links) | {(b, a) for a, b in links}
    return {
        edge: cap
        for edge, cap in FlowSimulator(cluster.topology).capacities.items()
        if edge not in cut and not dead & set(edge)
    }


@st.composite
def _reroute_cases(draw):
    build = draw(st.sampled_from([build_mpft_cluster, build_mrft_cluster]))
    cluster = build(draw(st.integers(2, 4)), nodes_per_leaf=draw(st.integers(1, 2)))
    topo = cluster.topology
    links = draw(st.lists(st.sampled_from(list(topo.graph.edges())), max_size=12))
    switches = draw(st.lists(st.sampled_from(topo.switches), max_size=3))
    planes = draw(st.sets(st.integers(0, cluster.gpus_per_node - 1), max_size=2))
    gpus = cluster.gpus()
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(gpus), st.sampled_from(gpus)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=8,
        )
    )
    return cluster, _damaged_capacities(cluster, links, switches, planes), pairs


@settings(max_examples=80, deadline=None)
@given(case=_reroute_cases())
def test_reroute_is_the_first_surviving_shortest_path(case):
    """On a damaged MPFT/MRFT, the reroute is the lexicographically
    first shortest path over the live capacities —
    ``min(nx.all_shortest_paths(...))``, not networkx's own
    ``shortest_path`` pick — and None exactly when no path survives."""
    cluster, alive, pairs = case
    damaged = nx.Graph()
    damaged.add_nodes_from(cluster.topology.graph.nodes)
    damaged.add_edges_from(alive)
    reroute = cluster_reroute(cluster)
    for src, dst in pairs:
        path = reroute(Flow(src, dst, 1e6, [src, dst]), alive)
        if nx.has_path(damaged, src, dst):
            assert path == min(nx.all_shortest_paths(damaged, src, dst))
        else:
            assert path is None


def test_reroute_ties_break_by_the_sorted_rule():
    """Of a cross-plane pair's two equal-length detours, the reroute takes
    the lexicographically first, as every flow builder's path table
    orders them; networkx's ``shortest_path`` takes the other one."""
    cluster = build_mpft_cluster(2, nodes_per_leaf=1)
    alive = _damaged_capacities(cluster, [], [], {0})
    path = cluster_reroute(cluster)(Flow("n0g1", "n1g2", 1e6, ["n0g1", "n1g2"]), alive)
    assert path == [
        "n0g1", "MPFT/p1/leaf0", "MPFT/p1/spine0", "MPFT/p1/leaf1", "n1g1", "n1/nvsw", "n1g2",
    ]
    damaged = nx.Graph(alive.keys())
    assert nx.shortest_path(damaged, "n0g1", "n1g2") != path


def test_reroute_reads_the_capacities_at_every_call():
    """The policy derives nothing it keeps from a capacities mapping: a
    caller that takes edges out of the same dict in place gets a path
    over the edges left, never one over an edge now down."""
    cluster = build_mpft_cluster(2, nodes_per_leaf=1)
    alive = _damaged_capacities(cluster, [], [], set())
    reroute = cluster_reroute(cluster)
    flow = Flow("n0g1", "n1g2", 1e6, ["n0g1", "n1g2"])
    first = reroute(flow, alive)
    del alive[first[0], first[1]], alive[first[1], first[0]]
    second = reroute(flow, alive)
    assert second is not None and second != first
    assert all((a, b) in alive for a, b in zip(second, second[1:]))


def test_reroute_at_two_successive_plane_outages():
    """Plane 0 goes down, then plane 1: the policy is asked once per
    broken flow at each boundary (plane 0's 12 flows, then plane 1's 12
    and the 12 detours that crossed plane 1), and every flow finishes."""
    cluster = build_mpft_cluster(4)
    flows = []
    for p in (0, 1):
        for a in range(4):
            for b in range(4):
                if a != b:
                    src, dst = f"n{a}g{p}", f"n{b}g{p}"
                    flows.append(Flow(src, dst, 1e9, pxn_path(cluster, src, dst)))
    schedule = expand_plane_schedule(
        cluster,
        FaultSchedule(
            events=(
                FaultEvent(time=0.001, kind="plane", target="0"),
                FaultEvent(time=0.002, kind="plane", target="1"),
            )
        ),
    )
    policy = cluster_reroute(cluster)
    calls = []

    def counted_policy(flow, capacities):
        calls.append(flow)
        path = policy(flow, capacities)
        assert all((a, b) in capacities for a, b in zip(path, path[1:]))
        return path

    result = FlowSimulator(cluster.topology).simulate(
        flows, faults=schedule, reroute=counted_policy
    )
    assert len(calls) == 36
    assert len(result.fault_report.rerouted) == 24
    assert result.fault_report.unfinished == ()


# -- checkpoint/restart goodput ------------------------------------------


def _exact_wall_time(work, interval, ckpt, restart, mtbf) -> float:
    """The simulator's expected wall time, exactly (Daly's higher-order
    model, FGCS 22(3), 2006).  Failures are memoryless with mean ``mtbf``
    M; a failure sends a segment back to its start after a restart of R
    seconds, which a failure also restarts.  A segment of s seconds then
    takes M·e^{R/M}·(e^{s/M} − 1) in expectation.  Every interval but
    the last is followed by a checkpoint (s = τ + C); the last chunk is
    the rest of the work and takes none."""
    segments = math.ceil(work / interval)
    last = work - (segments - 1) * interval

    def expected(s: float) -> float:
        return mtbf * math.exp(restart / mtbf) * math.expm1(s / mtbf)

    return (segments - 1) * expected(interval + ckpt) + expected(last)


@st.composite
def _checkpointed_runs(draw):
    """(W, τ, C, R, M) in whole seconds, so each interval count is exact:
    intervals of M/20 to M, checkpoints up to τ/2, restarts up to M/2,
    and at least M/2 of work so that some runs fail."""
    mtbf = draw(st.integers(500, 10_000))
    interval = draw(st.integers(mtbf // 20, mtbf))
    ckpt = draw(st.integers(0, interval // 2))
    restart = draw(st.integers(0, mtbf // 2))
    work = draw(st.integers(max(interval, mtbf // 2), 12 * interval))
    return tuple(map(float, (work, interval, ckpt, restart, mtbf)))


class TestCheckpointedTraining:
    #: Seeds per generated run, and the bound on the z score of their
    #: mean wall time against the exact expectation.
    SEEDS, Z_BOUND = 200, 4.0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(run=_checkpointed_runs())
    def test_mean_wall_time_matches_the_exact_expectation(self, run):
        work, interval, ckpt, restart, mtbf = run
        walls = [
            simulate_checkpointed_training(
                work, interval, ckpt, restart, mtbf=mtbf, seed=seed
            ).wall_time
            for seed in range(self.SEEDS)
        ]
        mean = sum(walls) / self.SEEDS
        std = math.sqrt(sum((w - mean) ** 2 for w in walls) / (self.SEEDS - 1))
        z = (mean - _exact_wall_time(*run)) / (std / math.sqrt(self.SEEDS))
        assert abs(z) < self.Z_BOUND

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        run=_checkpointed_runs(),
        failures=st.lists(st.integers(0, 200_000), max_size=12),
        exponent=st.integers(-4, 4),
        seed=st.integers(0, 2**16),
    )
    def test_scaling_every_time_by_k_scales_the_run(self, run, failures, exponent, seed):
        """Scale W, τ, C, R and the failure instants (a ``FaultSchedule``
        or the MTBF) by k: every time in the report scales by k and the
        counts stay.  k is a power of two, so it holds bit for bit."""
        k = 2.0**exponent
        work, interval, ckpt, restart, mtbf = run

        def schedule(scale: float) -> FaultSchedule:
            return FaultSchedule(
                events=tuple(FaultEvent(time=scale * t, kind="step") for t in failures)
            )

        for base_kw, scaled_kw in (
            ({"faults": schedule(1.0)}, {"faults": schedule(k)}),
            ({"mtbf": mtbf, "seed": seed}, {"mtbf": k * mtbf, "seed": seed}),
        ):
            base = simulate_checkpointed_training(work, interval, ckpt, restart, **base_kw)
            scaled = simulate_checkpointed_training(
                k * work, k * interval, k * ckpt, k * restart, **scaled_kw
            )
            assert scaled == GoodputReport(
                work_target=k * base.work_target,
                wall_time=k * base.wall_time,
                checkpoint_time=k * base.checkpoint_time,
                restart_time=k * base.restart_time,
                lost_time=k * base.lost_time,
                failures=base.failures,
                checkpoints=base.checkpoints,
            )

    def test_matches_young_daly_at_optimal_interval(self):
        """§6.1: simulated goodput within 10% of the closed form."""
        mtbf, ckpt, restart = 7200.0, 60.0, 900.0
        interval = optimal_checkpoint_interval(ckpt, mtbf)
        predicted = goodput_fraction(ckpt, restart, mtbf, interval)
        report = simulate_checkpointed_training(
            400 * mtbf, interval, ckpt, restart, mtbf=mtbf, seed=42
        )
        assert report.failures > 100  # long enough to average out noise
        assert abs(report.goodput - predicted) / predicted < 0.10

    def test_wall_time_identity_and_determinism(self):
        mtbf = 500.0
        runs = [
            simulate_checkpointed_training(
                40 * mtbf, 200.0, 10.0, 50.0, mtbf=mtbf, seed=9
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        r = runs[0]
        total = r.work_target + r.checkpoint_time + r.restart_time + r.lost_time
        assert r.wall_time == pytest.approx(total, rel=1e-12)
        assert r.failures > 0 and r.lost_time > 0

    def test_failure_free_run(self):
        report = simulate_checkpointed_training(1000.0, 100.0, 5.0, 50.0)
        assert report.failures == 0
        assert report.checkpoints == 9  # the final chunk needs no checkpoint
        assert report.wall_time == pytest.approx(1000.0 + 9 * 5.0)
        assert report.goodput == pytest.approx(1000.0 / 1045.0)

    def test_explicit_step_schedule(self):
        faults = FaultSchedule(events=(FaultEvent(time=150.0, kind="step"),))
        report = simulate_checkpointed_training(1000.0, 100.0, 5.0, 20.0, faults=faults)
        assert report.failures == 1
        assert report.restart_time == 20.0
        # The failure lands mid-second-interval: work since the last
        # completed checkpoint is lost.
        assert report.lost_time > 0
        total = (
            report.work_target
            + report.checkpoint_time
            + report.restart_time
            + report.lost_time
        )
        assert report.wall_time == pytest.approx(total, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_checkpointed_training(0.0, 10.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_checkpointed_training(10.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_checkpointed_training(10.0, 5.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_checkpointed_training(10.0, 5.0, 1.0, 1.0, mtbf=0.0)
