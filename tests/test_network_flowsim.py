"""Flow-level simulator: max-min fairness and event simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    ENDPOINT_LINK,
    Flow,
    FlowSimulator,
    Topology,
    max_min_rates,
    two_layer_fat_tree,
)


def _line_topology(bandwidths):
    topo = Topology("line")
    topo.add_host("a")
    topo.add_switch("s0")
    topo.add_switch("s1")
    topo.add_host("b")
    names = ["a", "s0", "s1", "b"]
    for (x, y), bw in zip(zip(names[:-1], names[1:]), bandwidths):
        topo.add_link(x, y, bw, ENDPOINT_LINK)
    return topo


def test_flow_validation():
    with pytest.raises(ValueError):
        Flow("a", "b", -1.0, ["a", "b"])
    with pytest.raises(ValueError):
        Flow("a", "b", 1.0, ["a"])
    with pytest.raises(ValueError):
        Flow("a", "b", 1.0, ["b", "a"])


def test_single_flow_gets_bottleneck_bandwidth():
    topo = _line_topology([10e9, 5e9, 10e9])
    sim = FlowSimulator(topo)
    flow = Flow("a", "b", 5e9, ["a", "s0", "s1", "b"])
    result = sim.simulate([flow])
    assert result.rates[0] == pytest.approx(5e9)
    assert result.makespan == pytest.approx(1.0)


def test_two_flows_share_fairly():
    topo = _line_topology([10e9, 10e9, 10e9])
    sim = FlowSimulator(topo)
    flows = [
        Flow("a", "b", 10e9, ["a", "s0", "s1", "b"]),
        Flow("a", "b", 10e9, ["a", "s0", "s1", "b"]),
    ]
    result = sim.simulate(flows)
    assert result.rates[0] == pytest.approx(5e9)
    assert result.makespan == pytest.approx(2.0)


def test_short_flow_finishes_then_long_flow_speeds_up():
    topo = _line_topology([10e9, 10e9, 10e9])
    sim = FlowSimulator(topo)
    flows = [
        Flow("a", "b", 5e9, ["a", "s0", "s1", "b"]),  # done at t=1
        Flow("a", "b", 10e9, ["a", "s0", "s1", "b"]),  # 5 GB left, then 10GB/s
    ]
    result = sim.simulate(flows)
    assert result.completion[0] == pytest.approx(1.0)
    assert result.completion[1] == pytest.approx(1.5)


def test_opposite_directions_do_not_contend():
    topo = _line_topology([10e9, 10e9, 10e9])
    sim = FlowSimulator(topo)
    flows = [
        Flow("a", "b", 10e9, ["a", "s0", "s1", "b"]),
        Flow("b", "a", 10e9, ["b", "s1", "s0", "a"]),
    ]
    result = sim.simulate(flows)
    assert result.makespan == pytest.approx(1.0)


def test_latency_added_to_completion():
    topo = _line_topology([10e9, 10e9, 10e9])
    sim = FlowSimulator(topo)
    flow = Flow("a", "b", 10e9, ["a", "s0", "s1", "b"], latency=0.25)
    assert sim.simulate([flow]).completion[0] == pytest.approx(1.25)


def test_zero_size_flow_is_latency_only():
    topo = _line_topology([10e9, 10e9, 10e9])
    sim = FlowSimulator(topo)
    flow = Flow("a", "b", 0.0, ["a", "s0", "s1", "b"], latency=0.5)
    result = sim.simulate([flow])
    assert result.completion[0] == pytest.approx(0.5)


def test_unknown_edge_raises():
    topo = _line_topology([1e9, 1e9, 1e9])
    sim = FlowSimulator(topo)
    bad = Flow("a", "b", 1.0, ["a", "zz", "b"])
    with pytest.raises(KeyError):
        sim.simulate([bad])


def test_max_min_is_bottleneck_fair():
    # Classic example: two links; flow0 crosses both, flow1 only link A,
    # flow2 only link B.  Max-min: flow0 = 5, flow1 = 5, flow2 = 15.
    topo = Topology("y")
    for n in ("x", "y", "z"):
        topo.add_host(n)
    topo.add_link("x", "y", 10.0, ENDPOINT_LINK)
    topo.add_link("y", "z", 20.0, ENDPOINT_LINK)
    flows = {
        0: Flow("x", "z", 1.0, ["x", "y", "z"]),
        1: Flow("x", "y", 1.0, ["x", "y"]),
        2: Flow("y", "z", 1.0, ["y", "z"]),
    }
    caps = {("x", "y"): 10.0, ("y", "x"): 10.0, ("y", "z"): 20.0, ("z", "y"): 20.0}
    rates = max_min_rates(flows, caps)
    assert rates[0] == pytest.approx(5.0)
    assert rates[1] == pytest.approx(5.0)
    assert rates[2] == pytest.approx(15.0)


def test_mode_validation():
    topo = _line_topology([1e9, 1e9, 1e9])
    sim = FlowSimulator(topo)
    with pytest.raises(ValueError):
        sim.simulate([], mode="quantum")


def test_drain_mode_matches_event_for_symmetric_traffic():
    topo = two_layer_fat_tree(2, 4, 2, link_bandwidth=10e9)
    sim = FlowSimulator(topo)
    hosts = topo.hosts
    flows = []
    for s in hosts:
        for d in hosts:
            if s != d:
                path = min(topo.shortest_paths(s, d), key=len)
                flows.append(Flow(s, d, 1e9, path))
    event = sim.simulate(flows, mode="event")
    drain = sim.simulate(flows, mode="drain")
    assert drain.makespan == pytest.approx(event.makespan, rel=0.05)


def test_event_initial_rates_match_reference_solver():
    """The vectorized engine agrees with the dict-based definition."""
    import numpy as np

    rng = np.random.default_rng(11)
    topo = two_layer_fat_tree(2, 6, 2, link_bandwidth=25e9)
    hosts = topo.hosts
    flows = []
    for _ in range(40):
        s, d = rng.choice(hosts, size=2, replace=False)
        path = min(topo.shortest_paths(s, d), key=len)
        flows.append(Flow(s, d, float(rng.uniform(1e8, 1e9)), path))
    sim = FlowSimulator(topo)
    result = sim.simulate(flows)
    reference = max_min_rates(dict(enumerate(flows)), sim.capacities)
    assert set(result.rates) == set(reference)
    for idx, rate in reference.items():
        assert result.rates[idx] == pytest.approx(rate)


def test_large_all_to_all_wall_clock_regression():
    """500 flows across the fabric must simulate in seconds, not minutes.

    Before the incremental engine, every completion event re-solved the
    full allocation from dicts of sets — O(flows x links) per event,
    quadratic end to end — and the finished-flow rescan added another
    O(flows) pass per event.  The ceiling is deliberately generous (only
    a catastrophic regression trips it) but the pre-optimization code
    missed it by an order of magnitude.
    """
    import time

    import numpy as np

    rng = np.random.default_rng(2)
    topo = two_layer_fat_tree(4, 8, 4, link_bandwidth=40e9)
    hosts = topo.hosts
    flows = []
    for _ in range(500):
        s, d = rng.choice(hosts, size=2, replace=False)
        path = min(topo.shortest_paths(s, d), key=len)
        flows.append(Flow(s, d, float(rng.uniform(1e8, 1e9)), path))
    sim = FlowSimulator(topo)
    start = time.perf_counter()
    first = sim.simulate(flows)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"event mode took {elapsed:.1f}s for 500 flows"
    assert len(first.completion) == len(flows)
    # Determinism: a fresh simulator reproduces the run exactly.
    second = FlowSimulator(topo).simulate(flows)
    assert second.makespan == first.makespan
    assert second.completion == first.completion
    assert second.rates == first.rates


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.floats(1e6, 1e9), min_size=1, max_size=6),
    bw=st.floats(1e9, 100e9),
)
def test_conservation_single_link(sizes, bw):
    """All flows on one link: makespan == total bytes / capacity."""
    topo = Topology("one")
    topo.add_host("a")
    topo.add_host("b")
    topo.add_link("a", "b", bw, ENDPOINT_LINK)
    sim = FlowSimulator(topo)
    flows = [Flow("a", "b", s, ["a", "b"]) for s in sizes]
    result = sim.simulate(flows)
    assert result.makespan == pytest.approx(sum(sizes) / bw, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 50))
def test_rates_never_exceed_capacity(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    topo = two_layer_fat_tree(2, 2, 2, link_bandwidth=10e9)
    hosts = topo.hosts
    flows = {}
    for i in range(6):
        s, d = rng.choice(hosts, size=2, replace=False)
        path = min(topo.shortest_paths(s, d), key=len)
        flows[i] = Flow(s, d, 1e9, path)
    sim = FlowSimulator(topo)
    rates = max_min_rates(flows, sim.capacities)
    per_edge: dict = {}
    for i, f in flows.items():
        for e in f.edges:
            per_edge[e] = per_edge.get(e, 0.0) + rates[i]
    for e, total in per_edge.items():
        assert total <= sim.capacities[e] * (1 + 1e-6)


# -- warm-started re-solves ------------------------------------------------

_LEAVES, _HOSTS, _SPINES = 3, 3, 2
# A few sizes only, so shares and finish times tie; zero-size flows are
# latency-only and never enter the engine.
_SIZES = (0.0, 1e6, 2e6, 3e6, 4e6)


def _spine0_flows(picks):
    """Flows on a 3x3 fat tree from ``(src, dst, size index)`` picks.

    Same-leaf pairs stay under their leaf (one component per leaf);
    cross-leaf pairs all cross ``spine0``, coupling the leaves they
    touch.  ``spine1`` carries nothing.
    """
    flows = []
    for src, dst, size in picks:
        if src == dst:
            dst = (dst + 1) % (_LEAVES * _HOSTS)
        s, d = f"h{src}", f"h{dst}"
        ls, ld = f"FT2/leaf{src // _HOSTS}", f"FT2/leaf{dst // _HOSTS}"
        path = [s, ls, d] if ls == ld else [s, ls, "FT2/spine0", ld, d]
        flows.append(Flow(s, d, _SIZES[size], path))
    return flows


_picks = st.lists(
    st.tuples(
        st.integers(0, _LEAVES * _HOSTS - 1),
        st.integers(0, _LEAVES * _HOSTS - 1),
        st.integers(0, len(_SIZES) - 1),
    ),
    min_size=1,
    max_size=40,
)


def _saved_state(comp):
    """A component's resume state, as bytes for exact comparison."""
    logged = comp.round_start[comp.rounds]
    return (
        comp.solved.tobytes(),
        comp.freeze[comp.solved].tobytes(),
        comp.rounds,
        comp.round_start[: comp.rounds + 1].tobytes(),
        comp.log_link[:logged].tobytes(),
        comp.log_cap[:logged].tobytes(),
        comp.log_prev[:logged].tobytes(),
        comp.last.tobytes(),
    )


@settings(max_examples=60, deadline=None)
@given(picks=_picks, time_epsilon=st.sampled_from([0.0, 0.02]))
def test_warm_resolve_is_bit_identical_to_cold(picks, time_epsilon):
    """Every re-solve, cleared and redone cold, yields the same bits."""
    from unittest import mock

    from repro.network.flowsim import _EventEngine

    solve = _EventEngine.solve_component
    calls = []

    def checked(engine, comp):
        solve(engine, comp)
        ids = comp.flows[engine.active[comp.flows]]
        warm = (
            engine.rates[ids].tobytes(),
            engine.link_load[comp.links].tobytes(),
            _saved_state(comp) if len(ids) else None,
        )
        comp.solved = None
        solve(engine, comp)
        cold = (
            engine.rates[ids].tobytes(),
            engine.link_load[comp.links].tobytes(),
            _saved_state(comp) if len(ids) else None,
        )
        assert warm == cold
        assert comp.round_start[comp.rounds] <= len(comp.flat)
        assert comp.rounds <= len(comp.flows)
        calls.append(comp)

    flows = _spine0_flows(picks)
    topo = two_layer_fat_tree(_LEAVES, _HOSTS, _SPINES, link_bandwidth=10e9)
    with mock.patch.object(_EventEngine, "solve_component", checked):
        result = FlowSimulator(topo).simulate(flows, time_epsilon=time_epsilon)
    reference = FlowSimulator(topo).simulate(flows, time_epsilon=time_epsilon)
    assert result.completion == reference.completion
    assert len(calls) >= (1 if any(f.size for f in flows) else 0)


def test_ring_resolves_resume_near_their_last_round():
    """On a coupled shifted ring, re-solves refill only a few flows.

    The first progressive-filling call of each re-solve runs over the
    flows still unfrozen at the resume round; summed over the run it
    must be a small fraction of the active flows a cold re-solve would
    refill.
    """
    from unittest import mock

    from repro.network import shifted_ring_flows
    from repro.network import flowsim

    topo = two_layer_fat_tree(4, 8, 4)
    flows = shifted_ring_flows(topo, range(1, 8), 64e6)
    solve = flowsim._EventEngine.solve_component
    gather = flowsim._ragged_rows
    refilled, active = [], []

    def spy(engine, comp):
        rows = []

        def counted(flat, off, sel):
            rows.append(len(sel))
            return gather(flat, off, sel)

        with mock.patch.object(flowsim, "_ragged_rows", counted):
            solve(engine, comp)
        if rows:  # the last re-solve finds no active flow
            refilled.append(rows[0])
            active.append(int(engine.active[comp.flows].sum()))

    with mock.patch.object(flowsim._EventEngine, "solve_component", spy):
        FlowSimulator(topo).simulate(flows)
    assert len(refilled) > 10
    assert refilled[0] == active[0] == len(flows)  # the first solve is cold
    assert sum(refilled[1:]) < 0.1 * sum(active[1:])


@settings(max_examples=25, deadline=None)
@given(
    picks=_picks,
    faults=st.lists(
        st.tuples(
            st.sampled_from(["link", "switch"]),
            st.floats(0.05, 0.95),
            st.sampled_from([0.1, 0.3, float("inf")]),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_fault_runner_agrees_with_event_engine_on_idle_faults(picks, faults):
    """Differential oracle: the fault-timeline runner, built on the
    ``max_min_rates`` reference, against the event engine, under
    failures of ``spine1``, which no flow crosses."""
    from repro.faults import FaultEvent, FaultSchedule, link_target

    flows = _spine0_flows(picks)
    topo = two_layer_fat_tree(_LEAVES, _HOSTS, _SPINES, link_bandwidth=10e9)
    plain = FlowSimulator(topo).simulate(flows)
    horizon = max(plain.makespan, 1e-6)
    events = tuple(
        FaultEvent(
            time=at * horizon,
            kind=kind,
            target=(
                link_target(f"FT2/leaf{i % _LEAVES}", "FT2/spine1")
                if kind == "link"
                else "FT2/spine1"
            ),
            mttr=mttr * horizon,
        )
        for i, (kind, at, mttr) in enumerate(faults)
    )
    sim = FlowSimulator(topo)
    faulty = sim.simulate(flows, faults=FaultSchedule(events=events))
    assert sim.fault_report.stalled == ()
    assert sim.fault_report.unfinished == ()
    assert set(faulty.completion) == set(plain.completion)
    for idx, t in plain.completion.items():
        assert faulty.completion[idx] == pytest.approx(t, rel=1e-9)
    assert faulty.makespan == pytest.approx(plain.makespan, rel=1e-9)
