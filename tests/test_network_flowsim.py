"""Flow-level simulator: max-min fairness and event simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    ENDPOINT_LINK,
    Flow,
    FlowSimulator,
    Topology,
    equal_cost_paths,
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
    # A NaN size fails both ``size > 0`` and ``size == 0``, so event mode
    # would silently drop the flow (empty ``completion``, makespan 0).
    nan, inf = float("nan"), float("inf")
    for size, latency in ((nan, 0.0), (inf, 0.0), (1.0, nan), (1.0, inf), (1.0, -1e-6)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Flow("a", "b", size, ["a", "b"], latency=latency)


def test_flow_path_must_not_repeat_a_node():
    """A looping path crosses ``(leaf0, h1)`` twice: the engine would
    charge it twice (25e9 B/s) where :func:`max_min_rates` gives 50e9."""
    with pytest.raises(ValueError, match="repeat a node"):
        Flow("h0", "h1", 1e6, ["h0", "FT2/leaf0", "h1", "FT2/leaf0", "h1"])
    with pytest.raises(ValueError, match="repeat a node"):
        Flow("h0", "h1", 1e6, ["h0", "FT2/leaf0", "h0", "FT2/leaf0", "h1"])


@pytest.mark.parametrize("mode", ["event", "drain"])
@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-9])
def test_simulate_rejects_bad_time_epsilon(mode, eps):
    """A NaN ``time_epsilon`` makes the completion horizon NaN, so no
    flow ever finishes and event mode would spin forever."""
    from unittest import mock

    from repro.network import flowsim, shifted_ring_flows

    topo = two_layer_fat_tree(2, 2, 2)
    flows = shifted_ring_flows(topo, [1], 64e6)
    with mock.patch.object(flowsim, "_EventEngine") as engine:
        with pytest.raises(ValueError, match="time_epsilon"):
            FlowSimulator(topo).simulate(flows, time_epsilon=eps, mode=mode)
    engine.assert_not_called()


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
    for mode in ("quantum", "fixed"):
        with pytest.raises(ValueError, match="unknown mode"):
            sim.simulate([], mode=mode)


def test_drain_mode_matches_event_for_symmetric_traffic():
    topo = two_layer_fat_tree(2, 4, 2, link_bandwidth=10e9)
    sim = FlowSimulator(topo)
    hosts = topo.hosts
    flows = []
    for s in hosts:
        for d in hosts:
            if s != d:
                path = equal_cost_paths(topo, s, d)[0]
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
        path = equal_cost_paths(topo, s, d)[0]
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
        path = equal_cost_paths(topo, s, d)[0]
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
        path = equal_cost_paths(topo, s, d)[0]
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


@settings(max_examples=80, deadline=None)
@given(picks=_picks)
def test_initial_rates_match_reference_solver_under_ties(picks):
    """Oracle over tie-heavy traffic: few distinct sizes, one shared
    spine, same-leaf and cross-leaf pairs.  Every initial engine rate
    equals the dict-based :func:`max_min_rates` to 1e-9 relative."""
    flows = _spine0_flows(picks)
    topo = two_layer_fat_tree(_LEAVES, _HOSTS, _SPINES, link_bandwidth=10e9)
    sim = FlowSimulator(topo)
    result = sim.simulate(flows)
    sized = {i: f for i, f in enumerate(flows) if f.size > 0}
    reference = max_min_rates(sized, sim.capacities)
    assert set(result.rates) == set(reference)
    for idx, rate in reference.items():
        assert result.rates[idx] == pytest.approx(rate, rel=1e-9)


def _saved_state(comp):
    """A component's active and resume state, in a form compared
    exactly (floats by repr, so bit for bit)."""
    return repr(
        (
            comp.on,
            comp.live,
            [comp.freeze[f] for f, on in enumerate(comp.on) if on],
            comp.touched,
            comp.frozen,
            comp.hist,
        )
    )


@settings(max_examples=60, deadline=None)
@given(picks=_picks, time_epsilon=st.sampled_from([0.0, 0.02]))
def test_warm_resolve_is_bit_identical_to_cold(picks, time_epsilon):
    """Every re-solve, rewound to round 0 and redone cold, yields the
    same bits: rates, link loads and the saved state."""
    from unittest import mock

    from repro.network.flowsim import _EventEngine

    solve = _EventEngine.solve_component
    calls = []

    def checked(engine, comp, gone=()):
        solve(engine, comp, gone)
        ids = comp.flows[engine.active[comp.flows]]
        warm = (
            engine.rates[ids].tobytes(),
            engine.link_load[comp.links].tobytes(),
            _saved_state(comp) if len(ids) else None,
        )
        comp.rewind(0)  # drop every round: the next solve starts cold
        solve(engine, comp)
        cold = (
            engine.rates[ids].tobytes(),
            engine.link_load[comp.links].tobytes(),
            _saved_state(comp) if len(ids) else None,
        )
        assert warm == cold
        assert comp.live == len(ids)
        # The history holds one entry per (round, link it touched) on
        # top of each link's capacity: never more than the incidence.
        assert sum(len(h) - 1 for h in comp.hist) <= len(comp.flat)
        assert len(comp.frozen) <= len(comp.flows)
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

    Each re-solve rewinds to its resume round and refills the active
    flows frozen from there on; summed over the run they must be a
    small fraction of the active flows a cold re-solve would refill.
    """
    from unittest import mock

    from repro.network import shifted_ring_flows
    from repro.network import flowsim

    topo = two_layer_fat_tree(4, 8, 4)
    flows = shifted_ring_flows(topo, range(1, 8), 64e6)
    rewind = flowsim._Component.rewind
    refilled, active = [], []

    def spy(comp, k):
        rest = rewind(comp, k)
        refilled.append(len(rest))
        active.append(comp.live)
        return rest

    with mock.patch.object(flowsim._Component, "rewind", spy):
        FlowSimulator(topo).simulate(flows)
    assert len(refilled) > 10
    assert refilled[0] == active[0] == len(flows)  # the first solve is cold
    assert sum(refilled[1:]) < 0.1 * sum(active[1:])


def _leaf_local_flows(leaves, hosts_per_leaf):
    """Leaf-local all-to-all of distinct random sizes on a fat tree with
    ``leaves`` leaves: one independent component per leaf."""
    import numpy as np

    rng = np.random.default_rng(0)
    flows = []
    for leaf in range(leaves):
        hosts = [f"h{leaf * hosts_per_leaf + i}" for i in range(hosts_per_leaf)]
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    path = [src, f"FT2/leaf{leaf}", dst]
                    flows.append(Flow(src, dst, float(rng.uniform(64e6, 512e6)), path))
    return flows


def test_leaf_completions_resolve_only_their_component():
    """Leaf-local all-to-all on 4 leaves x 8 hosts: 224 flows of distinct
    sizes in 4 independent components.  The first allocation solves each
    component once, and each completion re-solves only the component that
    lost the flow: 4 + 224 = 228 solves.  Re-solving every component at
    every completion would take 900 and change no completion time."""
    from unittest import mock

    from repro.network import flowsim

    leaves, hosts_per_leaf = 4, 8
    topo = two_layer_fat_tree(leaves, hosts_per_leaf, 4)
    flows = _leaf_local_flows(leaves, hosts_per_leaf)
    solve = mock.Mock(wraps=flowsim._EventEngine.solve_component)
    # A Mock does not bind as a method, so the patch passes the engine on.
    with mock.patch.object(
        flowsim._EventEngine,
        "solve_component",
        lambda engine, comp, gone=(): solve(engine, comp, gone),
    ):
        result = FlowSimulator(topo).simulate(flows)
    assert len(result.completion) == len(flows) == 224
    assert len({id(call.args[1]) for call in solve.call_args_list}) == leaves
    assert solve.call_count == leaves + len(flows) == 228


@pytest.mark.parametrize(
    "time_epsilon, refilled, rounds", [(1e-9, 4047, 669), (0.25, 3677, 623)]
)
def test_leaf_resolves_get_exactly_the_flows_that_finished(time_epsilon, refilled, rounds):
    """Every ``gone`` the event loop hands a component is the set of its
    flows that completed at that event: the flows active at its last
    solve and inactive now, which all share one completion time that no
    other flow of the component has; every flow is handed over once.
    The coarse ``time_epsilon`` groups completions, so some events hand
    over several flows.  The flows the resumed fills refill and their
    rounds over the run are pinned exactly."""
    from unittest import mock

    import numpy as np

    from repro.network import flowsim

    leaves, hosts_per_leaf = 4, 8
    topo = two_layer_fat_tree(leaves, hosts_per_leaf, 4)
    flows = _leaf_local_flows(leaves, hosts_per_leaf)
    solve = flowsim._EventEngine.solve_component
    fill = flowsim._Component.fill
    last_active = {}  # id(component) -> engine flows active at its last solve
    handed = []  # (engine, component, global ids of gone)
    work = {"refilled": 0, "rounds": 0}

    def spy_solve(engine, comp, gone=()):
        now_active = engine.active[comp.flows]
        before = last_active.get(id(comp), np.ones(len(comp.flows), dtype=bool))
        assert sorted(gone) == np.flatnonzero(before & ~now_active).tolist()
        assert len(set(gone)) == len(gone)
        handed.append((engine, comp, comp.flows[list(gone)]))
        last_active[id(comp)] = now_active
        solve(engine, comp, gone)

    def spy_fill(comp, rest):
        rounds = len(comp.frozen)
        out = fill(comp, rest)
        work["refilled"] += len(rest)
        work["rounds"] += len(comp.frozen) - rounds
        return out

    with mock.patch.object(flowsim._EventEngine, "solve_component", spy_solve), \
            mock.patch.object(flowsim._Component, "fill", spy_fill):
        result = FlowSimulator(topo).simulate(flows, time_epsilon=time_epsilon)
    assert [len(ids) for _, _, ids in handed[:leaves]] == [0] * leaves
    assert sum(len(ids) for _, _, ids in handed) == len(flows)
    assert (max(len(ids) for _, _, ids in handed) > 1) == (time_epsilon > 0.1)
    for engine, comp, ids in handed[leaves:]:
        assert len(ids)
        times = {result.completion[engine.flow_ids[e]] for e in ids.tolist()}
        assert len(times) == 1
        (at,) = times
        same = {e for e in comp.flows.tolist() if result.completion[engine.flow_ids[e]] == at}
        assert same == set(ids.tolist())
    assert work == {"refilled": refilled, "rounds": rounds}


def _scenario(name):
    """The leaf-local (independent components) or shifted-ring (one
    coupled component) scenario on a 4 x 8 fat tree."""
    from repro.network import shifted_ring_flows

    topo = two_layer_fat_tree(4, 8, 4)
    if name == "leaf":
        return topo, _leaf_local_flows(4, 8)
    return topo, shifted_ring_flows(topo, range(1, 8), 64e6)


@pytest.mark.parametrize("scenario", ["leaf", "ring"])
def test_link_loads_equal_a_full_bincount_after_every_solve(scenario):
    """Whether a solve refilled flows or only dropped finished ones, the
    component's link loads are bit-equal to one ``bincount`` of the
    active finite rates over its whole incidence."""
    from unittest import mock

    import numpy as np

    from repro.network import flowsim

    topo, flows = _scenario(scenario)
    solve = flowsim._EventEngine.solve_component
    checked = {"solves": 0, "refill-free": 0}

    def spy(engine, comp, gone=()):
        fills = len(comp.frozen)
        solve(engine, comp, gone)
        weights = engine.rates[comp.flows]
        weights[~(engine.active[comp.flows] & np.isfinite(weights))] = 0.0
        full = np.bincount(comp.flat, weights=weights[comp.own], minlength=len(comp.links))
        assert engine.link_load[comp.links].tobytes() == full.tobytes()
        checked["solves"] += 1
        checked["refill-free"] += bool(gone) and len(comp.frozen) <= fills

    with mock.patch.object(flowsim._EventEngine, "solve_component", spy):
        FlowSimulator(topo).simulate(flows)
    assert checked["solves"] > 30
    assert checked["refill-free"] > 0


def test_ring_fills_only_on_its_first_solve():
    """On the flowsim-ep benchmark ring (8 leaves x 16 hosts, 15 shifts),
    every re-solve after a completion drops rounds that froze only
    finished flows, so nothing is refilled and the fill is skipped: one
    fill in 202 solves (without the skip: 201 fills, 200 of them with
    nothing to refill)."""
    from unittest import mock

    from repro.network import flowsim, shifted_ring_flows

    topo = two_layer_fat_tree(8, 16, 8)
    flows = shifted_ring_flows(topo, range(1, 16), 64e6)
    fill, solve = flowsim._Component.fill, flowsim._EventEngine.solve_component
    calls = {"fill": 0, "solve": 0}

    def spy_fill(comp, rest):
        calls["fill"] += 1
        return fill(comp, rest)

    def spy_solve(engine, comp, gone=()):
        calls["solve"] += 1
        return solve(engine, comp, gone)

    with mock.patch.object(flowsim._Component, "fill", spy_fill), \
            mock.patch.object(flowsim._EventEngine, "solve_component", spy_solve):
        FlowSimulator(topo).simulate(flows)
    assert calls == {"fill": 1, "solve": 202}


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
    """Metamorphic relation: failures of ``spine1``, which no flow
    crosses, leave every completion where the fault-free run put it."""
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
    assert faulty.fault_report.stalled == ()
    assert faulty.fault_report.unfinished == ()
    assert set(faulty.completion) == set(plain.completion)
    for idx, t in plain.completion.items():
        assert faulty.completion[idx] == pytest.approx(t, rel=1e-9)
    assert faulty.makespan == pytest.approx(plain.makespan, rel=1e-9)


# -- fault timelines -------------------------------------------------------


def test_schedule_without_network_events_is_byte_identical():
    """A schedule with no link/switch events is the fault-free run."""
    import numpy as np

    from repro.faults import FaultEvent, FaultSchedule

    rng = np.random.default_rng(5)
    topo = two_layer_fat_tree(4, 8, 4, link_bandwidth=10e9)
    hosts = topo.hosts
    flows = []
    for _ in range(300):
        s, d = rng.choice(hosts, size=2, replace=False)
        path = equal_cost_paths(topo, s, d)[0]
        flows.append(Flow(s, d, float(rng.uniform(1e6, 1e8)), path))
    sim = FlowSimulator(topo)
    plain = sim.simulate(flows)
    empty = sim.simulate(flows, faults=FaultSchedule())
    gpu_only = FaultSchedule(events=(FaultEvent(time=1e-4, kind="gpu", target="0"),))
    result = sim.simulate(flows, faults=gpu_only)
    assert result.completion == plain.completion
    assert result.makespan == plain.makespan
    assert result.rates == plain.rates
    assert result.fault_report == empty.fault_report == plain.fault_report is None


def test_reroute_policy_called_once_per_broken_flow_per_boundary():
    """Completions during an outage do not re-ask the policy."""
    from repro.faults import FaultEvent, FaultSchedule

    topo = two_layer_fat_tree(_LEAVES, _HOSTS, _SPINES, link_bandwidth=10e9)
    # Three flows cross spine0; nine same-leaf flows of staggered
    # sizes keep completing while spine0 is down.
    picks = [(0, 3, 4), (1, 7, 4), (5, 8, 4)]
    picks += [(h, h // _HOSTS * _HOSTS + (h + 1) % _HOSTS, 1 + h % 4) for h in range(9)]
    flows = _spine0_flows(picks)
    crossing = {i for i, f in enumerate(flows) if "FT2/spine0" in f.path}
    assert len(crossing) == 3
    calls = []

    def policy(flow, capacities):
        calls.append(next(i for i, f in enumerate(flows) if f is flow))
        return None

    down_at, mttr = 1e-5, 1e-3
    schedule = FaultSchedule(
        events=(
            FaultEvent(time=down_at, kind="switch", target="FT2/spine0", mttr=mttr),
        )
    )
    sim = FlowSimulator(topo)
    result = sim.simulate(flows, faults=schedule, reroute=policy)
    during = [
        t for i, t in result.completion.items()
        if i not in crossing and down_at < t < down_at + mttr
    ]
    assert len(during) >= 3  # completions while the crossing flows are broken
    assert sorted(calls) == sorted(crossing)
    assert result.fault_report.stalled == tuple(sorted(crossing))
    assert result.fault_report.unfinished == ()


def _reference_fault_run(topo, flows, events, reroute):
    """Cold ``max_min_rates`` over the flows with a live path, re-solved
    at every completion and every failure/repair boundary."""
    import math

    from repro.faults.network import _edges_of

    caps = FlowSimulator(topo).capacities
    timeline = sorted(
        [(e.time, 0, e) for e in events]
        + [(e.time + e.mttr, 1, e) for e in events if math.isfinite(e.mttr)],
        key=lambda entry: entry[:2],
    )
    down: dict = {}
    current = {i: f for i, f in enumerate(flows) if f.size > 0}
    left = {i: f.size for i, f in current.items()}
    done = {i: f.latency for i, f in enumerate(flows) if f.size == 0}
    rerouted, stalled = set(), set()
    now = 0.0
    while left:
        while timeline and timeline[0][0] <= now:
            _, repair, event = timeline.pop(0)
            for edge in _edges_of(event, topo, caps):
                down[edge] = down.get(edge, 0) + (-1 if repair else 1)
        alive = {e: c for e, c in caps.items() if not down.get(e)}
        live = {}
        for i in left:
            if any(down.get(e) for e in current[i].edges):
                path = reroute(flows[i], alive) if reroute else None
                if path is None:
                    stalled.add(i)
                    continue
                current[i] = Flow(flows[i].src, flows[i].dst, flows[i].size, path)
                rerouted.add(i)
            live[i] = current[i]
        rates = max_min_rates(live, caps)
        times = {i: left[i] / rates[i] for i in live}
        step = min(times.values(), default=math.inf)
        boundary = timeline[0][0] if timeline else math.inf
        if boundary - now <= step:
            step = boundary - now
        if step == math.inf:
            done.update(dict.fromkeys(left, math.inf))
            break
        for i, t in times.items():
            if t <= step * (1 + 1e-9):
                done[i] = now + step + flows[i].latency
                del left[i]
            else:
                left[i] -= rates[i] * step
        now = boundary if step == boundary - now else now + step
    return done, rerouted, stalled


def _spine_reroute(flow, capacities):
    """Detour a cross-leaf flow over the first spine it can fully use."""
    s, ls, _, ld, d = flow.path
    for k in range(_SPINES):
        path = [s, ls, f"FT2/spine{k}", ld, d]
        if all(edge in capacities for edge in zip(path[:-1], path[1:])):
            return path
    return None


@settings(max_examples=40, deadline=None)
@given(
    picks=_picks,
    faults=st.lists(
        st.tuples(
            st.sampled_from(["link", "switch"]),
            st.integers(0, _SPINES - 1),
            st.integers(0, _LEAVES - 1),
            st.floats(0.05, 0.95),
            st.sampled_from([0.1, 0.3, float("inf")]),
        ),
        min_size=1,
        max_size=3,
    ),
    with_reroute=st.booleans(),
)
def test_fault_timeline_matches_cold_reference(picks, faults, with_reroute):
    """Differential oracle: the event loop under link/switch faults on
    used spines, against a cold max-min re-solve at every event."""
    import math

    from repro.faults import FaultEvent, FaultSchedule, link_target

    flows = _spine0_flows(picks)
    topo = two_layer_fat_tree(_LEAVES, _HOSTS, _SPINES, link_bandwidth=10e9)
    horizon = max(FlowSimulator(topo).simulate(flows).makespan, 1e-6)
    events = tuple(
        FaultEvent(
            time=at * horizon,
            kind=kind,
            target=(
                link_target(f"FT2/leaf{leaf}", f"FT2/spine{spine}")
                if kind == "link"
                else f"FT2/spine{spine}"
            ),
            mttr=mttr * horizon,
        )
        for kind, spine, leaf, at, mttr in faults
    )
    reroute = _spine_reroute if with_reroute else None
    sim = FlowSimulator(topo)
    result = sim.simulate(flows, faults=FaultSchedule(events=events), reroute=reroute)
    done, rerouted, stalled = _reference_fault_run(topo, flows, events, reroute)
    report = result.fault_report
    assert report.events == len(events)
    assert set(report.rerouted) == rerouted
    assert set(report.stalled) == stalled
    assert set(report.unfinished) == {i for i, t in done.items() if t == math.inf}
    assert set(result.completion) == set(done)
    for idx, t in done.items():
        assert result.completion[idx] == pytest.approx(t, rel=1e-9)


# -- metamorphic: time scaling ---------------------------------------------


def _scaled_flows(pattern: str, k: float):
    """A leaf-local or shifted-ring flow set on a fat tree whose link
    capacities are ``k`` times the base, with every startup latency
    divided by ``k``."""
    import numpy as np

    from repro.network import shifted_ring_flows

    topo = two_layer_fat_tree(4, 6, 3, link_bandwidth=10e9 * k)
    if pattern == "ring":
        flows = shifted_ring_flows(topo, range(1, 6), 32e6)
        latencies = [(2 + i % 5) * 1e-6 for i in range(len(flows))]
    else:
        rng = np.random.default_rng(3)
        flows = []
        for leaf in range(4):
            hosts = [f"h{leaf * 6 + i}" for i in range(6)]
            for src in hosts:
                for dst in hosts:
                    if src != dst:
                        path = [src, f"FT2/leaf{leaf}", dst]
                        flows.append(Flow(src, dst, float(rng.uniform(8e6, 64e6)), path))
        latencies = [float(x) for x in rng.uniform(1e-6, 5e-6, len(flows))]
    return topo, [
        Flow(f.src, f.dst, f.size, f.path, latency=lat / k, tag=f.tag)
        for f, lat in zip(flows, latencies)
    ]


def _scaled_faults(pattern: str, k: float):
    """Link faults the flow set crosses: a leaf-spine link for the ring
    (flows reroute or stall) and a host link for the leaf pattern, with
    failure and repair times divided by ``k``."""
    from repro.faults import FaultEvent, FaultSchedule, link_target

    if pattern == "ring":
        events = (
            FaultEvent(time=2e-3 / k, kind="link",
                       target=link_target("FT2/leaf0", "FT2/spine0"), mttr=4e-3 / k),
            FaultEvent(time=5e-3 / k, kind="switch", target="FT2/spine1", mttr=3e-3 / k),
        )
    else:
        events = (
            FaultEvent(time=1e-3 / k, kind="link",
                       target=link_target("h0", "FT2/leaf0"), mttr=2e-3 / k),
        )
    return FaultSchedule(events=events)


@pytest.mark.parametrize("pattern", ["leaf", "ring"])
@pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "faults"])
@pytest.mark.parametrize("k", [2.0, 3.0, 0.4])
def test_scaling_capacities_and_latencies_scales_time(pattern, faulted, k):
    """Metamorphic relation: k times the link capacity and 1/k of every
    startup latency (and of every fault time) is the same run on a
    clock k times faster, so every completion time and the makespan
    divide by k."""
    results = []
    for scale in (1.0, k):
        topo, flows = _scaled_flows(pattern, scale)
        faults = _scaled_faults(pattern, scale) if faulted else None
        reroute = _spine_reroute if faulted and pattern == "ring" else None
        results.append(FlowSimulator(topo).simulate(flows, faults=faults, reroute=reroute))
    base, scaled = results
    assert base.completion and set(scaled.completion) == set(base.completion)
    for idx, t in base.completion.items():
        assert scaled.completion[idx] == pytest.approx(t / k, rel=1e-9)
    assert scaled.makespan == pytest.approx(base.makespan / k, rel=1e-9)
