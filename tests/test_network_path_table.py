"""The equal-cost path table: one BFS per source, the same paths as
networkx, and the same flows from every builder that routes with it."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    DragonflyParams,
    Flow,
    NoPathError,
    RoutingPolicy,
    all_to_all_flows,
    build_dragonfly,
    build_mpft_cluster,
    build_mrft_cluster,
    build_slimfly,
    collision_free_static_table,
    ecmp_index,
    equal_cost_path_table,
    equal_cost_paths,
    flat_ring_allreduce_time,
    path_latency,
    pxn_path,
    ring_collective_flows,
    route_flows,
    run_hierarchical_allreduce,
    shifted_ring_flows,
    three_layer_fat_tree,
    two_layer_fat_tree,
)
from repro.network import routing
from repro.network.collectives import transfer_flows
from repro.network.multiplane import pxn_relay

from .graph_oracle import to_networkx

#: Small instances of every topology family the repo builds.
TOPOLOGIES = {
    "ft2": lambda: two_layer_fat_tree(3, 2, 2),
    "ft3": lambda: three_layer_fat_tree(4),
    "dragonfly": lambda: build_dragonfly(DragonflyParams(p=1, a=3, h=1, g=4)),
    "slimfly": lambda: build_slimfly(5, with_hosts=False),
    "mpft": lambda: build_mpft_cluster(2, nodes_per_leaf=1).topology,
    "mrft": lambda: build_mrft_cluster(2, nodes_per_leaf=1).topology,
}


def _reference_paths(graph, src, dst):
    """One ``nx.all_shortest_paths`` search per pair, or None where
    networkx refuses the pair."""
    try:
        return sorted(nx.all_shortest_paths(graph, src, dst))
    except nx.NetworkXException:
        return None


@st.composite
def _table_cases(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[name]()
    if draw(st.booleans()):
        topo.add_host("island")  # a second component: unreachable from the rest
    nodes = sorted(topo.graph.nodes)
    node = st.one_of(st.sampled_from(nodes), st.just("ghost"))
    sources = draw(st.lists(node, min_size=1, max_size=4))  # few sources: many repeats
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(sources), node)
            | st.sampled_from(sources).map(lambda s: (s, s)),
            min_size=1,
            max_size=12,
        )
    )
    return topo, pairs


@settings(max_examples=60, deadline=None)
@given(case=_table_cases())
def test_table_equals_one_networkx_search_per_pair(case):
    """Each entry is ``sorted(nx.all_shortest_paths(...))``; the walk is
    by source in first-appearance order, and it stops with ``NoPathError``
    at the first pair networkx refuses (networkx raises ``NodeNotFound``
    or ``NetworkXNoPath`` there)."""
    topo, pairs = case
    graph = to_networkx(topo)
    expected = [_reference_paths(graph, src, dst) for src, dst in pairs]
    sources = list(dict.fromkeys(src for src, _ in pairs))
    walk = [i for src in sources for i, pair in enumerate(pairs) if pair[0] == src]
    failure = next((i for i in walk if expected[i] is None), None)
    entries = []
    raised = None
    try:
        for index, paths in equal_cost_path_table(topo, pairs):
            entries.append((index, paths))
    except NoPathError as exc:
        raised = exc
    stop = len(walk) if failure is None else walk.index(failure)
    assert [index for index, _ in entries] == walk[:stop]
    assert all(paths == expected[index] for index, paths in entries)
    if failure is None:
        assert raised is None
    else:
        src, dst = pairs[failure]
        assert f"no path {src} -> {dst}" in str(raised)


def test_table_runs_one_bfs_per_distinct_source(monkeypatch):
    calls = _count_bfs(monkeypatch)
    topo = two_layer_fat_tree(2, 2, 2)
    pairs = [("h0", "h3"), ("h1", "h2"), ("h0", "h2"), ("h0", "h0"), ("h1", "h3")]
    table = dict(equal_cost_path_table(topo, pairs))
    assert calls == ["h0", "h1"]
    assert table[3] == [["h0"]]
    assert table[0] == [["h0", "FT2/leaf0", f"FT2/spine{s}", "FT2/leaf1", "h3"] for s in (0, 1)]


def test_no_path_error_names_the_pair():
    """A missing source, a missing destination and an unreachable one
    each raise ``NoPathError`` (a ``LookupError``) naming the pair."""
    topo = two_layer_fat_tree(2, 2, 2)
    topo.add_host("island")
    for src, dst in [("ghost", "h0"), ("h0", "ghost"), ("h0", "island")]:
        with pytest.raises(NoPathError, match=f"no path {src} -> {dst}"):
            equal_cost_paths(topo, src, dst)
    assert issubclass(NoPathError, LookupError)


def _count_bfs(monkeypatch) -> list:
    """Record the source of every BFS the path table runs."""
    calls = []
    predecessors = routing._predecessors

    def counted(adj, source):
        calls.append(source)
        return predecessors(adj, source)

    monkeypatch.setattr(routing, "_predecessors", counted)
    return calls


def test_bench_ring_routes_from_128_bfs(monkeypatch):
    """The ``flowsim-ep`` ring (8 leaves x 16 hosts, 8 spines, shifts
    1-15): 1,920 pairs from 128 sources, one BFS each."""
    topo = two_layer_fat_tree(8, 16, 8)
    calls = _count_bfs(monkeypatch)
    flows = shifted_ring_flows(topo, range(1, 16), 64e6)
    assert len(flows) == 1920
    assert len(calls) == 128


#: The ``-True`` in these ids (PXN on) names the cases as they were when
#: PXN could be switched off; it is always on now.
_CLUSTER_IDS = ["build_mpft_cluster-True", "build_mrft_cluster-True"]


@pytest.mark.parametrize("build", [build_mpft_cluster, build_mrft_cluster], ids=_CLUSTER_IDS)
def test_all_to_all_runs_one_bfs_per_gpu(monkeypatch, build):
    """A 4-node all-to-all: 992 ordered pairs, 768 of them cross-node,
    routed from the 32 GPUs' BFS (with PXN every GPU relays into its
    plane for its node)."""
    cluster = build(4)
    calls = _count_bfs(monkeypatch)
    all_to_all_flows(cluster, cluster.gpus(), 1e6)
    assert len(calls) == 32 == cluster.num_gpus


@pytest.mark.parametrize(
    "run", [flat_ring_allreduce_time, run_hierarchical_allreduce], ids=["flat", "hierarchical"]
)
def test_allreduce_rings_run_one_bfs_per_source_gpu(monkeypatch, run):
    """Both all-reduces on 8 nodes route their 64 network sources from the
    table (intra-node hops are NVLink paths): one BFS per source GPU, so
    no source is searched twice (a per-pair search would repeat one)."""
    cluster = build_mpft_cluster(8)
    calls = _count_bfs(monkeypatch)
    run(cluster, 1e6)
    assert len(calls) == len(set(calls)) == 64


def test_self_sending_shift_is_refused():
    topo = two_layer_fat_tree(2, 2, 2)
    with pytest.raises(ValueError, match="shift 4 sends each of the 4 hosts to itself"):
        shifted_ring_flows(topo, [1, 4], 1e6)
    with pytest.raises(ValueError, match="shift 0 "):
        shifted_ring_flows(topo, [0], 1e6)


# -- builders against a per-pair reference ---------------------------------


def _reference_route(graph, src, dst, size, policy, static_table=None, tag=""):
    """``route_flows`` of one transfer, as one networkx search for the
    pair in ``graph`` (the topology's :func:`to_networkx` copy)."""
    paths = sorted(nx.all_shortest_paths(graph, src, dst))
    if policy is RoutingPolicy.ADAPTIVE:
        return [Flow(src, dst, size / len(paths), p, tag=tag) for p in paths]
    if policy is RoutingPolicy.ECMP:
        index = ecmp_index(src, dst, len(paths))
    else:
        index = (static_table or {}).get((src, dst), 0) % len(paths)
    return [Flow(src, dst, size, paths[index], tag=tag)]


def _reference_pair(cluster, graph, src, dst, size, tag):
    """``transfer_flows`` of one transfer, as one networkx search for the
    pair in ``graph`` (the cluster topology's :func:`to_networkx` copy)."""
    if cluster.same_node(src, dst):
        path = [src, f"n{cluster.node_of[src]}/nvsw", dst]
        return [Flow(src, dst, size, path, latency=path_latency(cluster, path), tag=tag)]
    prefix, net_src = pxn_relay(cluster, src, dst)
    paths = [prefix + p for p in sorted(nx.all_shortest_paths(graph, net_src, dst))]
    latency = path_latency(cluster, paths[0])
    return [Flow(src, dst, size / len(paths), p, latency=latency, tag=tag) for p in paths]


@pytest.mark.parametrize("policy", list(RoutingPolicy))
@pytest.mark.parametrize("name", ["ft2", "ft3", "dragonfly"])
def test_shifted_ring_matches_per_pair_routing(name, policy):
    """``route_flows`` of the shifted-ring transfers under each policy,
    and ``shifted_ring_flows`` (always ECMP), match per-pair routing."""
    topo = TOPOLOGIES[name]()
    graph = to_networkx(topo)
    hosts = topo.hosts
    shifts = [1, 2, len(hosts) + 1]  # the last repeats shift 1's pairs
    transfers = [
        (src, hosts[(i + shift) % len(hosts)], 1e6, f"shift{shift}")
        for shift in shifts
        for i, src in enumerate(hosts)
    ]
    expected = [
        flow
        for src, dst, size, tag in transfers
        for flow in _reference_route(graph, src, dst, size, policy, tag=tag)
    ]
    assert route_flows(topo, transfers, policy) == expected
    if policy is RoutingPolicy.ECMP:
        assert shifted_ring_flows(topo, shifts, 1e6) == expected


def test_static_table_and_rings_match_per_pair_routing():
    topo = two_layer_fat_tree(4, 4, 4)
    rings = [[f"h{leaf * 4 + slot}" for leaf in range(4)] for slot in range(4)]
    pairs = [(r[i], r[(i + 1) % len(r)]) for r in rings for i in range(len(r))]
    graph = to_networkx(topo)
    link_use, expected_table = {}, {}
    for src, dst in pairs:
        paths = sorted(nx.all_shortest_paths(graph, src, dst))
        costs = [max(link_use.get(e, 0) for e in zip(p[:-1], p[1:])) for p in paths]
        best = costs.index(min(costs))
        expected_table[(src, dst)] = best
        for e in zip(paths[best][:-1], paths[best][1:]):
            link_use[e] = link_use.get(e, 0) + 1
    table = collision_free_static_table(topo, pairs)
    assert table == expected_table and list(table) == pairs
    for policy in RoutingPolicy:
        for ring in rings:
            per_link = 4e6 * (len(ring) - 1) / len(ring)
            expected = [
                flow
                for i, src in enumerate(ring)
                for flow in _reference_route(
                    graph, src, ring[(i + 1) % len(ring)], per_link, policy, table, "ring"
                )
            ]
            assert ring_collective_flows(topo, ring, 4e6, policy, table) == expected


#: Cluster transfers have one spread: ADAPTIVE spraying over the pair's
#: equal-cost paths.
@pytest.mark.parametrize("spread", ["adaptive"])
@pytest.mark.parametrize("build", [build_mpft_cluster, build_mrft_cluster], ids=_CLUSTER_IDS)
def test_all_to_all_matches_per_pair_routing(build, spread):
    cluster = build(3, nodes_per_leaf=2)
    gpus = cluster.gpus()[::3]  # a mix of same-node, same-plane and cross-plane pairs
    graph = to_networkx(cluster.topology)
    expected = [
        flow
        for src in gpus
        for dst in gpus
        if src != dst
        for flow in _reference_pair(cluster, graph, src, dst, 1e6, "a2a")
    ]
    assert all_to_all_flows(cluster, gpus, 1e6) == expected


@st.composite
def _cluster_transfers(draw):
    build = draw(st.sampled_from([build_mpft_cluster, build_mrft_cluster]))
    cluster = build(draw(st.integers(2, 3)), nodes_per_leaf=draw(st.integers(1, 2)))
    gpus = cluster.gpus()
    pair = st.tuples(st.sampled_from(gpus), st.sampled_from(gpus)).filter(lambda p: p[0] != p[1])
    return cluster, draw(st.lists(pair, min_size=1, max_size=8))


@settings(max_examples=30, deadline=None)
@given(case=_cluster_transfers())
def test_cluster_paths_come_from_the_table(case):
    """``pxn_path`` is the PXN relay plus the relay's first table path, and
    every flow ``transfer_flows`` emits runs on a table path once its
    NVLink prefix is removed."""
    cluster, pairs = case
    topo = cluster.topology
    for src, dst in pairs:
        if cluster.same_node(src, dst):
            assert pxn_path(cluster, src, dst) == cluster.nvlink_path(src, dst)
            continue
        prefix, net_src = pxn_relay(cluster, src, dst)
        assert pxn_path(cluster, src, dst) == prefix + equal_cost_paths(topo, net_src, dst)[0]
    for flow in transfer_flows(cluster, [(s, d, 1e6) for s, d in pairs]):
        if cluster.same_node(flow.src, flow.dst):
            assert flow.path == cluster.nvlink_path(flow.src, flow.dst)
            continue
        prefix, net_src = pxn_relay(cluster, flow.src, flow.dst)
        assert flow.path[: len(prefix)] == prefix
        assert flow.path[len(prefix) :] in equal_cost_paths(topo, net_src, flow.dst)
