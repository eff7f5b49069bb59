"""Topology core and fat-tree builders."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    ENDPOINT_LINK,
    INTERSWITCH_LINK,
    DragonflyParams,
    Topology,
    TopologySpec,
    build_dragonfly,
    build_mpft_cluster,
    build_slimfly,
    equal_cost_paths,
    ft2_from_radix,
    ft2_spec,
    ft3_spec,
    three_layer_fat_tree,
    two_layer_fat_tree,
)
from repro.network.topology import Graph
from repro.reliability import assess_impact, failed, hosts_reachable

from .graph_oracle import to_networkx


def test_add_nodes_and_links():
    topo = Topology("t")
    topo.add_switch("s0")
    topo.add_host("h0")
    topo.add_link("h0", "s0", 1e9, ENDPOINT_LINK)
    assert topo.hosts == ["h0"]
    assert topo.switches == ["s0"]
    assert topo.bandwidth("h0", "s0") == 1e9


def test_link_validation():
    topo = Topology("t")
    topo.add_switch("s0")
    with pytest.raises(KeyError):
        topo.add_link("s0", "nope", 1e9, ENDPOINT_LINK)
    topo.add_switch("s1")
    with pytest.raises(ValueError):
        topo.add_link("s0", "s1", 0.0, INTERSWITCH_LINK)


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), -1e9])
def test_fat_tree_rejects_non_finite_bandwidth(bandwidth):
    """A NaN link would hang the flow simulator and an infinite one
    gives a 0.0 makespan: both are refused where the link is added."""
    with pytest.raises(ValueError, match="positive and finite"):
        two_layer_fat_tree(2, 2, 2, link_bandwidth=bandwidth)


def test_spec_counts_interswitch_only():
    topo = two_layer_fat_tree(num_leaves=4, hosts_per_leaf=2, num_spines=2)
    spec = topo.spec
    assert spec.endpoints == 8
    assert spec.switches == 6
    assert spec.links == 8  # 4 leaves x 2 spines


def test_spec_rejects_negative():
    with pytest.raises(ValueError):
        TopologySpec("bad", endpoints=-1, switches=0, links=0)


def test_ft2_full_scale_spec_matches_table3():
    spec = ft2_spec(64)
    assert spec.endpoints == 2048
    assert spec.switches == 96
    assert spec.links == 2048


def test_ft3_full_scale_spec_matches_table3():
    spec = ft3_spec(64)
    assert spec.endpoints == 65536
    assert spec.switches == 5120
    assert spec.links == 131072


def test_ft2_graph_small_instance_consistent_with_spec():
    topo = ft2_from_radix(8)
    spec = ft2_spec(8)
    assert topo.spec.endpoints == spec.endpoints == 32
    assert topo.spec.switches == spec.switches == 12
    assert topo.spec.links == spec.links == 32


def test_ft3_graph_small_instance_consistent_with_spec():
    topo = three_layer_fat_tree(4)
    spec = ft3_spec(4)
    assert topo.spec.endpoints == spec.endpoints == 16
    assert topo.spec.switches == spec.switches == 20
    assert topo.spec.links == spec.links == 32


def test_fat_trees_are_connected():
    assert ft2_from_radix(8).is_connected()
    assert three_layer_fat_tree(4).is_connected()


def test_radix_validation():
    topo = ft2_from_radix(8)
    topo.validate_radix(8)  # leaves use 4 hosts + 4 spines = 8 ports
    with pytest.raises(ValueError):
        topo.validate_radix(6)


def test_equal_cost_paths_through_all_spines():
    topo = ft2_from_radix(8)
    paths = equal_cost_paths(topo, "h0", "h4")  # different leaves
    assert len(paths) == 4  # one per spine
    for p in paths:
        assert topo.switch_hops(p) == 3


def test_same_leaf_single_path():
    topo = ft2_from_radix(8)
    paths = equal_cost_paths(topo, "h0", "h1")
    assert len(paths) == 1
    assert topo.switch_hops(paths[0]) == 1


def test_invalid_builders():
    with pytest.raises(ValueError):
        two_layer_fat_tree(0, 1, 1)
    with pytest.raises(ValueError):
        three_layer_fat_tree(5)
    with pytest.raises(ValueError):
        ft2_spec(7)
    with pytest.raises(ValueError):
        ft3_spec(0)


# -- the graph against networkx ---------------------------------------------

_NAMES = ["a", "b", "c", "d", "e"]
_ATTRS = st.dictionaries(
    st.sampled_from(["kind", "bandwidth", "plane"]), st.integers(0, 3), max_size=2
)
_OPS = st.one_of(
    st.tuples(st.just("add_node"), st.sampled_from(_NAMES), _ATTRS),
    st.tuples(st.just("add_edge"), st.sampled_from(_NAMES), st.sampled_from(_NAMES), _ATTRS),
    st.tuples(st.just("remove_node"), st.sampled_from(_NAMES)),
    st.tuples(st.just("remove_edge"), st.sampled_from(_NAMES), st.sampled_from(_NAMES)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_graph_orders_nodes_and_edges_as_networkx(ops):
    """Any add/remove/re-add sequence leaves ``nodes``, ``adj`` and
    ``edges(data=True)`` in the order (and with the attributes)
    ``nx.Graph`` has after the same sequence."""
    graph, reference = Graph(), nx.Graph()
    for op, *args in ops:
        if op == "add_node":
            graph.add_node(args[0], **args[1])
            reference.add_node(args[0], **args[1])
        elif op == "add_edge":
            graph.add_edge(args[0], args[1], **args[2])
            reference.add_edge(args[0], args[1], **args[2])
        elif op == "remove_node":
            if args[0] not in reference:
                with pytest.raises(KeyError):
                    graph.remove_node(args[0])
                continue
            graph.remove_node(args[0])
            reference.remove_node(args[0])
        else:
            assert graph.has_edge(*args) == reference.has_edge(*args)
            if not reference.has_edge(*args):
                with pytest.raises(KeyError):
                    graph.remove_edge(*args)
                continue
            graph.remove_edge(*args)
            reference.remove_edge(*args)
    assert len(graph) == len(reference)
    assert list(graph.nodes.items()) == list(reference.nodes(data=True))
    assert [(n, list(nbrs.items())) for n, nbrs in graph.adj.items()] == [
        (n, list(nbrs.items())) for n, nbrs in reference.adj.items()
    ]
    assert list(graph.edges(data=True)) == list(reference.edges(data=True))
    assert list(graph.edges()) == list(reference.edges())


def _mpft():
    cluster = build_mpft_cluster(2, nodes_per_leaf=1)
    return cluster.topology, cluster


#: One small instance of each family; MPFT also yields its cluster, the
#: input of ``assess_impact``.
_FAMILIES = {
    "ft2": lambda: (two_layer_fat_tree(3, 2, 2), None),
    "ft3": lambda: (three_layer_fat_tree(4), None),
    "dragonfly": lambda: (build_dragonfly(DragonflyParams(p=1, a=3, h=1, g=4)), None),
    "slimfly": lambda: (build_slimfly(5), None),
    "mpft": _mpft,
}


@st.composite
def _damage(draw):
    topo, cluster = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]()
    links = draw(st.lists(st.sampled_from(topo.links()), max_size=6, unique=True))
    switches = draw(st.lists(st.sampled_from(topo.switches), max_size=3, unique=True))
    host = st.sampled_from(topo.hosts)
    pairs = draw(st.lists(st.tuples(host, host), min_size=1, max_size=8))
    return topo, cluster, tuple(links), tuple(switches), pairs


def _reference_impact(cluster, graph):
    """``(disconnected_pairs, affected_planes)`` of ``assess_impact``,
    from networkx's connected components of the damaged ``graph``."""
    component = {
        node: index for index, nodes in enumerate(nx.connected_components(graph)) for node in nodes
    }
    gpus = cluster.gpus()
    pairs = [(a, b) for i, a in enumerate(gpus) for b in gpus[i + 1 :]]
    cut = [(a, b) for a, b in pairs if component[a] != component[b]]
    return len(cut), {cluster.plane_of[gpu] for pair in cut for gpu in pair}


@settings(max_examples=60, deadline=None)
@given(case=_damage())
def test_reachability_and_round_trips_match_networkx(case):
    """Under random link and switch failures, ``is_connected``,
    ``hosts_reachable`` and ``assess_impact`` give networkx's answers on
    the damaged graph; healing leaves the graph exactly as the same
    failover code leaves an ``nx.Graph`` copy (edge order and
    attributes), with every original link back."""
    topo, cluster, links, switches, pairs = case
    before = {frozenset((a, b)): dict(d) for a, b, d in topo.graph.edges(data=True)}
    mirror = Topology(topo.name)
    mirror.graph = to_networkx(topo)  # the failover code duck-types over nx.Graph
    with failed(topo, links=links, switches=switches), failed(mirror, links, switches):
        damaged = to_networkx(topo)
        assert topo.is_connected() == nx.is_connected(damaged)
        for a, b in pairs:
            assert hosts_reachable(topo, a, b) == nx.has_path(damaged, a, b)
        if cluster is not None:
            impact = assess_impact(cluster)
            expected = _reference_impact(cluster, damaged)
            assert (impact.disconnected_pairs, impact.affected_planes) == expected
    assert list(topo.graph.nodes.items()) == list(mirror.graph.nodes(data=True))
    assert list(topo.graph.edges(data=True)) == list(mirror.graph.edges(data=True))
    assert {frozenset((a, b)): d for a, b, d in topo.graph.edges(data=True)} == before
