"""Topology core and fat-tree builders."""

import pytest

from repro.network import (
    ENDPOINT_LINK,
    INTERSWITCH_LINK,
    Topology,
    TopologySpec,
    equal_cost_paths,
    ft2_from_radix,
    ft2_spec,
    ft3_spec,
    three_layer_fat_tree,
    two_layer_fat_tree,
)


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
