"""MPFT / MRFT cluster builders and PXN path selection (Section 5.1)."""

import networkx as nx
import pytest

from repro.network import (
    build_mpft_cluster,
    build_mrft_cluster,
    equal_cost_paths,
    gpu_name,
    pxn_path,
    uses_nvlink_forwarding,
)
from repro.network.multiplane import pxn_relay

from .graph_oracle import to_networkx


def test_gpu_naming():
    assert gpu_name(3, 5) == "n3g5"


def test_mpft_cluster_shape():
    c = build_mpft_cluster(4)
    assert c.num_gpus == 32
    assert len(c.gpus()) == 32
    assert c.scheme == "mpft"
    # 8 planes x (1 leaf) switches + 4 NVSwitches; no spines at 4 nodes.
    assert c.topology.is_connected()


def test_mpft_planes_are_network_disjoint():
    """Cross-plane GPUs connect only through NVLink forwarding."""
    c = build_mpft_cluster(4)
    path = equal_cost_paths(c.topology, "n0g0", "n1g3")[0]
    assert uses_nvlink_forwarding(c, path)


def test_mrft_cross_rail_has_network_path():
    """On MRFT the spines connect rails, so a pure-network path exists."""
    c = build_mrft_cluster(16)  # 2 leaf groups -> spines exist
    path = equal_cost_paths(c.topology, "n0g0", "n1g3")[0]
    # The shortest path may still prefer NVLink (3 hops); check that a
    # cross-rail network route exists at all by removing NVLink.
    g = to_networkx(c.topology)
    g.remove_nodes_from([f"n{i}/nvsw" for i in range(16)])
    assert nx.has_path(g, "n0g0", "n1g3")


def test_mpft_cross_plane_requires_nvlink():
    c = build_mpft_cluster(16)
    g = to_networkx(c.topology)
    g.remove_nodes_from([f"n{i}/nvsw" for i in range(16)])
    assert not nx.has_path(g, "n0g0", "n1g3")


def test_pxn_same_node_is_pure_nvlink():
    c = build_mpft_cluster(2)
    path = pxn_path(c, "n0g0", "n0g5")
    assert path == ["n0g0", "n0/nvsw", "n0g5"]


def test_pxn_same_plane_goes_straight_to_network():
    c = build_mpft_cluster(2)
    path = pxn_path(c, "n0g2", "n1g2")
    assert not uses_nvlink_forwarding(c, path)
    assert path[0] == "n0g2" and path[-1] == "n1g2"


def test_pxn_cross_plane_relays_on_destination_plane():
    c = build_mpft_cluster(2)
    path = pxn_path(c, "n0g0", "n1g5")
    assert path[:2] == ["n0g0", "n0/nvsw"]
    assert path[2] == "n0g5"  # relay GPU on the destination plane
    assert uses_nvlink_forwarding(c, path)


def test_pxn_relay_decomposition():
    c = build_mpft_cluster(2)
    prefix, net_src = pxn_relay(c, "n0g0", "n1g5")
    assert prefix == ["n0g0", "n0/nvsw"]
    assert net_src == "n0g5"
    prefix, net_src = pxn_relay(c, "n0g5", "n1g5")
    assert prefix == []
    assert net_src == "n0g5"


def test_pxn_relay_rejects_same_node():
    c = build_mpft_cluster(2)
    with pytest.raises(ValueError):
        pxn_relay(c, "n0g0", "n0g1")


def test_paths_reject_self():
    c = build_mpft_cluster(2)
    with pytest.raises(ValueError):
        pxn_path(c, "n0g0", "n0g0")


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf")])
def test_mpft_rejects_non_finite_nic_bandwidth(bandwidth):
    from dataclasses import replace

    from repro.core.hardware import H800_NODE

    node = replace(H800_NODE, nic=replace(H800_NODE.nic, effective_bandwidth=bandwidth))
    with pytest.raises(ValueError, match="positive and finite"):
        build_mpft_cluster(16, node=node)


def test_builders_reject_zero_nodes():
    with pytest.raises(ValueError):
        build_mpft_cluster(0)
    with pytest.raises(ValueError):
        build_mrft_cluster(0)


def test_mpft_vs_mrft_same_endpoints():
    a, b = build_mpft_cluster(4), build_mrft_cluster(4)
    assert a.gpus() == b.gpus()


def test_nvlink_peer_lookup():
    c = build_mpft_cluster(2)
    assert c.nvlink_peer_on_plane("n1g0", 6) == "n1g6"
    assert c.same_node("n1g0", "n1g7")
    assert not c.same_node("n0g0", "n1g0")
