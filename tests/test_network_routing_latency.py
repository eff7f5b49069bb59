"""Routing policies (Figure 8 machinery) and the Table 5 latency model."""

import pytest

from repro.network import (
    IB,
    ROCE,
    RoutingPolicy,
    build_mpft_cluster,
    collision_free_static_table,
    ecmp_index,
    end_to_end_latency,
    equal_cost_paths,
    ft2_from_radix,
    nvlink_latency,
    path_latency,
    pxn_path,
    route_flows,
    table5_rows,
    two_layer_fat_tree,
)


def test_table5_values_exact():
    rows = {r.link_layer: r for r in table5_rows()}
    assert rows["RoCE"].same_leaf_us == pytest.approx(3.6, abs=0.01)
    assert rows["RoCE"].cross_leaf_us == pytest.approx(5.6, abs=0.01)
    assert rows["InfiniBand"].same_leaf_us == pytest.approx(2.8, abs=0.01)
    assert rows["InfiniBand"].cross_leaf_us == pytest.approx(3.7, abs=0.01)
    assert rows["NVLink"].same_leaf_us == pytest.approx(3.33, abs=0.01)
    assert rows["NVLink"].cross_leaf_us is None


def test_ib_beats_roce_everywhere():
    for hops in (1, 3, 5):
        assert end_to_end_latency(IB, hops) < end_to_end_latency(ROCE, hops)


def test_latency_grows_with_hops_and_size():
    assert end_to_end_latency(IB, 3) > end_to_end_latency(IB, 1)
    assert end_to_end_latency(IB, 1, 1 << 20) > end_to_end_latency(IB, 1, 64)
    with pytest.raises(ValueError):
        end_to_end_latency(IB, -1)


def test_nvlink_latency_small_message():
    assert nvlink_latency(64) == pytest.approx(3.33e-6, rel=0.01)


def test_path_latency_counts_hops():
    c = build_mpft_cluster(16)  # 2 leaves/plane -> spines exist
    same_leaf = pxn_path(c, "n0g0", "n1g0")
    cross_leaf = pxn_path(c, "n0g0", "n9g0")
    assert path_latency(c, same_leaf) == pytest.approx(2.8e-6, rel=0.01)
    assert path_latency(c, cross_leaf) == pytest.approx(3.7e-6, rel=0.01)


def test_path_latency_nvlink_forwarding_adds_cost():
    c = build_mpft_cluster(2)
    direct = pxn_path(c, "n0g3", "n1g3")
    forwarded = pxn_path(c, "n0g0", "n1g3")
    assert path_latency(c, forwarded) == pytest.approx(
        path_latency(c, direct) + 3.33e-6, rel=0.01
    )


def test_ecmp_index_deterministic():
    a = ecmp_index("h0", "h9", 8)
    assert a == ecmp_index("h0", "h9", 8)
    assert 0 <= a < 8
    with pytest.raises(ValueError):
        ecmp_index("a", "b", 0)


def test_ecmp_routes_single_path():
    topo = ft2_from_radix(8)
    flows = route_flows(topo, [("h0", "h5", 1e6, "")], RoutingPolicy.ECMP)
    assert len(flows) == 1
    assert flows[0].size == 1e6


def test_adaptive_splits_over_all_paths():
    topo = ft2_from_radix(8)
    flows = route_flows(topo, [("h0", "h5", 1e6, "")], RoutingPolicy.ADAPTIVE)
    assert len(flows) == 4  # 4 spines
    assert sum(f.size for f in flows) == pytest.approx(1e6)
    paths = {tuple(f.path) for f in flows}
    assert len(paths) == 4


def test_static_uses_table():
    topo = ft2_from_radix(8)
    table = {("h0", "h5"): 2}
    flows = route_flows(topo, [("h0", "h5", 1e6, "")], RoutingPolicy.STATIC, static_table=table)
    expected = equal_cost_paths(topo, "h0", "h5")[2]
    assert flows[0].path == expected


def test_static_default_index_zero():
    topo = ft2_from_radix(8)
    flows = route_flows(topo, [("h0", "h5", 1e6, "")], RoutingPolicy.STATIC)
    assert flows[0].path == equal_cost_paths(topo, "h0", "h5")[0]


def test_string_policy_is_coerced_to_its_member():
    topo = two_layer_fat_tree(4, 4, 4)
    transfers = [("h0", "h13", 1.0, "")]
    ecmp = route_flows(topo, transfers, "ecmp")
    assert ecmp == route_flows(topo, transfers, RoutingPolicy.ECMP)
    assert ecmp[0].path[2] == "FT2/spine2"  # the hash's pick, not static index 0
    adaptive = route_flows(topo, transfers, "adaptive")
    assert adaptive == route_flows(topo, transfers, RoutingPolicy.ADAPTIVE)
    assert len(adaptive) == 4
    with pytest.raises(ValueError, match="nope"):
        route_flows(topo, transfers, "nope")


def test_collision_free_table_spreads_conflicting_pairs():
    topo = ft2_from_radix(8)
    # Four pairs all leaf0 -> leaf1: ECMP could collide; the static
    # table must spread them across the 4 spine paths.
    pairs = [(f"h{i}", f"h{4 + i}") for i in range(4)]
    table = collision_free_static_table(topo, pairs)
    chosen = set()
    for pair in pairs:
        path = equal_cost_paths(topo, *pair)[table[pair]]
        spine = [n for n in path if "spine" in n][0]
        chosen.add(spine)
    assert len(chosen) == 4
