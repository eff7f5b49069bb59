"""Collective traffic generation and the Figure 5/6 parity claims."""

import pytest

from repro.network import (
    RoutingPolicy,
    build_mpft_cluster,
    build_mrft_cluster,
    ft2_from_radix,
    ring_collective_flows,
    run_all_to_all,
    run_concurrent_rings,
)
from repro.network.collectives import transfer_flows


def test_all_to_all_mpft_equals_mrft():
    """Figure 5/6: with PXN, MPFT and MRFT all-to-all are identical."""
    mpft = build_mpft_cluster(2)
    mrft = build_mrft_cluster(2)
    size = 1 << 20
    r1 = run_all_to_all(mpft, mpft.gpus(), size)
    r2 = run_all_to_all(mrft, mrft.gpus(), size)
    assert r1.time == pytest.approx(r2.time, rel=1e-6)
    assert r1.busbw == pytest.approx(r2.busbw, rel=1e-6)


def test_all_to_all_busbw_saturates_toward_nic():
    """Figure 5 shape: busbw decreases toward NIC saturation (~40GB/s)."""
    results = []
    for nodes in (2, 4, 8):
        c = build_mpft_cluster(nodes)
        results.append(run_all_to_all(c, c.gpus(), 1 << 20).busbw)
    assert results[0] > results[1] > results[2]
    assert results[2] > 40e9  # still above NIC effective (NVLink share)


def test_all_to_all_latency_dominates_small_messages():
    """Figure 6 shape: tiny messages cost ~latency, big ones ~bandwidth."""
    c = build_mpft_cluster(2)
    gpus = c.gpus()[:16]
    small = run_all_to_all(c, gpus, 64)
    large = run_all_to_all(c, gpus, 1 << 22)
    assert small.time < 50e-6
    assert large.time > 10 * small.time


def test_all_to_all_needs_two_ranks():
    c = build_mpft_cluster(2)
    with pytest.raises(ValueError):
        run_all_to_all(c, c.gpus()[:1], 64)


def test_pair_flows_same_node_nvlink():
    c = build_mpft_cluster(2)
    flows = transfer_flows(c, [("n0g0", "n0g3", 1e6)])
    assert len(flows) == 1
    assert flows[0].path == ["n0g0", "n0/nvsw", "n0g3"]


def test_transfer_flows_spray_over_spines():
    c = build_mpft_cluster(16)  # cross-leaf pairs have 8 spine paths
    flows = transfer_flows(c, [("n0g0", "n9g0", 8e6)])
    assert len(flows) == 8
    assert len({tuple(f.path) for f in flows}) == 8
    assert sum(f.size for f in flows) == pytest.approx(8e6)


def test_ring_collective_volume():
    """Ring AllGather moves (N-1)/N x buffer per neighbour link."""
    topo = ft2_from_radix(8)
    ring = [f"h{i}" for i in range(4)]
    flows = ring_collective_flows(topo, ring, 4e6, RoutingPolicy.ECMP)
    assert len(flows) == 4
    for f in flows:
        assert f.size == pytest.approx(3e6)


def test_ring_needs_two_ranks():
    topo = ft2_from_radix(8)
    with pytest.raises(ValueError):
        ring_collective_flows(topo, ["h0"], 1e6, RoutingPolicy.ECMP)
    with pytest.raises(ValueError):
        run_concurrent_rings(topo, [], 1e6, RoutingPolicy.ECMP)


def test_adaptive_routing_beats_unlucky_ecmp():
    """Figure 8 shape: AR >= ECMP for concurrent rings; static (tuned)
    matches AR."""
    from repro.network import collision_free_static_table

    topo = ft2_from_radix(8)
    # Rings crossing leaf pairs; ECMP may hash several onto one spine.
    rings = [[f"h{i}", f"h{4 + i}", f"h{8 + i}", f"h{12 + i}"] for i in range(4)]
    buffer_bytes = 64e6
    ar = run_concurrent_rings(topo, rings, buffer_bytes, RoutingPolicy.ADAPTIVE)
    ecmp = run_concurrent_rings(topo, rings, buffer_bytes, RoutingPolicy.ECMP)
    pairs = [(r[i], r[(i + 1) % len(r)]) for r in rings for i in range(len(r))]
    table = collision_free_static_table(topo, pairs)
    static = run_concurrent_rings(
        topo, rings, buffer_bytes, RoutingPolicy.STATIC, static_table=table
    )
    assert ar.busbw >= ecmp.busbw * 0.999
    assert static.busbw == pytest.approx(ar.busbw, rel=0.05)


def test_collective_result_bandwidth_conventions():
    c = build_mpft_cluster(2)
    res = run_all_to_all(c, c.gpus()[:4], 1 << 20)
    assert res.busbw == pytest.approx(res.algbw * 3 / 4)


def _flow_digest(flows):
    """SHA-256 of every field of ``flows``, floats as exact hex."""
    import hashlib
    import json

    rows = [[f.src, f.dst, f.size.hex(), f.path, f.latency.hex(), f.tag] for f in flows]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _hosts(cluster):
    return sorted(cluster.node_of, key=lambda h: (cluster.node_of[h], h))


#: Flow digests of the builders: (cluster, nodes, nodes per leaf) ->
#: digest of a 64 B all-to-all over every GPU.
_A2A_DIGESTS = {
    ("mpft", 2, 8): "c0f7da8ade6796da11711d76d2a24545b66c662942388c1c20e3960f4967e511",
    ("mrft", 4, 8): "963d7a85c1ee0d871889247108bc45f3e8e520a30fb27e271c19ae2500b32819",
    ("mpft", 4, 2): "dd91b4f9a3240cbeda250213d0a62d295b498f8ab1073bf57ab139d927918cdd",
    ("mrft", 4, 2): "8359ff5099517ad1804ed613c3e4ee11df8df10e3c7c339a0739f3cc44320ddf",
}


@pytest.mark.parametrize("kind, nodes, per_leaf", sorted(_A2A_DIGESTS))
def test_all_to_all_flows_keep_their_pinned_digests(kind, nodes, per_leaf):
    """Every field of every flow, latencies to the last bit, is pinned,
    so a change to how the builders route or price paths shows here."""
    from repro.network import collectives, latency

    build = build_mpft_cluster if kind == "mpft" else build_mrft_cluster
    cluster = build(nodes, nodes_per_leaf=per_leaf)
    flows = collectives.all_to_all_flows(cluster, _hosts(cluster), 64.0)
    assert _flow_digest(flows) == _A2A_DIGESTS[(kind, nodes, per_leaf)]
    for f in flows[:: max(1, len(flows) // 50)]:
        assert f.latency == latency.path_latency(cluster, f.path)


def test_mixed_transfers_and_ep_flows_keep_their_pinned_digests():
    """Same-node and cross-node transfers in a random order, and an EP
    dispatch stage, on a 4-node MPFT with two nodes per leaf."""
    import numpy as np

    from repro.comm.ep import EPConfig, EPDeployment

    cluster = build_mpft_cluster(4, nodes_per_leaf=2)
    hosts = _hosts(cluster)
    rng = np.random.default_rng(7)
    transfers = [
        (hosts[i], hosts[j], float(rng.integers(1, 1000)))
        for i, j in rng.integers(0, len(hosts), size=(300, 2))
        if i != j
    ]
    assert len(transfers) == 285
    assert _flow_digest(transfer_flows(cluster, transfers, tag="x")) == (
        "1c3a7247305d4ba65d7570374f80d1d16cc6a5505a1a48179235fc96dffdc5c3"
    )
    dep = EPDeployment(cluster, EPConfig(num_routed_experts=256, experts_per_token=8))
    decisions = dep.route_tokens(32, np.random.default_rng(3))
    assert _flow_digest(dep.traffic_to_flows(*dep.dispatch_traffic(decisions))) == (
        "c29f6fd6fe8adef7a8b3f5494bcc82ed82f29107154d914922b467139ef2ed0b"
    )
