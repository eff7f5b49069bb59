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
