"""DeepEP dispatch/combine simulator and §4.3 traffic analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import (
    COMBINE_BYTES_PER_ELEMENT,
    DEEPSEEK_V3_EP,
    DISPATCH_BYTES_PER_ELEMENT,
    EPConfig,
    EPDeployment,
    ib_cost_factor,
    run_ep_stage,
)
from repro.model import node_limited_topk, topk_routing
from repro.network import build_mpft_cluster, gpu_name, planes_used

RNG = np.random.default_rng


def _deployment(nodes=4, **overrides):
    cluster = build_mpft_cluster(nodes)
    cfg = EPConfig(
        num_routed_experts=256,
        experts_per_token=8,
        hidden_size=7168,
        max_nodes_per_token=overrides.pop("max_nodes_per_token", 4),
    )
    return EPDeployment(cluster, cfg)


def test_expert_placement_group_major():
    dep = _deployment(4)
    assert dep.experts_per_node == 64
    assert dep.experts_per_gpu == 8
    assert dep.node_of_expert(0) == 0
    assert dep.node_of_expert(255) == 3
    assert dep.gpu_of_expert(0) == "n0g0"
    assert dep.gpu_of_expert(63) == "n0g7"
    assert dep.gpu_of_expert(64) == "n1g0"


def test_deployment_divisibility_checks():
    cluster = build_mpft_cluster(3)
    with pytest.raises(ValueError):
        EPDeployment(cluster, EPConfig(256, 8))


def test_route_tokens_respects_node_limit():
    dep = _deployment(8)
    decisions = dep.route_tokens(64, RNG(0))
    assert set(decisions) == set(dep.cluster.gpus())
    for decision in decisions.values():
        nodes = decision.expert_ids // dep.experts_per_node
        for row in nodes:
            assert len(np.unique(row)) <= 4


def test_dispatch_traffic_is_node_deduplicated():
    """IB bytes of one token to one node: hidden x 1 byte, regardless
    of how many experts it hits there."""
    dep = _deployment(2)
    # One token from n0g0 to eight node-1 experts, one per GPU there
    # (experts_per_gpu = 16, so locals 0, 16, ..., 112).
    target_experts = 128 + 16 * np.arange(8)
    scores = RNG(1).uniform(0, 0.1, (1, 256))
    scores[0, target_experts] = 1.0
    decision = topk_routing(scores, 8)
    ib, nvlink = dep.dispatch_traffic({"n0g0": decision})
    token_bytes = 7168 * DISPATCH_BYTES_PER_ELEMENT
    assert sum(ib.values()) == token_bytes  # ONE copy over IB
    # Fan-out over NVLink to the 7 GPUs other than the entry GPU.
    assert sum(nvlink.values()) == 7 * token_bytes


def test_dispatch_local_node_uses_nvlink_only():
    dep = _deployment(2)
    scores = RNG(2).uniform(size=(1, 256))
    scores[0, 256 // 2 :] = 0  # force all experts onto node 0
    decision = topk_routing(scores, 8)
    ib, nvlink = dep.dispatch_traffic({"n0g0": decision})
    assert sum(ib.values()) == 0
    assert sum(nvlink.values()) > 0


def test_combine_is_bf16_reverse_of_dispatch():
    dep = _deployment(2)
    decisions = dep.route_tokens(32, RNG(3))
    ib_d, nv_d = dep.dispatch_traffic(decisions)
    ib_c, nv_c = dep.combine_traffic(decisions)
    ratio = COMBINE_BYTES_PER_ELEMENT / DISPATCH_BYTES_PER_ELEMENT
    assert sum(ib_c.values()) == pytest.approx(ratio * sum(ib_d.values()))
    assert sum(nv_c.values()) == pytest.approx(ratio * sum(nv_d.values()))
    for (a, b), v in ib_d.items():
        assert ib_c[(b, a)] == pytest.approx(v * ratio)


def test_run_ep_stage_bandwidth_below_nic_limit():
    dep = _deployment(4)
    decisions = dep.route_tokens(512, RNG(4))
    result = run_ep_stage(dep, decisions, "dispatch")
    assert 0 < result.per_gpu_bandwidth <= 40e9 * 1.01


def test_fig7_shape_bandwidth_saturates_with_scale():
    """Figure 7: per-GPU EP bandwidth approaches the 40GB/s NIC limit."""
    results = []
    for nodes in (2, 4, 8):
        dep = _deployment(nodes)
        decisions = dep.route_tokens(256, RNG(5))
        results.append(run_ep_stage(dep, decisions, "dispatch").per_gpu_bandwidth)
    assert results[-1] > 35e9
    assert results[-1] <= 40e9 * 1.01


def test_run_ep_stage_validations():
    dep = _deployment(2)
    decisions = dep.route_tokens(8, RNG(6))
    with pytest.raises(ValueError):
        run_ep_stage(dep, decisions, "broadcast")


#: (nodes, nodes_per_leaf): one leaf per plane, and spines once leaves split.
_EP_CLUSTERS = [(2, 8), (4, 8), (4, 2)]


def _ep_stage_case(nodes, nodes_per_leaf, stage, seed):
    cluster = build_mpft_cluster(nodes, nodes_per_leaf=nodes_per_leaf)
    dep = EPDeployment(cluster, EPConfig(num_routed_experts=256, experts_per_token=8))
    decisions = dep.route_tokens(32, RNG(seed))
    traffic = dep.dispatch_traffic if stage == "dispatch" else dep.combine_traffic
    ib, nvlink = traffic(decisions)
    return dep, decisions, ib, nvlink, dep.traffic_to_flows(ib, nvlink)


@pytest.mark.parametrize("stage", ["dispatch", "combine"])
@pytest.mark.parametrize("nodes, nodes_per_leaf", _EP_CLUSTERS)
def test_ep_flows_carry_the_stage_traffic(nodes, nodes_per_leaf, stage):
    """Spraying splits IB transfers into subflows but keeps their bytes,
    NVLink fan-out stays one flow per pair, and every IB hop stays on the
    destination GPU's plane."""
    dep, _, ib, nvlink, flows = _ep_stage_case(nodes, nodes_per_leaf, stage, seed=11)
    ib_flows = [f for f in flows if f.tag == "ib"]
    nv_flows = [f for f in flows if f.tag == "nvlink"]
    assert len(ib_flows) + len(nv_flows) == len(flows)
    assert ib and nvlink
    assert sum(f.size for f in ib_flows) == pytest.approx(sum(ib.values()), rel=1e-12)
    assert sum(f.size for f in nv_flows) == pytest.approx(sum(nvlink.values()), rel=1e-12)
    cluster = dep.cluster
    for flow in ib_flows:
        assert planes_used(cluster, flow.path) == {cluster.plane_of[flow.dst]}
    for flow in nv_flows:
        assert flow.path == cluster.nvlink_path(flow.src, flow.dst)


@pytest.mark.parametrize("stage", ["dispatch", "combine"])
@pytest.mark.parametrize("nodes, nodes_per_leaf", _EP_CLUSTERS)
def test_ep_stage_time_is_drain_plus_latency(nodes, nodes_per_leaf, stage):
    """The stage time is the busiest directed link's bytes over its
    bandwidth, plus the largest flow latency, computed here from the
    flows and the graph without the flow simulator."""
    dep, decisions, _, _, flows = _ep_stage_case(nodes, nodes_per_leaf, stage, seed=12)
    graph = dep.cluster.topology.graph
    load = {}
    for flow in flows:
        for edge in zip(flow.path[:-1], flow.path[1:]):
            load[edge] = load.get(edge, 0.0) + flow.size
    drain = max(bytes_ / graph.edges[edge]["bandwidth"] for edge, bytes_ in load.items())
    latency = max(flow.latency for flow in flows)
    assert latency > 0  # the IB hop's startup latency is charged
    result = run_ep_stage(dep, decisions, stage)
    assert result.time == pytest.approx(drain + latency, rel=1e-12)


def test_ib_cost_factor_node_limited_vs_free():
    """§4.3: node-limited routing caps per-token IB cost at 4t vs ~8t."""
    scores = RNG(7).uniform(size=(2048, 256))
    free = topk_routing(scores, 8)
    limited = node_limited_topk(scores, 8, num_groups=8, max_groups=4)
    m_free = ib_cost_factor(free, experts_per_node=32)
    m_limited = ib_cost_factor(limited, experts_per_node=32)
    assert m_limited <= 4.0
    # Unrestricted top-8 over 8 nodes touches E[M] = 8(1-(7/8)^8) ~ 5.25.
    assert m_free > 5.0
    assert m_limited < m_free


def test_deepseek_v3_ep_preset():
    assert DEEPSEEK_V3_EP.destinations_per_token == 9
    assert DEEPSEEK_V3_EP.hidden_size == 7168


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.sampled_from([2, 4, 8, 16]),
    experts_per_gpu=st.sampled_from([1, 2, 4]),
    k=st.integers(1, 8),
    max_nodes=st.integers(0, 16),
    tokens_per_gpu=st.integers(1, 12),
    hidden=st.sampled_from([7, 64, 7168]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sec43_traffic_identity_on_generated_deployments(
    num_nodes, experts_per_gpu, k, max_nodes, tokens_per_gpu, hidden, seed
):
    """§4.3 over generated MPFT deployments: a token's dispatch crosses
    IB once per distinct expert node other than its source's node, at
    ``hidden`` FP8 bytes, to the entry GPU on the source's plane; the
    combine is that map reversed at BF16; and node-limited routing keeps
    every token within ``max_nodes_per_token`` nodes."""
    cluster = build_mpft_cluster(num_nodes)
    max_nodes = min(max_nodes, num_nodes)  # 0: unlimited
    cfg = EPConfig(
        num_routed_experts=num_nodes * cluster.gpus_per_node * experts_per_gpu,
        experts_per_token=k,
        hidden_size=hidden,
        max_nodes_per_token=max_nodes,
    )
    dep = EPDeployment(cluster, cfg)
    decisions = dep.route_tokens(tokens_per_gpu, RNG(seed))
    limited = 0 < max_nodes < num_nodes

    expected: dict[tuple[str, str], float] = {}
    for src, decision in decisions.items():
        src_node = cluster.node_of[src]
        for row in decision.expert_ids // dep.experts_per_node:
            nodes = {int(node) for node in row}
            if limited:
                assert len(nodes) <= max_nodes
            for node in nodes - {src_node}:
                key = (src, gpu_name(node, cluster.plane_of[src]))
                expected[key] = expected.get(key, 0) + hidden * DISPATCH_BYTES_PER_ELEMENT
        factor = ib_cost_factor(decision, dep.experts_per_node)
        assert factor <= (max_nodes if limited else min(k, num_nodes))

    ib_d, _ = dep.dispatch_traffic(decisions)
    assert ib_d == expected
    ratio = COMBINE_BYTES_PER_ELEMENT / DISPATCH_BYTES_PER_ELEMENT
    ib_c, _ = dep.combine_traffic(decisions)
    assert ib_c == {(b, a): v * ratio for (a, b), v in expected.items()}
