"""Decode serving frontier (§2.3.1-2.3.2 combined model)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.inference import (
    EPInferenceConfig,
    ServingConfig,
    compute_comm_crossover_context,
    decode_stage_times,
    serving_point,
    throughput_latency_frontier,
    tpot_limit,
)
from repro.model import DEEPSEEK_V2, DEEPSEEK_V3, TINY_DENSE_GQA, TINY_MLA_MOE


def _paper_config(**overrides):
    defaults = dict(nic_bandwidth=50e9, context_tokens=1, compute_efficiency=1.0)
    defaults.update(overrides)
    return ServingConfig(**defaults)


def test_comm_bound_regime_reproduces_paper_tpot():
    """At 32 tokens/device on a 50 GB/s fabric the model lands on the
    §2.3.2 limit (~14.8 ms with hidden 7000; ~15.1 ms with 7168)."""
    point = serving_point(_paper_config(), 32)
    assert point.bound == "communication"
    assert point.tpot == pytest.approx(15.11e-3, rel=0.01)
    assert 1 / point.tpot == pytest.approx(66, abs=2)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from([DEEPSEEK_V3, DEEPSEEK_V2, TINY_MLA_MOE]),
    batch=st.integers(1, 512),
    # Log-uniform 1 GB/s .. 2 TB/s and short to very long contexts, so
    # both bounds are common (about half the points are comm-bound).
    bandwidth=st.floats(9.0, 12.3).map(lambda exponent: 10.0**exponent),
    ep_fraction=st.floats(0.0, 1.0),
    context=st.sampled_from([0, 1, 128, 1024, 4096, 32_768, 131_072]),
)
def test_frontier_reduces_to_the_closed_form_tpot_limit(
    model, batch, bandwidth, ep_fraction, context
):
    """§2.3.2 two ways: where the frontier model is communication-bound
    its TPOT is the closed-form limit of ``inference/tpot.py`` for the
    same model and tokens per device; elsewhere it is never faster."""
    moe = model.moe
    ep_degree = max(1, round(ep_fraction * moe.num_routed_experts))
    point = serving_point(
        ServingConfig(
            model=model, nic_bandwidth=bandwidth, ep_degree=ep_degree, context_tokens=context
        ),
        batch,
    )
    limit = tpot_limit(
        EPInferenceConfig(
            tokens_per_device=batch,
            routed_experts_per_token=moe.experts_per_token,
            shared_experts_per_token=moe.num_shared_experts,
            hidden_size=model.hidden_size,
            num_layers=model.num_layers,
        ),
        bandwidth,
    )
    if point.bound == "communication":
        assert point.tpot == pytest.approx(limit, rel=1e-12)
    else:
        assert point.tpot >= limit * (1 - 1e-12)


def test_comm_time_scales_inverse_bandwidth():
    slow = serving_point(_paper_config(nic_bandwidth=40e9), 32)
    fast = serving_point(_paper_config(nic_bandwidth=80e9), 32)
    assert slow.stages.communication == pytest.approx(2 * fast.stages.communication)


def test_gb200_fabric_moves_bound_to_compute():
    """The paper's GB200 figure is 'purely theoretical': with a 900 GB/s
    fabric, communication stops being the binding constraint."""
    point = serving_point(_paper_config(nic_bandwidth=900e9), 32)
    assert point.bound == "compute"
    assert point.stages.communication < point.stages.compute


def test_long_context_shifts_bound_to_compute():
    """§2.3.2's caveat: 'request contexts are often much longer, and
    MLA computations typically dominate'."""
    config = ServingConfig(context_tokens=2048)
    crossover = compute_comm_crossover_context(
        config, 32, [1024, 4096, 16384, 65536]
    )
    assert crossover is not None
    short = serving_point(ServingConfig(context_tokens=1024), 32)
    long = serving_point(ServingConfig(context_tokens=65536), 32)
    assert long.stages.attention_compute > short.stages.attention_compute
    assert long.bound == "compute"


def test_throughput_rises_with_batch_in_compute_floor():
    """Small batches sit on the weight-streaming floor; batching
    amortizes it until communication binds."""
    frontier = throughput_latency_frontier(ServingConfig(context_tokens=512), [4, 16, 64])
    throughputs = [p.throughput_per_gpu for p in frontier]
    assert throughputs[1] > throughputs[0]
    # TPOT monotonically worsens with batch once comm-bound.
    assert frontier[-1].tpot > frontier[0].tpot


def test_combine_is_twice_dispatch():
    stages = decode_stage_times(ServingConfig(), 32)
    assert stages.combine_comm == pytest.approx(2 * stages.dispatch_comm)


def test_dispatch_matches_closed_form():
    cfg = ServingConfig(nic_bandwidth=40e9)
    stages = decode_stage_times(cfg, 32)
    expected = 32 * 9 * 7168 * 1.0 / 40e9
    assert stages.dispatch_comm == pytest.approx(expected)


def test_validation():
    with pytest.raises(ValueError):
        ServingConfig(model=TINY_DENSE_GQA)  # dense model: no EP
    with pytest.raises(ValueError):
        ServingConfig(nic_bandwidth=0)
    with pytest.raises(ValueError):
        ServingConfig(ep_degree=0)
    with pytest.raises(ValueError):
        serving_point(ServingConfig(), 0)
    with pytest.raises(ValueError):
        throughput_latency_frontier(ServingConfig(), [])


def test_ep_degree_controls_weight_traffic():
    """Fewer experts per GPU -> less weight streaming -> faster MoE."""
    dense_ep = decode_stage_times(ServingConfig(ep_degree=8, context_tokens=128), 4)
    sparse_ep = decode_stage_times(ServingConfig(ep_degree=256, context_tokens=128), 4)
    assert sparse_ep.moe_compute < dense_ep.moe_compute
