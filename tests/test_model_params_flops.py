"""Parameter counts and FLOPs — reproduces Table 2 and §2.2.1's sizes."""

import pytest

from repro.model import (
    DEEPSEEK_V2,
    DEEPSEEK_V3,
    LLAMA31_405B,
    QWEN25_72B,
    attention_matmul_flops_per_token,
    compare_training_cost,
    count_params,
    decode_flops_per_token,
    ffn_params,
    forward_flops_per_token,
    training_flops_per_token,
)


def test_deepseek_v3_total_params_671b():
    # §2.2.1: "DeepSeek-V3 expands to 671B parameters" (main model;
    # the MTP module adds ~11.5B more, giving the ~685B checkpoint).
    params = count_params(DEEPSEEK_V3)
    assert params.total_main == pytest.approx(671e9, rel=0.01)
    assert params.total == pytest.approx(685e9, rel=0.01)


def test_deepseek_v3_active_params_37b():
    assert count_params(DEEPSEEK_V3).active == pytest.approx(37e9, rel=0.05)


def test_deepseek_v2_params():
    # §2.2.1: 236B total, 21B activated.
    params = count_params(DEEPSEEK_V2)
    assert params.total == pytest.approx(236e9, rel=0.01)
    assert params.active == pytest.approx(21e9, rel=0.05)


def test_dense_models_activate_everything():
    for model in (QWEN25_72B, LLAMA31_405B):
        params = count_params(model)
        assert params.active == params.total
        assert params.moe_total == 0


def test_qwen_and_llama_totals():
    assert count_params(QWEN25_72B).total == pytest.approx(72.7e9, rel=0.02)
    assert count_params(LLAMA31_405B).total == pytest.approx(405.8e9, rel=0.01)


def test_table2_deepseek_v2_gflops():
    # Table 2: DeepSeek-V2 155 GFLOPS/token at seq 4096.
    assert training_flops_per_token(DEEPSEEK_V2, 4096) / 1e9 == pytest.approx(155, rel=0.02)


def test_table2_deepseek_v3_gflops():
    # Table 2: DeepSeek-V3 250 GFLOPS/token.
    assert training_flops_per_token(DEEPSEEK_V3, 4096) / 1e9 == pytest.approx(250, rel=0.02)


def test_table2_llama_405b_gflops():
    # Table 2: LLaMA-405B 2448 GFLOPS/token.
    assert training_flops_per_token(LLAMA31_405B, 4096) / 1e9 == pytest.approx(2448, rel=0.02)


def test_table2_qwen_gflops_shape():
    # Table 2 reports 394; config-derived counting gives ~445 (the paper
    # value implies N~63B where the released model has ~70B of matmul
    # params — see EXPERIMENTS.md).  The *shape* claim holds: the dense
    # 72B model costs well over 1.5x the 671B MoE model per token.
    gf = training_flops_per_token(QWEN25_72B, 4096) / 1e9
    assert 380 <= gf <= 470
    assert gf > 1.5 * training_flops_per_token(DEEPSEEK_V3, 4096) / 1e9


def test_table2_order_of_magnitude_claim():
    # §2.2.1: MoE consumes "an order of magnitude less" than the 405B dense.
    v3 = training_flops_per_token(DEEPSEEK_V3, 4096)
    llama = training_flops_per_token(LLAMA31_405B, 4096)
    assert llama / v3 > 9


def test_causal_is_cheaper_than_noncausal():
    causal = training_flops_per_token(DEEPSEEK_V3, 4096, causal=True)
    full = training_flops_per_token(DEEPSEEK_V3, 4096, causal=False)
    assert causal < full
    attn_causal = attention_matmul_flops_per_token(DEEPSEEK_V3, 4096, True)
    attn_full = attention_matmul_flops_per_token(DEEPSEEK_V3, 4096, False)
    assert attn_full == pytest.approx(2 * attn_causal)


def test_training_is_3x_forward():
    fwd = forward_flops_per_token(DEEPSEEK_V3, 4096)
    train = training_flops_per_token(DEEPSEEK_V3, 4096)
    assert train == pytest.approx(3 * fwd)


def test_decode_flops_grow_with_context():
    short = decode_flops_per_token(DEEPSEEK_V3, 1024)
    long = decode_flops_per_token(DEEPSEEK_V3, 65536)
    assert long > short


def test_attention_flops_require_positive_seq():
    with pytest.raises(ValueError):
        attention_matmul_flops_per_token(DEEPSEEK_V3, 0)


def test_compare_training_cost_report():
    reports = compare_training_cost([DEEPSEEK_V3, QWEN25_72B])
    assert reports[0].kind == "MoE"
    assert reports[1].kind == "Dense"
    assert reports[0].gflops_per_token < reports[1].gflops_per_token
    assert reports[0].total_params > reports[1].total_params


def test_ffn_params_formula():
    assert ffn_params(10, 20) == 600


def test_param_breakdown_components_sum():
    p = count_params(DEEPSEEK_V3)
    assert p.total == (
        p.embedding + p.output_head + p.attention + p.dense_ffn
        + p.moe_total + p.gates + p.mtp_total
    )
    assert p.active_linear < p.active


def test_count_params_is_memoized_by_value():
    """The serving cost model asks on every prefill-cost cache miss; an
    equal (frozen) config gets the same breakdown without a recount."""
    from dataclasses import replace

    assert count_params(DEEPSEEK_V3) is count_params(DEEPSEEK_V3)
    twin = replace(DEEPSEEK_V3)
    assert twin is not DEEPSEEK_V3 and count_params(twin) is count_params(DEEPSEEK_V3)
    smaller = replace(DEEPSEEK_V3, num_layers=DEEPSEEK_V3.num_layers - 1)
    assert count_params(smaller).total < count_params(DEEPSEEK_V3).total
