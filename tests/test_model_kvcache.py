"""KV-cache size model — reproduces Table 1 exactly."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.model import (
    DEEPSEEK_V3,
    LLAMA31_405B,
    MODEL_CATALOG,
    QWEN25_72B,
    TINY_DENSE_GQA,
    TINY_MLA_MOE,
    AttentionConfig,
    AttentionKind,
    LayerKVCache,
    compare_kv_cache,
    kv_cache_bytes,
    kv_cache_bytes_per_token,
    max_context_tokens,
)
from repro.model.kvcache import DTYPE_BYTES


def test_table1_deepseek_v3_bytes_exact():
    # (512 latent + 64 rope) * 2 bytes * 61 layers = 70,272 B = "70.272 KB".
    assert kv_cache_bytes_per_token(DEEPSEEK_V3) == 70272


def test_table1_qwen_bytes_exact():
    # 2 * 8 kv heads * 128 dim * 2 bytes * 80 layers = 327,680 B.
    assert kv_cache_bytes_per_token(QWEN25_72B) == 327680


def test_table1_llama_bytes_exact():
    # 2 * 8 kv heads * 128 dim * 2 bytes * 126 layers = 516,096 B.
    assert kv_cache_bytes_per_token(LLAMA31_405B) == 516096


#: Table 1's BF16 bytes per token for every preset, worked by hand.
_PRESET_BF16_BYTES = {
    "deepseek-v3": 61 * (512 + 64) * 2,  # 70,272
    "deepseek-v2": 60 * (512 + 64) * 2,  # 69,120
    "qwen2.5-72b": 80 * 2 * 8 * 128 * 2,  # 327,680
    "llama3.1-405b": 126 * 2 * 8 * 128 * 2,  # 516,096
    "llama3.1-70b": 80 * 2 * 8 * 128 * 2,  # 327,680
    "tiny-mla-moe": 4 * (16 + 8) * 2,  # 192
    "tiny-dense-gqa": 4 * 2 * 2 * 8 * 2,  # 256
}


@pytest.mark.parametrize("dtype", ["bf16", "fp16", "fp8", "fp32", "int4"])
@pytest.mark.parametrize("name", sorted(MODEL_CATALOG))
def test_table1_closed_form_for_every_preset(name, dtype):
    """MLA caches layers x (latent + RoPE dims) x bytes; GQA and MHA
    cache layers x 2 x KV heads x head dim x bytes."""
    model = MODEL_CATALOG[name]
    attention = model.attention
    width = DTYPE_BYTES[dtype]
    if attention.kind is AttentionKind.MLA:
        expected = model.num_layers * (attention.kv_lora_rank + attention.qk_rope_head_dim) * width
    else:
        assert attention.kind in (AttentionKind.GQA, AttentionKind.MHA)
        expected = model.num_layers * 2 * attention.num_kv_heads * attention.qk_head_dim * width
    assert kv_cache_bytes_per_token(model, dtype) == expected
    assert kv_cache_bytes_per_token(model) == _PRESET_BF16_BYTES[name]


def test_table1_multipliers():
    reports = compare_kv_cache([DEEPSEEK_V3, QWEN25_72B, LLAMA31_405B])
    by_name = {r.model_name: r for r in reports}
    assert by_name["DeepSeek-V3"].multiplier == pytest.approx(1.0)
    assert by_name["Qwen-2.5 72B"].multiplier == pytest.approx(4.66, abs=0.01)
    # 516096/70272 = 7.344; the paper prints 7.28x (see EXPERIMENTS.md).
    assert by_name["LLaMA-3.1 405B"].multiplier == pytest.approx(7.28, abs=0.08)


def test_table1_kb_display_unit():
    reports = compare_kv_cache([DEEPSEEK_V3])
    assert reports[0].kb_per_token == pytest.approx(70.272)
    assert reports[0].kib_per_token == pytest.approx(68.625)


def test_fp8_cache_halves_bf16():
    assert kv_cache_bytes_per_token(DEEPSEEK_V3, "fp8") == pytest.approx(
        kv_cache_bytes_per_token(DEEPSEEK_V3, "bf16") / 2
    )


def test_unknown_dtype_rejected():
    with pytest.raises(ValueError):
        kv_cache_bytes_per_token(DEEPSEEK_V3, "fp64")


def test_total_cache_scales_linearly():
    one = kv_cache_bytes(DEEPSEEK_V3, context_tokens=1000, batch_size=1)
    many = kv_cache_bytes(DEEPSEEK_V3, context_tokens=1000, batch_size=16)
    assert many == pytest.approx(16 * one)


def test_negative_context_rejected():
    with pytest.raises(ValueError):
        kv_cache_bytes(DEEPSEEK_V3, context_tokens=-1)


def test_max_context_on_h800_hbm():
    # With 80 GB HBM an MLA cache fits >1M tokens; a GQA 405B cache far fewer.
    budget = 80 * 1024**3
    mla = max_context_tokens(DEEPSEEK_V3, budget)
    gqa = max_context_tokens(LLAMA31_405B, budget)
    assert mla > 1_000_000
    assert mla > 7 * gqa


@given(
    kv_heads=st.integers(1, 16),
    head_dim=st.sampled_from([32, 64, 128]),
    group=st.integers(1, 8),
)
def test_gqa_cache_grows_with_kv_heads(kv_heads, head_dim, group):
    cfg = AttentionConfig(
        kind=AttentionKind.GQA,
        num_heads=kv_heads * group,
        qk_head_dim=head_dim,
        v_head_dim=head_dim,
        num_kv_heads=kv_heads,
    )
    model = QWEN25_72B.scaled("t", attention=cfg)
    assert kv_cache_bytes_per_token(model) == 2 * kv_heads * head_dim * 2 * model.num_layers


def test_layer_cache_appends_kv():
    cfg = TINY_DENSE_GQA.attention
    cache = LayerKVCache(cfg, batch_size=2)
    k = np.zeros((2, cfg.num_kv_heads, 3, cfg.qk_head_dim), np.float32)
    v = np.zeros((2, cfg.num_kv_heads, 3, cfg.v_head_dim), np.float32)
    cache.append_kv(k, v)
    assert len(cache) == 3
    cache.append_kv(k[:, :, :1], v[:, :, :1])
    assert len(cache) == 4
    assert cache.keys.shape[2] == 4


def test_layer_cache_appends_latent():
    cfg = TINY_MLA_MOE.attention
    cache = LayerKVCache(cfg, batch_size=1)
    cache.append_latent(
        np.zeros((1, 5, cfg.kv_lora_rank), np.float32),
        np.zeros((1, 5, cfg.qk_rope_head_dim), np.float32),
    )
    assert len(cache) == 5
    assert cache.latent.shape == (1, 5, cfg.kv_lora_rank)


def test_layer_cache_kind_mismatch_raises():
    mla_cache = LayerKVCache(TINY_MLA_MOE.attention, batch_size=1)
    with pytest.raises(TypeError):
        mla_cache.append_kv(np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
    with pytest.raises(TypeError):
        _ = mla_cache.keys
    kv_cache = LayerKVCache(TINY_DENSE_GQA.attention, batch_size=1)
    with pytest.raises(TypeError):
        kv_cache.append_latent(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
    with pytest.raises(TypeError):
        _ = kv_cache.latent


def test_layer_cache_nbytes_matches_analytical():
    cfg = TINY_MLA_MOE.attention
    cache = LayerKVCache(cfg, batch_size=2)
    cache.append_latent(
        np.zeros((2, 7, cfg.kv_lora_rank), np.float32),
        np.zeros((2, 7, cfg.qk_rope_head_dim), np.float32),
    )
    expected = (cfg.kv_lora_rank + cfg.qk_rope_head_dim) * 2 * 7 * 2
    assert cache.nbytes("bf16") == expected
