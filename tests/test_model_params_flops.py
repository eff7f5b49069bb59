"""Parameter counts and FLOPs — reproduces Table 2 and §2.2.1's sizes."""

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.model.config import AttentionConfig, AttentionKind, ModelConfig, MoEConfig


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


@st.composite
def _tiny_configs(draw):
    """Small ``ModelConfig``s over every attention kind, dense or MoE."""
    hidden = draw(st.sampled_from([8, 16]))
    heads = draw(st.sampled_from([1, 2, 4]))
    kind = draw(st.sampled_from(list(AttentionKind)))
    dim = draw(st.sampled_from([2, 4]))
    if kind is AttentionKind.MLA:
        attention = AttentionConfig(
            kind, heads, qk_head_dim=dim, v_head_dim=draw(st.sampled_from([2, 4])),
            kv_lora_rank=draw(st.sampled_from([4, 8])),
            q_lora_rank=draw(st.sampled_from([0, 4, 8])),
            qk_rope_head_dim=draw(st.sampled_from([2, 4])),
        )
    else:
        kv_heads = {
            AttentionKind.MHA: heads,
            AttentionKind.MQA: 1,
            AttentionKind.GQA: draw(st.sampled_from([d for d in (1, 2, 4) if heads % d == 0])),
        }[kind]
        attention = AttentionConfig(
            kind, heads, qk_head_dim=dim, v_head_dim=draw(st.sampled_from([2, 4])),
            num_kv_heads=kv_heads,
        )
    layers = draw(st.integers(1, 3))
    moe, dense_layers = None, 0
    if draw(st.booleans()):
        groups = draw(st.sampled_from([1, 2]))
        routed = groups * draw(st.integers(2, 3))
        moe = MoEConfig(
            num_routed_experts=routed,
            num_shared_experts=draw(st.integers(0, 2)),
            experts_per_token=draw(st.integers(1, 2)),
            intermediate_size=draw(st.sampled_from([4, 8])),
            num_expert_groups=groups,
            max_groups_per_token=draw(st.sampled_from([0, 1])) if groups > 1 else 0,
        )
        dense_layers = draw(st.integers(0, layers - 1))
    return ModelConfig(
        name="generated",
        hidden_size=hidden,
        num_layers=layers,
        vocab_size=draw(st.sampled_from([16, 32])),
        attention=attention,
        ffn_intermediate_size=draw(st.sampled_from([8, 16])),
        moe=moe,
        num_dense_layers=dense_layers,
        num_mtp_modules=draw(st.integers(0, 2)),
    )


@settings(max_examples=40, deadline=None)
@given(config=_tiny_configs(), seq_len=st.integers(4, 8), batch=st.integers(1, 2))
def test_table2_formulas_match_the_model_that_trains(config, seq_len, batch):
    """Table 2's closed forms against ``TrainableTransformer``.

    Parameters: ``num_parameters()`` is ``count_params(config).total``
    plus the RMSNorm gains, which ``count_params`` leaves out (they are
    not matmul weights): two per layer (attention and FFN pre-norms),
    one final norm, and per MTP module its two input norms plus its
    layer's two, each ``hidden_size`` wide.  The trainable model never
    ties its output head, so the configs keep ``tie_embeddings=False``.

    FLOPs: the matmuls one ``logits`` forward executes, counted by a spy
    on ``Tensor.__matmul__`` (2 x output elements x contracted dim, per
    token of the batch), equal ``forward_flops_per_token(config, S,
    causal=False)``.  The model computes the full S x S score matrix and
    masks it afterwards, so the executed count is the non-causal one;
    ``logits`` runs no MTP module, as ``active_linear`` counts none.
    """
    from unittest import mock

    import numpy as np

    from repro.autograd.tensor import Tensor
    from repro.training import TrainableTransformer

    model = TrainableTransformer(config, seed=0)
    h = config.hidden_size
    norms = h * (2 * config.num_layers + 1 + 4 * config.num_mtp_modules)
    assert model.num_parameters() == count_params(config).total + norms

    flops = 0
    matmul = Tensor.__matmul__

    def counted(self, other):
        nonlocal flops
        out = matmul(self, other)
        flops += 2 * out.data.size * self.shape[-1]
        return out

    tokens = np.random.default_rng(0).integers(0, config.vocab_size, size=(batch, seq_len))
    with mock.patch.object(Tensor, "__matmul__", counted):
        model.logits(tokens)
    per_token = flops / (batch * seq_len)
    assert per_token == forward_flops_per_token(config, seq_len, causal=False)


@settings(max_examples=40, deadline=None)
@given(config=_tiny_configs(), seq_len=st.integers(4, 8), batch=st.integers(1, 2))
def test_table2_training_rule_matches_the_backward_that_trains(config, seq_len, batch):
    """Table 2's training rule, ``training_flops_per_token`` = 3 x
    forward, against the backward pass ``TrainableTransformer`` runs.

    Forward FLOPs are counted as in the test above: a spy on
    ``Tensor.__matmul__``, 2 x output elements x contracted dim.
    Backward FLOPs are the numpy matmuls the autograd backward closures
    execute, counted the same way: both closures multiply the upstream
    gradient by one operand transposed with ``np.swapaxes``, so
    ``repro.autograd.tensor``'s ``np`` is replaced for the pass by a
    proxy whose ``swapaxes`` returns an ndarray subclass that counts the
    matmuls it takes part in.  The pass starts from a ones gradient on
    the ``logits`` output, so it covers exactly the forward counted.

    Every matmul operand in the model depends on a trainable parameter,
    so each forward matmul costs two in the backward (the gradient of
    each operand), and fwd + bwd is exactly ``training_flops_per_token(
    config, S, causal=False)`` per token of the batch.
    """
    import types
    from unittest import mock

    import numpy as np

    import repro.autograd.tensor as tensor_module
    from repro.autograd.tensor import Tensor
    from repro.training import TrainableTransformer

    flops = {"forward": 0, "backward": 0}

    class Counted(np.ndarray):
        """An operand whose matmuls count as backward FLOPs."""

        def __matmul__(self, other):
            out = np.asarray(self) @ other
            flops["backward"] += 2 * out.size * self.shape[-1]
            return out

        def __rmatmul__(self, other):
            out = other @ np.asarray(self)
            flops["backward"] += 2 * out.size * other.shape[-1]
            return out

    proxy = types.SimpleNamespace(**vars(np))
    proxy.swapaxes = lambda a, *axes: np.swapaxes(a, *axes).view(Counted)
    matmul = Tensor.__matmul__

    def counted(self, other):
        out = matmul(self, other)
        flops["forward"] += 2 * out.data.size * self.shape[-1]
        return out

    model = TrainableTransformer(config, seed=0)
    tokens = np.random.default_rng(0).integers(0, config.vocab_size, size=(batch, seq_len))
    with mock.patch.object(Tensor, "__matmul__", counted):
        logits = model.logits(tokens)
    with mock.patch.object(tensor_module, "np", proxy):
        logits.backward(np.ones_like(logits.data))
    assert flops["backward"] == 2 * flops["forward"]
    per_token = (flops["forward"] + flops["backward"]) / (batch * seq_len)
    assert per_token == training_flops_per_token(config, seq_len, causal=False)
