"""Parameter counting for the model configurations.

Separates *total* parameters (what must be stored — the 671B of
DeepSeek-V3) from *activated* parameters (what one token actually
multiplies against — the 37B), the distinction Section 2.2.1 builds
its cost argument on.  Counts are derived purely from the
configuration, layer by layer, and validated against the published
totals in tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .config import AttentionConfig, AttentionKind, ModelConfig


def attention_params(attention: AttentionConfig, hidden_size: int) -> int:
    """Weight parameters of one attention block."""
    heads = attention.num_heads
    if attention.kind is AttentionKind.MLA:
        nope, rope = attention.qk_head_dim, attention.qk_rope_head_dim
        q_in = attention.q_lora_rank if attention.q_lora_rank else hidden_size
        total = 0
        if attention.q_lora_rank:
            total += hidden_size * attention.q_lora_rank  # w_dq
        total += q_in * heads * (nope + rope)  # w_uq
        total += hidden_size * attention.kv_lora_rank  # w_dkv
        total += hidden_size * rope  # w_kr
        total += attention.kv_lora_rank * heads * nope  # w_uk
        total += attention.kv_lora_rank * heads * attention.v_head_dim  # w_uv
        total += heads * attention.v_head_dim * hidden_size  # w_o
        return total
    qk, v, kv_heads = attention.qk_head_dim, attention.v_head_dim, attention.num_kv_heads
    return (
        hidden_size * heads * qk  # w_q
        + hidden_size * kv_heads * (qk + v)  # w_k, w_v
        + heads * v * hidden_size  # w_o
    )


def ffn_params(hidden_size: int, intermediate_size: int) -> int:
    """Weight parameters of one SwiGLU FFN (gate + up + down)."""
    return 3 * hidden_size * intermediate_size


@dataclass(frozen=True)
class ParamBreakdown:
    """Total vs activated parameter decomposition of a model."""

    model_name: str
    embedding: int
    output_head: int
    attention: int
    dense_ffn: int
    moe_total: int
    moe_active: int
    gates: int
    mtp_total: int
    mtp_active: int

    @property
    def total(self) -> int:
        """All stored parameters (the paper's headline model size)."""
        return (
            self.embedding
            + self.output_head
            + self.attention
            + self.dense_ffn
            + self.moe_total
            + self.gates
            + self.mtp_total
        )

    @property
    def total_main(self) -> int:
        """Stored parameters excluding MTP modules.

        DeepSeek-V3's headline "671B" counts the main model only; the
        checkpoint with the MTP module is ~685B.
        """
        return self.total - self.mtp_total

    @property
    def active(self) -> int:
        """Parameters touched per token (paper's 'activated')."""
        return (
            self.embedding
            + self.output_head
            + self.attention
            + self.dense_ffn
            + self.moe_active
            + self.gates
            + self.mtp_active
        )

    @property
    def active_linear(self) -> int:
        """Activated matmul parameters of the main model.

        This is the N in the ``6 N`` training-FLOPs rule: it excludes
        the embedding lookup (no matmul) and MTP modules (reported
        training cost refers to the main next-token path) but includes
        the output head.
        """
        return (
            self.output_head + self.attention + self.dense_ffn + self.moe_active + self.gates
        )


@functools.lru_cache(maxsize=64)
def count_params(model: ModelConfig) -> ParamBreakdown:
    """Count total and activated parameters of ``model``.

    Memoized (both types are frozen): the serving cost model asks again
    on every prefill-cost cache miss.
    """
    h = model.hidden_size
    embedding = model.vocab_size * h
    output_head = 0 if model.tie_embeddings else model.vocab_size * h
    attention = model.num_layers * attention_params(model.attention, h)

    if model.moe is None:
        dense_ffn = model.num_layers * ffn_params(h, model.ffn_intermediate_size)
        moe_total = moe_active = gates = 0
    else:
        moe = model.moe
        dense_ffn = model.num_dense_layers * ffn_params(h, model.ffn_intermediate_size)
        expert = ffn_params(h, moe.intermediate_size)
        per_layer_total = (moe.num_routed_experts + moe.num_shared_experts) * expert
        per_layer_active = moe.active_experts_per_token * expert
        moe_total = model.num_moe_layers * per_layer_total
        moe_active = model.num_moe_layers * per_layer_active
        gates = model.num_moe_layers * h * moe.num_routed_experts

    mtp_total = mtp_active = 0
    if model.num_mtp_modules:
        # Each MTP module: one full transformer layer (attention + the
        # model's FFN flavour) plus the 2h -> h combining projection.
        layer_attn = attention_params(model.attention, h)
        if model.moe is None:
            layer_ffn_total = layer_ffn_active = ffn_params(h, model.ffn_intermediate_size)
            layer_gate = 0
        else:
            expert = ffn_params(h, model.moe.intermediate_size)
            layer_ffn_total = (
                model.moe.num_routed_experts + model.moe.num_shared_experts
            ) * expert
            layer_ffn_active = model.moe.active_experts_per_token * expert
            layer_gate = h * model.moe.num_routed_experts
        proj = 2 * h * h
        mtp_total = model.num_mtp_modules * (layer_attn + layer_ffn_total + layer_gate + proj)
        mtp_active = model.num_mtp_modules * (layer_attn + layer_ffn_active + layer_gate + proj)

    return ParamBreakdown(
        model_name=model.name,
        embedding=embedding,
        output_head=output_head,
        attention=attention,
        dense_ffn=dense_ffn,
        moe_total=moe_total,
        moe_active=moe_active,
        gates=gates,
        mtp_total=mtp_total,
        mtp_active=mtp_active,
    )
