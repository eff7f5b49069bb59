"""Model architecture: configs, attention variants, MoE, MTP, analytics."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "alternatives": (
        "DecodeAttentionCost", "compare_decode_costs", "full_attention_cost",
        "linear_attention_cost", "quantized_cache_cost", "sparse_attention_cost",
        "windowed_attention_cost",
    ),
    "attention": (
        "MultiHeadAttention", "MultiHeadLatentAttention", "apply_rope", "build_attention",
        "causal_attention", "softmax",
    ),
    "config": (
        "DEEPSEEK_V2", "DEEPSEEK_V3", "LLAMA31_405B", "LLAMA31_70B", "MODEL_CATALOG",
        "QWEN25_72B", "TINY_DENSE_GQA", "TINY_MLA_MOE", "AttentionConfig",
        "AttentionKind", "ModelConfig", "MoEConfig",
    ),
    "flops": (
        "TrainingCostReport", "attention_matmul_flops_per_token", "compare_training_cost",
        "decode_flops_per_token", "forward_flops_per_token", "training_flops_per_token",
    ),
    "kvcache": (
        "KVCacheReport", "LayerKVCache", "compare_kv_cache", "kv_cache_bytes",
        "kv_cache_bytes_per_token", "max_context_tokens", "windowed_kv_cache_bytes",
    ),
    "moe": ("DeepSeekMoELayer", "DenseFfn", "ExpertWeights", "swiglu"),
    "params": ("ParamBreakdown", "attention_params", "count_params", "ffn_params"),
    "routing": (
        "MoEGate", "RoutingDecision", "expert_load", "load_imbalance",
        "mean_nodes_touched", "node_limited_topk", "nodes_touched", "topk_routing",
    ),
    "transformer": ("MTPModule", "RMSNorm", "Transformer", "TransformerLayer"),
})
