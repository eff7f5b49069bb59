"""Inference-side models: TPOT limits, decode rooflines, speculation."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "decode": (
        "DecodeEstimate", "decode_tps", "offloaded_decode_tps", "soc_decode_tps",
        "weight_bytes_per_token",
    ),
    "disagg": (
        "DisaggregationPlan", "Workload", "decode_gpus_needed", "plan_deployment",
        "prefill_flops_per_request", "prefill_gpus_needed",
    ),
    "serving": (
        "ServingConfig", "ServingPoint", "compute_comm_crossover_context",
        "decode_stage_times", "serving_point", "throughput_latency_frontier",
    ),
    "speculative": (
        "SpeculativeResult", "mtp_speedup", "simulate_acceptance", "speculative_generate",
    ),
    "tpot": (
        "DEEPSEEK_V3_INFERENCE", "EPInferenceConfig", "TpotRow", "comm_time_per_stage",
        "compare_interconnects", "time_per_layer", "tokens_per_second", "tpot_limit",
    ),
})
