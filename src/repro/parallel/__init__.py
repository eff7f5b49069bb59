"""Parallelism substrate: pipeline schedules, MFU, cluster throughput."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "memory": (
        "MemoryBreakdown", "ShardingPlan", "activation_bytes_per_microbatch",
        "activation_imbalance", "fits", "inflight_microbatches", "params_per_gpu",
        "training_memory_per_gpu",
    ),
    "mfu": ("MfuReport", "mfu_report"),
    "schedule": (
        "ChunkCosts", "ScheduleResult", "TaskRecord", "analytic_1f1b_bubble",
        "analytic_dualpipe_bubble", "analytic_zb1p_bubble", "simulate_pipeline",
    ),
    "throughput": (
        "StepReport", "TrainingJobConfig", "simulate_training_step", "tokens_per_day",
        "training_cost_usd", "training_gpu_hours",
    ),
})
