"""Communication substrate: EP all-to-all, overlap, IBGDA, contention."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "contention": (
        "ARBITRATION_SCHEMES", "ContentionResult", "ep_slowdown", "shared_pipe_times",
    ),
    "ep": (
        "COMBINE_BYTES_PER_ELEMENT", "DEEPSEEK_V3_EP", "DISPATCH_BYTES_PER_ELEMENT",
        "EPConfig", "EPDeployment", "EPStageResult", "ib_cost_factor", "run_ep_stage",
    ),
    "innetwork": (
        "InNetworkSavings", "combine_savings", "dispatch_savings",
        "ep_stage_time_with_innetwork", "expected_reduction_factor",
        "logfmt_wire_savings", "simulated_mean_m",
    ),
    "ordering": (
        "ORDERING_SCHEMES", "OrderedStreamConfig", "ordering_overhead_fraction",
        "rar_speedup", "stream_completion_time",
    ),
    "ibgda": (
        "CPU_PROXY", "IBGDA", "ControlPlaneModel", "ibgda_speedup",
        "small_message_send_latency",
    ),
    "overlap": (
        "H800_COMM_SMS_TRAINING", "StageTimes", "gpu_idle_fraction", "layer_time",
        "overlap_efficiency", "sm_compute_penalty",
    ),
})
