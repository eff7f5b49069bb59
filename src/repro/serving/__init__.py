"""Request-level discrete-event serving simulator (§2.3.1–§2.3.3).

The closed-form models in :mod:`repro.inference` give steady-state
TPOT/throughput; this subsystem simulates the dynamics they average
away — queueing under bursty arrivals, continuous-batch formation,
paged KV-cache pressure with preemption/recompute, prefill/decode
disaggregation, and MTP speculative decoding — producing TTFT/TPOT/E2E
percentile distributions, queue and KV-occupancy traces, and goodput
under SLOs.  Per-step costs are calibrated from the analytic rooflines
so the simulator's saturated steady state cross-validates against the
closed forms (pinned by ``tests/test_serving_sim.py``).
"""

from .calqueue import CalendarQueue
from .costmodel import MTPConfig, StepCostModel
from .kvpool import KVPoolConfig, PagedKVPool, kv_pool_blocks
from .report import (
    KV_OCCUPANCY,
    QUEUE_DEPTH,
    SLO,
    LatencyStats,
    RunFold,
    SimReport,
    build_report,
    build_streaming_report,
    compact_record,
    report_asdict,
)
from .scheduler import (
    SchedulerConfig,
    form_prefill_batch,
    pick_preemption_victim,
    select_decode_batch,
)
from .simulator import (
    COLOCATED,
    DISAGGREGATED,
    ServingSimulator,
    SimConfig,
)
from .workload import (
    Request,
    RequestColumns,
    WorkloadSpec,
    generate_request_columns,
    generate_requests,
)

__all__ = [
    "CalendarQueue",
    "MTPConfig",
    "StepCostModel",
    "KVPoolConfig",
    "PagedKVPool",
    "kv_pool_blocks",
    "SLO",
    "LatencyStats",
    "RunFold",
    "SimReport",
    "build_report",
    "build_streaming_report",
    "compact_record",
    "report_asdict",
    "SchedulerConfig",
    "form_prefill_batch",
    "pick_preemption_victim",
    "select_decode_batch",
    "COLOCATED",
    "DISAGGREGATED",
    "KV_OCCUPANCY",
    "QUEUE_DEPTH",
    "ServingSimulator",
    "SimConfig",
    "Request",
    "RequestColumns",
    "WorkloadSpec",
    "generate_request_columns",
    "generate_requests",
]
