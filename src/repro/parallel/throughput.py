"""Cluster training-step model: the Table 4 reproduction.

Combines DualPipe's analytic pipeline bubble with FLOPs-derived chunk
costs to predict the full training-step decomposition the paper
reports for DeepSeek-V3 on 2,048 H800s: per-phase times (1F / 1B / 1W
/ bubble / 1F1B / opt), time per step, tokens per day, and MFU.

Calibration: one scalar — ``kernel_efficiency``, the fraction of BF16
peak the compute kernels achieve during non-idle time (~0.47 on H800,
consistent with Table 4's 38.9% causal MFU once bubbles and the
optimizer step are added back).  The B:F and W:F ratios default to the
measured decomposition (backward-input is more expensive than 2/3 of
the backward because attention recomputation lands there).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.hardware import GpuSpec, H800
from ..core.units import SECONDS_PER_DAY
from ..model.config import DEEPSEEK_V3, ModelConfig
from ..model.flops import forward_flops_per_token
from .mfu import MfuReport, mfu_report
from .schedule import ChunkCosts, analytic_dualpipe_bubble


@dataclass(frozen=True)
class TrainingJobConfig:
    """A data/pipeline/expert-parallel training job.

    Attributes:
        model: Model being trained.
        num_gpus: Total accelerators.
        pipeline_parallel: PP degree (DualPipe requires even).
        global_batch_sequences: Sequences per optimizer step.
        seq_len: Tokens per sequence.
        microbatch_sequences: Sequences per pipeline micro-batch.
        kernel_efficiency: Achieved fraction of BF16 peak in busy time.
        backward_input_ratio: B time as a multiple of F time.
        backward_weight_ratio: W time as a multiple of F time.
        optimizer_time: Per-step optimizer/update wall time (seconds).
        gpu: Accelerator model.
    """

    model: ModelConfig = DEEPSEEK_V3
    num_gpus: int = 2048
    pipeline_parallel: int = 16
    global_batch_sequences: int = 15360
    seq_len: int = 4096
    microbatch_sequences: int = 1
    kernel_efficiency: float = 0.45
    backward_input_ratio: float = 1.76
    backward_weight_ratio: float = 0.42
    optimizer_time: float = 0.30
    gpu: GpuSpec = H800

    def __post_init__(self) -> None:
        if self.num_gpus % self.pipeline_parallel:
            raise ValueError("num_gpus must divide by pipeline_parallel")
        if self.pipeline_parallel % 2:
            raise ValueError("DualPipe needs an even pipeline_parallel")
        if not 0 < self.kernel_efficiency <= 1:
            raise ValueError("kernel_efficiency must be in (0, 1]")

    @property
    def data_parallel(self) -> int:
        """DP (x EP) replica count."""
        return self.num_gpus // self.pipeline_parallel

    @property
    def tokens_per_step(self) -> int:
        """Tokens consumed per optimizer step."""
        return self.global_batch_sequences * self.seq_len

    @property
    def microbatches_per_rank(self) -> int:
        """Micro-batches each pipeline flows per step."""
        per_replica = self.global_batch_sequences // self.data_parallel
        if per_replica % self.microbatch_sequences:
            raise ValueError("global batch does not divide into micro-batches")
        return per_replica // self.microbatch_sequences

    def chunk_costs(self) -> ChunkCosts:
        """F/B/W durations of one micro-batch on one pipeline stage."""
        tokens = self.microbatch_sequences * self.seq_len
        fwd_flops = (
            tokens
            * forward_flops_per_token(self.model, self.seq_len, causal=True)
            / self.pipeline_parallel
        )
        f = fwd_flops / (self.gpu.bf16_flops * self.kernel_efficiency)
        return ChunkCosts(
            forward=f,
            backward_input=f * self.backward_input_ratio,
            backward_weight=f * self.backward_weight_ratio,
        )


@dataclass(frozen=True)
class StepReport:
    """Simulated training-step decomposition (the Table 4 rows)."""

    config: TrainingJobConfig
    busy: float
    warmup_forward: float  # "1F": P forward chunks filling the pipe
    warmup_backward: float  # "1B"
    weight_grad: float  # "1W"
    steady_phase: float  # "1F1B"
    bubble: float
    optimizer: float

    @property
    def step_time(self) -> float:
        """Wall time per optimizer step."""
        return self.busy + self.bubble + self.optimizer

    @property
    def tokens_per_day(self) -> float:
        """Training throughput in tokens/day."""
        return self.config.tokens_per_step * SECONDS_PER_DAY / self.step_time

    @property
    def mfu(self) -> MfuReport:
        """MFU accounting at this step time."""
        return mfu_report(
            self.config.model,
            self.config.tokens_per_step,
            self.step_time,
            self.config.num_gpus,
            self.config.seq_len,
            self.config.gpu,
        )


def simulate_training_step(
    config: TrainingJobConfig,
    comm_latency: float = 0.0,
) -> StepReport:
    """Simulate one DualPipe training step and decompose it.

    Args:
        config: Job description.
        comm_latency: *Non-overlapped* stage-to-stage communication
            latency per chunk; DualPipe's compute/communication overlap
            makes it ~0 on both MPFT and MRFT fabrics (which is why
            Table 4 shows identical throughput for the two networks).

    Returns:
        The step decomposition.
    """
    costs = config.chunk_costs()
    if config.microbatches_per_rank < 2:
        raise ValueError("need at least two micro-batches for DualPipe")
    busy = config.microbatches_per_rank * costs.total
    # The DualPipe paper's bubble formula: the production schedule.
    bubble = analytic_dualpipe_bubble(config.pipeline_parallel, costs)
    bubble += 2 * comm_latency * config.pipeline_parallel
    p = config.pipeline_parallel
    warm_f = p * costs.forward
    warm_b = p * costs.backward_input
    warm_w = p * costs.backward_weight
    return StepReport(
        config=config,
        busy=busy,
        warmup_forward=warm_f,
        warmup_backward=warm_b,
        weight_grad=warm_w,
        steady_phase=busy - warm_f - warm_b - warm_w,
        bubble=bubble,
        optimizer=config.optimizer_time,
    )


def tokens_per_day(tokens_per_step: float, step_time: float) -> float:
    """Throughput helper: tokens trained per day."""
    if step_time <= 0:
        raise ValueError("step_time must be positive")
    return tokens_per_step * SECONDS_PER_DAY / step_time


def training_gpu_hours(report: StepReport, total_tokens: float) -> float:
    """GPU-hours to train ``total_tokens`` at the simulated throughput.

    The V3 technical report the paper builds on quotes 2.664M H800
    GPU-hours for the 14.8T-token pre-training run; this derives the
    same quantity from the simulated step time.
    """
    if total_tokens <= 0:
        raise ValueError("total_tokens must be positive")
    days = total_tokens / report.tokens_per_day
    return days * 24.0 * report.config.num_gpus


def training_cost_usd(
    report: StepReport, total_tokens: float, gpu_hour_rate: float = 2.0
) -> float:
    """Dollar cost of the run at a GPU-hour rental rate.

    The V3 report uses $2/H800-hour, giving the widely quoted ~$5.3M
    pre-training figure.
    """
    if gpu_hour_rate <= 0:
        raise ValueError("gpu_hour_rate must be positive")
    return training_gpu_hours(report, total_tokens) * gpu_hour_rate
