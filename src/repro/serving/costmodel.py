"""Per-step costs for the serving simulator, calibrated from the
analytical models.

The calibration contract (pinned by ``tests/test_serving_sim.py``):

* A decode step over per-device micro-batch ``b`` costs exactly the
  analytic TPOT of :func:`repro.inference.serving.serving_point` at
  batch ``b`` — MLA/MoE rooflines plus EP dispatch/combine under dual
  micro-batch overlap.  A saturated simulated decode pool therefore
  reproduces the closed-form throughput-latency frontier, while an
  unsaturated one exposes the queueing behaviour the closed form
  averages away.
* A prefill batch costs its forward FLOPs against the pool's aggregate
  compute at :func:`repro.inference.disagg.prefill_gpus_needed`'s
  efficiency, so the simulator's prefill capacity matches the §2.3.1
  pool-sizing model.
* MTP speculative decoding scales the step by the same
  ``1 + draft_overhead`` and accepts drafts at the same rate as
  :func:`repro.inference.speculative.mtp_speedup`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..comm.overlap import layer_time
from ..inference.serving import ServingConfig, decode_stage_times
from ..model.flops import forward_flops_per_token
from ..model.kvcache import kv_cache_bytes_per_token


@dataclass(frozen=True)
class MTPConfig:
    """Speculative-decoding knobs (§2.3.3)."""

    enabled: bool = False
    acceptance_rate: float = 0.85
    draft_overhead: float = 1.0 / 61.0

    def __post_init__(self) -> None:
        if not 0 <= self.acceptance_rate <= 1:
            raise ValueError("acceptance_rate must be in [0, 1]")
        if self.draft_overhead < 0:
            raise ValueError("draft_overhead must be non-negative")


@dataclass
class StepCostModel:
    """Step-time oracle shared by every pool in one simulation.

    Attributes:
        serving: The decode-side scenario (model, GPU, NIC, EP degree).
        prefill_efficiency: Achieved FLOP fraction during prefill
            (§2.3.1's pool-sizing default).
        mtp: Speculative-decoding configuration.
        kv_transfer_bandwidth: Prefill-to-decode KV migration bandwidth
            per request stream (disaggregated mode), bytes/s.
        kv_dtype: KV-cache precision for migration sizing.
    """

    serving: ServingConfig = field(default_factory=ServingConfig)
    prefill_efficiency: float = 0.5
    mtp: MTPConfig = field(default_factory=MTPConfig)
    kv_transfer_bandwidth: float = 40e9
    kv_dtype: str = "bf16"

    def __post_init__(self) -> None:
        if not 0 < self.prefill_efficiency <= 1:
            raise ValueError("prefill_efficiency must be in (0, 1]")
        if self.kv_transfer_bandwidth <= 0:
            raise ValueError("kv_transfer_bandwidth must be positive")
        self._decode_cache: dict[tuple[int, int], float] = {}
        self._prefill_cache: dict[tuple[int, int], float] = {}
        self._kv_bytes_per_token: float | None = None

    def decode_step_time(self, per_device_batch: int, context_tokens: int) -> float:
        """One decode iteration (one token per request) at this load.

        Matches the analytic ``serving_point(...).tpot``:
        ``num_layers x 2 x max(compute, comm)`` under dual micro-batch
        overlap, with the MTP verification overhead applied on top when
        speculation is on.
        """
        key = (per_device_batch, context_tokens)
        base = self._decode_cache.get(key)
        if base is None:
            config = self.serving
            if context_tokens != config.context_tokens:
                config = replace(config, context_tokens=context_tokens)
            stages = decode_stage_times(config, per_device_batch)
            slot = layer_time(stages, dual_microbatch=True)
            base = config.model.num_layers * 2.0 * slot
            self._decode_cache[key] = base
        if self.mtp.enabled:
            return base * (1.0 + self.mtp.draft_overhead)
        return base

    def prefill_time(self, total_prompt_tokens: int, num_gpus: int) -> float:
        """Process a prefill batch of ``total_prompt_tokens`` tokens."""
        key = (total_prompt_tokens, num_gpus)
        cached = self._prefill_cache.get(key)
        if cached is not None:
            return cached
        if total_prompt_tokens < 1 or num_gpus < 1:
            raise ValueError("prefill needs positive tokens and GPUs")
        model = self.serving.model
        flops = (
            forward_flops_per_token(model, total_prompt_tokens, causal=True)
            * total_prompt_tokens
        )
        time = flops / (num_gpus * self.serving.gpu.bf16_flops * self.prefill_efficiency)
        self._prefill_cache[key] = time
        return time

    def kv_transfer_time(self, context_tokens: int) -> float:
        """Migrate one request's KV cache from prefill to decode pool."""
        kv_bytes = self._kv_bytes_per_token
        if kv_bytes is None:
            kv_bytes = kv_cache_bytes_per_token(self.serving.model, self.kv_dtype)
            self._kv_bytes_per_token = kv_bytes
        return context_tokens * kv_bytes / self.kv_transfer_bandwidth
