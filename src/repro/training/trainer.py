"""Training loop and the Section 2.4 precision-validation pipeline.

§2.4 describes a hierarchical methodology: validate each acceleration
technique on small models before committing the full run, measuring
the relative accuracy loss of FP8 fine-grained training against the
BF16 baseline (<0.25% on the paper's 16B/230B ablations).  The
pipeline here does exactly that at laptop scale: identical
initialization, identical data order, only the precision policy
differs; the deliverable is the relative loss gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..autograd.optim import AdamW
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..model.config import ModelConfig, TINY_MLA_MOE
from .data import SyntheticCorpus, batch_iterator, markov_corpus
from .model import TrainableTransformer
from .modules import BF16_POLICY, FP8_POLICY, PrecisionPolicy


@dataclass
class TrainResult:
    """Outcome of one training run."""

    policy_name: str
    losses: list[float] = field(default_factory=list)
    metrics: MetricsRegistry | None = field(default=None, repr=False, compare=False)

    @property
    def final_loss(self) -> float:
        """Mean loss over the last 10% of steps (noise-robust)."""
        if not self.losses:
            raise ValueError("no steps recorded")
        tail = max(1, len(self.losses) // 10)
        return float(np.mean(self.losses[-tail:]))


def train(
    model: TrainableTransformer,
    corpus: SyntheticCorpus,
    steps: int,
    batch_size: int = 8,
    seq_len: int = 32,
    lr: float = 3e-3,
    data_seed: int = 0,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> TrainResult:
    """Train ``model`` on ``corpus`` and record the loss curve.

    With a tracer attached, each optimizer step becomes a span in a
    "trainer" trace process on the *step-index* clock (1 simulated
    second per step — deterministic, unlike wall time) with the loss as
    a counter track.  The registry records per-step wall-clock timing
    (``train.step_seconds`` histogram), the loss curve as a series and
    token/step counters.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    tracer = NULL_TRACER if tracer is None else tracer
    metrics = metrics if metrics is not None else MetricsRegistry()
    tracer.process(1, f"trainer:{model.policy.name}")
    step_counter = metrics.counter("train.steps")
    token_counter = metrics.counter("train.tokens")
    step_seconds = metrics.histogram("train.step_seconds")
    loss_series = metrics.series("train.loss")
    optimizer = AdamW(model.parameters(), lr=lr, weight_decay=0.01)
    result = TrainResult(policy_name=model.policy.name)
    result.metrics = metrics
    for step, batch in enumerate(
        batch_iterator(corpus, batch_size, seq_len, steps, seed=data_seed)
    ):
        wall_start = time.perf_counter()
        breakdown = model.loss(batch)
        optimizer.zero_grad()
        breakdown.total.backward()
        optimizer.step()
        loss = float(breakdown.total.data)
        result.losses.append(loss)
        step_counter.inc()
        token_counter.inc(batch_size * seq_len)
        step_seconds.observe(time.perf_counter() - wall_start)
        loss_series.record(float(step), loss)
        if tracer.enabled:
            tracer.complete(
                "step", "train", 1, 0, float(step), 1.0,
                args={"loss": loss, "step": step},
            )
            tracer.counter("loss", 1, float(step), {"loss": loss})
    return result


@dataclass(frozen=True)
class ValidationReport:
    """FP8-vs-baseline comparison (the §2.4 deliverable)."""

    baseline: TrainResult
    candidate: TrainResult

    @property
    def relative_loss_gap(self) -> float:
        """(candidate - baseline) / baseline final loss."""
        base = self.baseline.final_loss
        return (self.candidate.final_loss - base) / base


def validate_precision(
    config: ModelConfig = TINY_MLA_MOE,
    baseline_policy: PrecisionPolicy = BF16_POLICY,
    candidate_policy: PrecisionPolicy = FP8_POLICY,
    steps: int = 200,
    batch_size: int = 8,
    seq_len: int = 32,
    seed: int = 0,
    corpus: SyntheticCorpus | None = None,
) -> ValidationReport:
    """Run the paired-precision experiment of Section 2.4.

    Both runs share the model seed (identical initialization) and the
    data seed (identical batch order); only the precision policy of
    the linear layers differs.
    """
    corpus = corpus or markov_corpus(config.vocab_size, 20_000, seed=seed)
    runs = []
    for policy in (baseline_policy, candidate_policy):
        model = TrainableTransformer(config, seed=seed, policy=policy)
        runs.append(
            train(
                model,
                corpus,
                steps,
                batch_size=batch_size,
                seq_len=seq_len,
                data_seed=seed,
            )
        )
    return ValidationReport(baseline=runs[0], candidate=runs[1])
