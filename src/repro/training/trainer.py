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

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..autograd.optim import AdamW
from ..core.rng import seeded_generator
from ..faults.schedule import FaultSchedule
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


# -- checkpoint/restart goodput simulation (repro.faults) ----------------


@dataclass(frozen=True)
class GoodputReport:
    """Wall-clock accounting of a simulated checkpointed training run.

    The identity ``wall_time = work_target + checkpoint_time +
    restart_time + lost_time`` holds exactly: every simulated second is
    either committed work, a completed checkpoint, a completed restart,
    or waste discarded by a failure (lost work, partial checkpoints,
    partial restarts).
    """

    work_target: float
    wall_time: float
    checkpoint_time: float
    restart_time: float
    lost_time: float
    failures: int
    checkpoints: int

    @property
    def goodput(self) -> float:
        """Fraction of wall time spent on committed useful work — the
        simulated counterpart of
        :func:`repro.reliability.goodput_fraction`."""
        return self.work_target / self.wall_time if self.wall_time > 0 else 0.0

    def asdict(self) -> dict:
        """JSON-able record including the derived ``goodput`` (which
        ``dataclasses.asdict`` would drop — it is a property)."""
        return {
            "work_target_s": self.work_target,
            "wall_time_s": self.wall_time,
            "checkpoint_time_s": self.checkpoint_time,
            "restart_time_s": self.restart_time,
            "lost_time_s": self.lost_time,
            "failures": self.failures,
            "checkpoints": self.checkpoints,
            "goodput": self.goodput,
        }


def simulate_checkpointed_training(
    work_target: float,
    interval: float,
    checkpoint_cost: float,
    restart_cost: float,
    *,
    mtbf: float | None = None,
    faults: FaultSchedule | None = None,
    seed: int = 0,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> GoodputReport:
    """Simulate a training job surviving failures via checkpoint/restart.

    The job needs ``work_target`` seconds of useful compute, pays
    ``checkpoint_cost`` after every ``interval`` seconds of progress,
    and on each failure discards everything since the last completed
    checkpoint and pays ``restart_cost`` before resuming.  Failures
    during a checkpoint lose the preceding interval too; failures
    during a restart restart the restart.  This is the §6.1 scenario
    the Young-Daly closed form (:func:`repro.reliability.goodput_fraction`)
    analyzes in expectation — the simulation reproduces it event by
    event, and the test suite pins the two against each other at the
    optimal interval.

    Failure instants come from ``faults`` (the ``step`` events of a
    :class:`repro.faults.FaultSchedule`, exhausted in order) or are
    sampled lazily at exponential ``mtbf`` gaps from
    ``seeded_generator(seed, "train.faults")``; with neither the run is
    failure-free.  Wholly deterministic for a given seed.
    """
    if work_target <= 0 or interval <= 0:
        raise ValueError("work_target and interval must be positive")
    if checkpoint_cost < 0 or restart_cost < 0:
        raise ValueError("checkpoint and restart costs must be non-negative")
    tracer = NULL_TRACER if tracer is None else tracer
    metrics = metrics if metrics is not None else MetricsRegistry()
    tracer.process(1, "trainer:checkpointed")

    if faults is not None:
        fail_iter = iter(faults.times(("step",)))

        def next_failure() -> float:
            return next(fail_iter, math.inf)

    elif mtbf is not None:
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        rng = seeded_generator(seed, "train.faults")
        clock = 0.0

        def next_failure() -> float:
            nonlocal clock
            clock += float(rng.exponential(mtbf))
            return clock

    else:

        def next_failure() -> float:
            return math.inf

    t = 0.0
    done = 0.0
    checkpoint_time = restart_time = lost_time = 0.0
    failures = 0
    checkpoints = 0
    next_fail = next_failure()

    def span(name: str, start: float, end: float) -> None:
        if tracer.enabled:
            tracer.complete(name, "train", 1, 0, start, end - start)

    def fail_and_restart(at: float) -> float:
        """Record the failure instant, then complete a restart (which a
        further failure can interrupt)."""
        nonlocal next_fail, failures, restart_time, lost_time
        failures += 1
        if tracer.enabled:
            tracer.instant("failure", "fault", 1, 0, at)
        next_fail = next_failure()
        clock = at
        while next_fail <= clock + restart_cost:
            lost_time += next_fail - clock
            clock = next_fail
            failures += 1
            if tracer.enabled:
                tracer.instant("failure", "fault", 1, 0, clock)
            next_fail = next_failure()
        span("restart", clock, clock + restart_cost)
        restart_time += restart_cost
        return clock + restart_cost

    while done < work_target:
        segment = min(interval, work_target - done)
        if next_fail <= t + segment:
            # Work since the last checkpoint dies with the failure.
            lost_time += next_fail - t
            span("work", t, next_fail)
            t = fail_and_restart(next_fail)
            continue
        span("work", t, t + segment)
        t += segment
        if done + segment >= work_target:
            done = work_target  # final chunk: job completes, no checkpoint
            break
        if next_fail <= t + checkpoint_cost:
            # A failed checkpoint loses its interval and its own progress.
            lost_time += segment + (next_fail - t)
            t = fail_and_restart(next_fail)
            continue
        span("checkpoint", t, t + checkpoint_cost)
        t += checkpoint_cost
        checkpoint_time += checkpoint_cost
        checkpoints += 1
        done += segment

    report = GoodputReport(
        work_target=work_target,
        wall_time=t,
        checkpoint_time=checkpoint_time,
        restart_time=restart_time,
        lost_time=lost_time,
        failures=failures,
        checkpoints=checkpoints,
    )
    metrics.counter("train.sim_failures").inc(failures)
    metrics.counter("train.sim_checkpoints").inc(checkpoints)
    metrics.gauge("train.sim_goodput").set(report.goodput)
    return report
