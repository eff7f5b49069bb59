"""Checkpoint/restart goodput simulation (§6.1, :mod:`repro.faults`).

:func:`simulate_checkpointed_training` replays a training job's
failures, checkpoints and restarts event by event, the scenario the
Young-Daly closed form (:func:`repro.reliability.goodput_fraction`)
analyzes in expectation.  It is the whole ``training`` sweep target, so
this module imports only the seeded streams, the fault schedule and the
observability core, not the trainable model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.rng import seeded_generator
from ..faults.schedule import FaultSchedule
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer


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
