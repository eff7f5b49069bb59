"""Degradation accounting for faulty serving runs.

A faulty run is judged by three numbers per fault window — goodput and
SLO attainment *before*, *during*, and *after* the outage — plus a
strict conservation identity over requests: everything admitted is
either finished, dropped, or still in flight when the clock stops.
:func:`build_degradation` derives all of it from per-request
timestamps, so the report is a pure function of the simulation outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .schedule import FaultEvent

if TYPE_CHECKING:  # circular at runtime: serving.simulator imports this module
    from ..serving.report import SLO
    from ..serving.workload import Request

#: Sentinel for "never repaired within the run" in the frozen report
#: (kept JSON-representable, unlike ``inf``).
NEVER = -1.0


@dataclass(frozen=True)
class FaultWindow:
    """One fault's observed impact on the serving pipeline.

    Goodput is finished requests per second whose finish fell in the
    phase; SLO attainment is the fraction of those that met the SLO.
    ``end == NEVER`` marks a permanent failure; its *after* phase is
    empty by construction.
    """

    kind: str
    target: str
    start: float
    end: float
    gpus_lost: int
    goodput_before: float
    goodput_during: float
    goodput_after: float
    slo_before: float
    slo_during: float
    slo_after: float


@dataclass(frozen=True)
class DegradationReport:
    """Fault-window impacts plus run-level recovery totals.

    Attributes:
        windows: One :class:`FaultWindow` per injected serving fault.
        admitted: Requests that arrived during the run (the workload
            size — shed arrivals count here and in ``dropped``).
        finished: Requests that completed all output tokens.
        dropped: Requests dropped for any reason (oversized, shed,
            retry budget exhausted).
        shed: Subset of ``dropped`` rejected at admission while a fault
            window was open (degraded admission control).
        retry_dropped: Subset of ``dropped`` that exhausted the retry
            budget after repeated fault evictions.
        unserved: Requests stranded in queues when the run ended
            (capacity never recovered enough to serve them).
        retries: Total fault-eviction requeues across all requests.
        evicted: In-flight requests knocked out by capacity loss
            (each eviction either retries or drops).
        steps_aborted: Pool steps cancelled mid-flight by a fault.
        lost_tokens: Generated-token work discarded by evictions and
            aborted steps (re-prefilled on retry).
    """

    windows: tuple[FaultWindow, ...]
    admitted: int
    finished: int
    dropped: int
    shed: int
    retry_dropped: int
    unserved: int
    retries: int
    evicted: int
    steps_aborted: int
    lost_tokens: int

    @property
    def accounted(self) -> bool:
        """The conservation identity: admitted = finished + dropped + unserved."""
        return self.admitted == self.finished + self.dropped + self.unserved


def annotate_alerts(
    alerts: list[dict], windows: "tuple[FaultWindow, ...]"
) -> list[dict]:
    """Tag SLO alert dicts with the fault window active at their time.

    The telemetry pipeline evaluates SLO rules blind to the fault
    schedule; this joins the two timelines so an alert reads as a
    diagnosis (``during_fault`` + ``fault_target``) rather than a bare
    transition.  Mutates and returns ``alerts``.
    """
    for alert in alerts:
        t = alert["time"]
        for window in windows:
            end = math.inf if window.end == NEVER else window.end
            if window.start <= t <= end:
                alert["during_fault"] = True
                alert["fault_target"] = window.target or "decode"
                break
        else:
            alert["during_fault"] = False
    return alerts


def _phase_stats(
    requests: "list[Request]", slo: "SLO", start: float, end: float
) -> tuple[float, float]:
    """(goodput req/s, SLO attainment) over finishes in [start, end)."""
    span = end - start
    if span <= 0:
        return 0.0, 0.0
    done = [r for r in requests if start <= r.finish_time < end]
    if not done:
        return 0.0, 0.0
    met = sum(1 for r in done if slo.met_by(r))
    return len(done) / span, met / len(done)


def build_degradation(
    requests: "list[Request]",
    events: tuple[FaultEvent, ...],
    slo: "SLO",
    *,
    horizon: float,
    admitted: int,
    finished: int,
    dropped: int,
    shed: int,
    retry_dropped: int,
    retries: int,
    evicted: int,
    steps_aborted: int,
    lost_tokens: int,
) -> DegradationReport:
    """Assemble the degradation section from per-request outcomes.

    ``requests`` needs to hold only the finished requests: a phase
    counts finishes, so requests that never finished add nothing.
    Each fault window's *before* phase spans from the previous window's
    end (or 0) to the fault; *during* spans the outage itself; *after*
    runs to the next fault (or the run horizon).  Permanent faults have
    an empty *after* phase.
    """
    windows = []
    prev_end = 0.0
    for i, event in enumerate(events):
        repaired = math.isfinite(event.mttr)
        end = event.time + event.mttr if repaired else horizon
        next_start = events[i + 1].time if i + 1 < len(events) else horizon
        goodput_before, slo_before = _phase_stats(
            requests, slo, prev_end, event.time
        )
        goodput_during, slo_during = _phase_stats(
            requests, slo, event.time, min(end, next_start)
        )
        goodput_after, slo_after = (
            _phase_stats(requests, slo, end, next_start) if repaired else (0.0, 0.0)
        )
        windows.append(
            FaultWindow(
                kind=event.kind,
                target=event.target,
                start=event.time,
                end=(event.time + event.mttr) if repaired else NEVER,
                gpus_lost=event.gpus_lost,
                goodput_before=goodput_before,
                goodput_during=goodput_during,
                goodput_after=goodput_after,
                slo_before=slo_before,
                slo_during=slo_during,
                slo_after=slo_after,
            )
        )
        prev_end = min(end, next_start) if repaired else next_start
    return DegradationReport(
        windows=tuple(windows),
        admitted=admitted,
        finished=finished,
        dropped=dropped,
        shed=shed,
        retry_dropped=retry_dropped,
        unserved=admitted - finished - dropped,
        retries=retries,
        evicted=evicted,
        steps_aborted=steps_aborted,
        lost_tokens=lost_tokens,
    )
