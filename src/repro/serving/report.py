"""Simulation output: latency distributions, traces, goodput.

This is the payoff of request-level simulation over the closed forms in
:mod:`repro.inference`: not one steady-state TPOT but the full TTFT /
TPOT / end-to-end *distributions*, queue-depth and KV-occupancy traces,
and goodput under explicit SLOs — the quantities §2.3.1's
disaggregation argument is actually about (tail latency under bursts).

One run's aggregates live in one :class:`RunFold`, which the simulator
feeds as requests arrive, drop and finish and as channels are sampled.
Both report builders read only the fold:
:func:`build_streaming_report` derives every field from its running
aggregates and histograms (constant memory), and :func:`build_report`
replaces what a record-mode run's kept requests and full-resolution
traces make exact.

Reports are frozen dataclasses of plain floats/tuples, so two runs of a
seeded simulator can be compared with ``==`` to assert determinism.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.windows import WindowedMetrics
from .workload import Request

if TYPE_CHECKING:  # circular at runtime: repro.faults builds on this module
    from ..faults.report import DegradationReport

#: Registry channel names the report is built from.
QUEUE_DEPTH = "serving.queue_depth"
KV_OCCUPANCY = "serving.kv_occupancy"

#: Streaming mode keeps the queue/KV traces at decaying resolution
#: (TimeSeries decimate mode) instead of one exact sample per event.
STREAM_TRACE_POINTS = 2048


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of one latency metric (seconds)."""

    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def from_samples(samples: list[float]) -> "LatencyStats":
        """Compute the summary (zeros for an empty sample set)."""
        if not samples:
            return LatencyStats(0.0, 0.0, 0.0, 0.0, 0.0)
        arr = np.asarray(samples, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        return LatencyStats(
            mean=float(arr.mean()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
            max=float(arr.max()),
        )

    @staticmethod
    def from_histogram(hist: Histogram) -> "LatencyStats":
        """Summary from a streaming geometric-bucket histogram.

        Mean, count and max are exact (running aggregates); the
        percentiles carry the histogram's bounded relative error
        (≈1% at the default growth) — the streaming-mode trade that
        makes report memory independent of request count.
        """
        if hist.count == 0:
            return LatencyStats(0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencyStats(
            mean=hist.mean,
            p50=hist.percentile(50),
            p95=hist.percentile(95),
            p99=hist.percentile(99),
            max=hist.max,
        )


@dataclass(frozen=True)
class SLO:
    """Service-level objectives a request must meet to count as goodput."""

    ttft: float = 2.0
    tpot: float = 0.1

    def met_by(self, request: Request) -> bool:
        """Whether a completed request satisfied both objectives.

        Degenerate requests — a single generated token, so no
        inter-token gaps (``request.has_tpot`` is False) — have no
        TPOT to judge: the TPOT objective is vacuously met and only
        TTFT decides.  This is the explicit form of the previous
        accidental behavior (TPOT defaulted to 0.0, which always
        passed) and is pinned by ``tests/test_serving_report.py``.
        """
        tpot_ok = request.tpot <= self.tpot if request.has_tpot else True
        return request.ttft <= self.ttft and tpot_ok


@dataclass(frozen=True)
class SimReport:
    """Everything one simulation run measured."""

    # -- population ------------------------------------------------------
    completed: int
    preemptions: int
    duration: float
    tokens_generated: int
    # -- latency distributions ------------------------------------------
    ttft: LatencyStats
    tpot: LatencyStats
    e2e: LatencyStats
    # -- rates -----------------------------------------------------------
    throughput_tokens_per_s: float
    goodput_requests_per_s: float
    slo_attainment: float
    # -- dynamics --------------------------------------------------------
    mean_queue_depth: float
    max_queue_depth: int
    mean_kv_occupancy: float
    peak_kv_occupancy: float
    decode_steps: int
    prefill_batches: int
    mtp_acceptance_measured: float
    # -- traces (time, value) pairs; tuples so the report hashes/compares
    queue_depth_trace: tuple[tuple[float, int], ...]
    kv_occupancy_trace: tuple[tuple[float, float], ...]
    # -- fault injection (None unless a fault schedule touched the run) --
    degradation: "DegradationReport | None" = None
    # -- live telemetry (None unless SimConfig.window_s was set) ---------
    # windows: the mergeable rollup from repro.obs.windows (raw bucket
    # state, so cross-point rollups merge exactly); alerts: the SLO
    # monitor's fire/resolve timeline ([] = monitored but quiet).
    windows: tuple[dict, ...] | None = None
    alerts: tuple[dict, ...] | None = None


def report_asdict(report: SimReport) -> dict:
    """``dataclasses.asdict`` with the baseline shape preserved.

    Optional sections (``degradation``, ``windows``, ``alerts``) are
    stripped when ``None``, keeping the serialized report
    byte-identical to the goldens that predate each feature (and to
    CLI ``--json`` consumers): fault-free runs match pre-fault-engine
    output, un-windowed runs match pre-telemetry output.
    """
    payload = asdict(report)
    for optional in ("degradation", "windows", "alerts"):
        if payload.get(optional) is None:
            payload.pop(optional, None)
    return payload


def compact_record(
    report: SimReport,
    *,
    gpus: int | None = None,
    gpu_cost_per_hour: float | None = None,
) -> dict:
    """A flat, JSON-able summary record of one run.

    This is the per-point payload the sweep engine and the benchmark
    ablations share: every headline scalar (latency percentiles in
    display units, rates, dynamics), none of the O(requests) traces —
    small enough to cache per grid point and diff as a committed
    baseline.  Fault runs append the degradation totals under a
    ``"degradation"`` sub-dict.

    Passing ``gpus`` + ``gpu_cost_per_hour`` appends the objective-ready
    economics fields the co-design optimizer (:mod:`repro.optimize`)
    scores against, derived entirely from existing report data:

    * ``cost_per_token`` — ``gpus × $/h ÷ 3600 ÷ throughput`` ($/token;
      ``None`` when the run produced no tokens, which an objective
      treats as unscorable rather than infinitely cheap);
    * ``goodput_tokens_per_s`` — token throughput discounted by SLO
      attainment, the paper's "useful tokens" rate.

    Both are stripped when economics are not configured, so default
    payloads (goldens, cached sweep entries, BENCH baselines) stay
    byte-identical to pre-economics output.
    """
    ms = 1e3
    record = {
        "completed": report.completed,
        "preemptions": report.preemptions,
        "duration_s": report.duration,
        "tokens_generated": report.tokens_generated,
        "ttft_p50_ms": report.ttft.p50 * ms,
        "ttft_p99_ms": report.ttft.p99 * ms,
        "tpot_p50_ms": report.tpot.p50 * ms,
        "tpot_p99_ms": report.tpot.p99 * ms,
        "e2e_p50_s": report.e2e.p50,
        "e2e_p99_s": report.e2e.p99,
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "goodput_requests_per_s": report.goodput_requests_per_s,
        "slo_attainment": report.slo_attainment,
        "mtp_acceptance_measured": report.mtp_acceptance_measured,
        "decode_steps": report.decode_steps,
        "prefill_batches": report.prefill_batches,
        "mean_queue_depth": report.mean_queue_depth,
        "max_queue_depth": report.max_queue_depth,
        "mean_kv_occupancy": report.mean_kv_occupancy,
        "peak_kv_occupancy": report.peak_kv_occupancy,
    }
    if gpu_cost_per_hour is not None:
        if gpus is None:
            raise ValueError("economics fields need both gpus and gpu_cost_per_hour")
        throughput = report.throughput_tokens_per_s
        record["cost_per_token"] = (
            gpus * gpu_cost_per_hour / 3600.0 / throughput if throughput > 0 else None
        )
        record["goodput_tokens_per_s"] = throughput * report.slo_attainment
    d = report.degradation
    if d is not None:
        record["degradation"] = {
            "dropped": d.dropped,
            "shed": d.shed,
            "retries": d.retries,
            "retry_dropped": d.retry_dropped,
            "evicted": d.evicted,
            "unserved": d.unserved,
            "lost_tokens": d.lost_tokens,
            "steps_aborted": d.steps_aborted,
            "accounted": d.accounted,
        }
    # Telemetry sections ride along only when windowing was configured,
    # so default sweep payloads (and their cached entries, goldens and
    # BENCH_*.json baselines) stay byte-identical.
    if report.windows is not None:
        record["windows"] = [dict(w) for w in report.windows]
    if report.alerts is not None:
        record["alerts"] = [dict(a) for a in report.alerts]
    return record


class RunFold:
    """Every run-level aggregate of one serving simulation.

    The simulator owns the engine (queues, pools, clock, tracer); this
    object owns what the run *measured*, folded as it happens:

    * engine counters — ``preemptions``, ``decode_steps``,
      ``prefill_batches``, ``draft_attempts`` and ``draft_accepted``,
      which the simulator bumps in place, plus the six ``faults``
      tallies (each key is a ``serving.fault_<key>`` counter suffix and
      a :func:`repro.faults.report.build_degradation` keyword) and the
      decode ``batch_profile`` (batch size → ``[steps, total seconds]``);
    * the request fold — ``completed``, ``slo_met``, ``tokens`` and the
      TTFT/TPOT/E2E histograms, judged against the SLO once per request;
    * the channel fold — sample count, sums and maxima of queue depth
      and KV occupancy, and the registry's two channel series, fresh
      per run (decimated in lockstep to ``STREAM_TRACE_POINTS`` unless
      records are kept);
    * the optional :class:`WindowedMetrics` (``window_s`` set);
    * the ``dropped`` rids and, when records are kept, the ``finished``
      requests in finish order (also the degradation report's input).

    :meth:`arrival`, :meth:`drop`, :meth:`finish` and :meth:`sample`
    fold the run's events, each running the window hooks itself; the
    simulator bumps the engine counters directly.  Both report builders
    read the fold and nothing else.
    """

    __slots__ = (
        "slo", "total_blocks", "preemptions", "decode_steps", "prefill_batches",
        "draft_attempts", "draft_accepted", "faults", "batch_profile",
        "completed", "slo_met", "tokens", "ttft", "tpot", "e2e",
        "samples", "queue_sum", "queue_max", "kv_sum", "kv_peak",
        "queue_series", "kv_series", "_skip", "windowed", "finished", "dropped",
    )

    def __init__(
        self,
        slo: SLO,
        metrics: MetricsRegistry,
        total_blocks: int,
        *,
        records: bool,
        window_s: float | None = None,
    ) -> None:
        self.slo = slo
        self.total_blocks = total_blocks
        self.preemptions = 0
        self.decode_steps = 0
        self.prefill_batches = 0
        self.draft_attempts = 0
        self.draft_accepted = 0
        self.faults = dict.fromkeys(
            ("retries", "retry_dropped", "shed", "evicted", "steps_aborted", "lost_tokens"),
            0,
        )
        self.batch_profile: dict[int, list] = {}
        self.completed = 0
        self.slo_met = 0
        self.tokens = 0
        self.ttft = Histogram("ttft")
        self.tpot = Histogram("tpot")
        self.e2e = Histogram("e2e")
        self.samples = 0
        self.queue_sum = 0
        self.queue_max = 0
        self.kv_sum = 0.0
        self.kv_peak = 0.0
        # Fresh channels per run: a caller's registry may still hold the
        # previous run's samples, and the report reads only this run's.
        points = None if records else STREAM_TRACE_POINTS
        self.queue_series = metrics.fresh_series(QUEUE_DEPTH, max_points=points, mode="decimate")
        self.kv_series = metrics.fresh_series(KV_OCCUPANCY, max_points=points, mode="decimate")
        self._skip = 0  # samples both series drop before keeping the next
        self.windowed = WindowedMetrics(window_s) if window_s is not None else None
        self.finished: list[Request] | None = [] if records else None
        self.dropped: list[int] = []

    def arrival(self, now: float) -> None:
        """One arrival, counted as offered load before any shedding."""
        if self.windowed is not None:
            self.windowed.count("arrivals", now)

    def drop(self, rid: int, now: float) -> None:
        """One request dropped unserved."""
        self.dropped.append(rid)
        if self.windowed is not None:
            self.windowed.count("dropped", now)

    def finish(self, request: Request, now: float) -> None:
        """One request completed; only record mode keeps the object.

        ``request.generated`` is its final count here: a decode pool
        that keeps a due calendar holds its members' counts relative to
        its step counter and writes them back as they leave.
        """
        if self.finished is not None:
            self.finished.append(request)
        met = self.slo.met_by(request)
        self.ttft.observe(request.ttft)
        if request.has_tpot:
            self.tpot.observe(request.tpot)
        self.e2e.observe(request.e2e)
        self.tokens += request.generated
        self.slo_met += met
        self.completed += 1
        windowed = self.windowed
        if windowed is not None:
            windowed.count("finished", now)
            windowed.count("tokens", now, request.generated)
            if met:
                windowed.count("slo_met", now)
            windowed.observe("ttft", now, request.ttft)
            if request.has_tpot:
                windowed.observe("tpot", now, request.tpot)
            windowed.observe("e2e", now, request.e2e)

    def sample(self, t: float, depth: int, used: int) -> None:
        """One channel sample: queued requests and used KV blocks.

        The two channel series are sampled at the same instants with the
        same point budget, so one decision keeps or drops the sample in
        both: ``_skip`` counts down the samples to drop before the next
        kept one.  Each series ends up exactly as its own
        :meth:`repro.obs.TimeSeries.record` calls would leave it: the
        same ``samples``, ``_seen`` and ``_stride``.
        """
        occupancy = used / self.total_blocks
        self.samples = seen = self.samples + 1
        self.queue_sum += depth
        self.kv_sum += occupancy
        if depth > self.queue_max:
            self.queue_max = depth
        if occupancy > self.kv_peak:
            self.kv_peak = occupancy
        queue, kv = self.queue_series, self.kv_series
        skip = self._skip
        if skip:  # only a decimating series skips
            self._skip = skip - 1
            queue._seen = kv._seen = seen
        else:
            queue.samples.append((t, depth))
            kv.samples.append((t, occupancy))
            points = queue.max_points
            if points is not None:
                queue._seen = kv._seen = seen
                if len(queue.samples) >= points:
                    # Halve resolution, keeping the first sample.
                    del queue.samples[1::2]
                    del kv.samples[1::2]
                    queue._stride = kv._stride = queue._stride * 2
                self._skip = -seen % queue._stride
        windowed = self.windowed
        if windowed is not None:
            windowed.sample("queue_depth", t, depth)
            windowed.sample("kv_occupancy", t, occupancy)


def build_streaming_report(
    fold: RunFold,
    duration: float,
    windows: tuple[dict, ...] | None = None,
    alerts: tuple[dict, ...] | None = None,
) -> SimReport:
    """The report of a run, from its fold alone.

    Counts, rates, means, maxima and KV/queue dynamics are exact
    (running integer/float aggregates over every event); only the
    latency *percentiles* are histogram estimates with bounded relative
    error.  The traces are the channel series as recorded — decimated
    to a bounded point budget unless the run kept records.
    """
    completed = fold.completed
    samples = fold.samples
    return SimReport(
        completed=completed,
        preemptions=fold.preemptions,
        duration=duration,
        tokens_generated=fold.tokens,
        ttft=LatencyStats.from_histogram(fold.ttft),
        tpot=LatencyStats.from_histogram(fold.tpot),
        e2e=LatencyStats.from_histogram(fold.e2e),
        throughput_tokens_per_s=fold.tokens / duration if duration > 0 else 0.0,
        goodput_requests_per_s=fold.slo_met / duration if duration > 0 else 0.0,
        slo_attainment=fold.slo_met / completed if completed else 0.0,
        mean_queue_depth=fold.queue_sum / samples if samples else 0.0,
        max_queue_depth=fold.queue_max,
        mean_kv_occupancy=fold.kv_sum / samples if samples else 0.0,
        peak_kv_occupancy=fold.kv_peak,
        decode_steps=fold.decode_steps,
        prefill_batches=fold.prefill_batches,
        mtp_acceptance_measured=(
            fold.draft_accepted / fold.draft_attempts if fold.draft_attempts else 0.0
        ),
        queue_depth_trace=tuple(fold.queue_series.samples),
        kv_occupancy_trace=tuple(fold.kv_series.samples),
        windows=windows,
        alerts=alerts,
    )


def build_report(
    fold: RunFold,
    duration: float,
    degradation: "DegradationReport | None" = None,
    windows: tuple[dict, ...] | None = None,
    alerts: tuple[dict, ...] | None = None,
) -> SimReport:
    """The exact report of a run that kept its records.

    The streaming report, with what the kept records make exact: the
    latency statistics over the finished requests (in rid order) and
    the two channel means over the full-resolution series.  The TPOT
    distribution covers only requests where TPOT is defined (two or
    more generated tokens); degenerate single-token requests would
    otherwise pull the percentiles toward an artificial 0.0.  They
    still count toward completion, TTFT/E2E and goodput (see
    :meth:`SLO.met_by`).
    """
    finished = sorted(fold.finished, key=attrgetter("rid"))
    queue_depths = [d for _, d in fold.queue_series.samples]
    kv_levels = [v for _, v in fold.kv_series.samples]
    return replace(
        build_streaming_report(fold, duration, windows, alerts),
        ttft=LatencyStats.from_samples([r.ttft for r in finished]),
        tpot=LatencyStats.from_samples([r.tpot for r in finished if r.has_tpot]),
        e2e=LatencyStats.from_samples([r.e2e for r in finished]),
        mean_queue_depth=float(np.mean(queue_depths)) if queue_depths else 0.0,
        mean_kv_occupancy=float(np.mean(kv_levels)) if kv_levels else 0.0,
        degradation=degradation,
    )
