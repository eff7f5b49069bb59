"""The sweep engine: cache-aware parallel fan-out over grid points.

:func:`run_sweep` evaluates every point of a :class:`SweepSpec`:

1. **Cache probe** — each point's content-addressed key is looked up
   in the :class:`SweepCache` (when one is given); hits skip
   evaluation entirely.
2. **Evaluation** — the target is resolved and warmed once, in this
   process (:func:`~repro.sweep.targets.resolve_target`).  Every miss
   then runs on a forked worker borrowed from a
   :class:`~repro.sweep.supervise.WorkerSet` and reused point after
   point (:func:`~repro.sweep.supervise.run_forked`, the one executor),
   whatever the worker count — no point runs on the caller's
   interpreter, so a point that kills its own process costs only that
   point.  A caller that runs many sweeps passes its own
   ``worker_set`` and forks once; otherwise the sweep forks a private
   set after warming the target and closes it on return.  Each point
   carries its own child seed derived from the root seed and the
   point's canonical config (:meth:`SweepSpec.point_seed`), so results
   are byte-identical regardless of worker count or completion order —
   pinned by ``tests/test_sweep.py``.
3. **Cache fill** — fresh results are written back atomically, so an
   interrupted sweep resumes where it stopped and a re-run after a
   config edit recomputes only the new/changed points.

Observability: one tracer span per evaluated point (wall clock,
relative to sweep start), instant events for cache hits, and
``sweep.points`` / ``sweep.evaluated`` / ``sweep.cache_hits`` counters
plus a ``sweep.progress`` gauge in the metrics registry.
:func:`print_sweep_summary` renders the per-point results through
:func:`repro.obs.summary.print_table`.

The deterministic JSON document (:meth:`SweepResult.to_json`) excludes
wall-clock timings; ``evaluated``/``cache_hits`` counts and per-point
``cached`` flags are included (they depend only on prior cache state,
never on worker count).  :meth:`SweepResult.to_report_json` is the
cache-*independent* variant — identical bytes whether the sweep ran
cold, warm, or was interrupted and resumed.

Long-lived callers (the experiment service) hook in three ways: an
``on_point`` callback pushes each settled point as it happens, an
``interrupt`` callable cancels mid-sweep (:class:`SweepInterrupted`)
and kills a running point within one supervisor tick, and
``strict=False`` turns per-point failures into structured error
records instead of aborting the whole sweep.

Hostile points — ones that hang, kill their own worker, or fail
transiently — are what ``supervise=SupervisorPolicy(...)`` is for: the
same forked executor then adds per-attempt timeouts,
deterministic-backoff retries, and poison-point quarantine.  Without a
policy a point that kills its worker is still survived, as a
``WorkerDied`` quarantine record.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from ..obs.metrics import MetricsRegistry
from ..obs.summary import print_table
from ..obs.trace import NULL_TRACER, Tracer
from .cache import SweepCache
from .spec import SweepSpec
from .supervise import SupervisorPolicy, WorkerSet, run_forked
from .targets import resolve_target

__all__ = [
    "PointResult",
    "SweepInterrupted",
    "SweepResult",
    "print_sweep_summary",
    "run_sweep",
]


class SweepInterrupted(RuntimeError):
    """Raised when ``run_sweep``'s ``interrupt`` callable fires.

    Every point completed before the interrupt is already in the cache
    (when one is given), so re-running the same spec resumes where the
    interrupted sweep stopped.
    """

    def __init__(self, done: int, total: int) -> None:
        super().__init__(f"sweep interrupted after {done}/{total} points")
        self.done = done
        self.total = total


@dataclass(frozen=True)
class PointResult:
    """One evaluated (or cache-served) grid point.

    ``result`` is ``None`` exactly when ``error`` is set — a structured
    record of a failed evaluation (only produced under ``strict=False``;
    see :func:`run_sweep`).
    """

    index: int
    config: dict
    seed: int
    key: str
    result: dict | None
    cached: bool
    elapsed: float  # evaluation wall seconds; 0.0 for a cache hit
    error: dict | None = None


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced, in point-declaration order."""

    target: str
    seed: int
    version: str
    points: tuple[PointResult, ...]
    wall_time: float

    @property
    def evaluated(self) -> int:
        """Points actually computed this run."""
        return sum(1 for p in self.points if not p.cached)

    @property
    def cache_hits(self) -> int:
        """Points served from the cache."""
        return sum(1 for p in self.points if p.cached)

    @property
    def errors(self) -> int:
        """Points whose evaluation failed (``strict=False`` only)."""
        return sum(1 for p in self.points if p.error is not None)

    def records(self) -> list[dict | None]:
        """The per-point result dicts, in order (``None`` for failures)."""
        return [p.result for p in self.points]

    def payload(self) -> dict:
        """The deterministic document (no wall-clock fields)."""
        return {
            "target": self.target,
            "seed": self.seed,
            "version": self.version,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "points": [
                {
                    "config": p.config,
                    "seed": p.seed,
                    "key": p.key,
                    "cached": p.cached,
                    "result": p.result,
                    **({"error": p.error} if p.error is not None else {}),
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON of :meth:`payload` — byte-identical for the
        same sweep at any worker count."""
        return json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"

    def report_payload(self) -> dict:
        """The *cache-independent* result document.

        :meth:`payload` records how each point was obtained (``cached``
        flags, hit/evaluated counts), which depends on prior cache
        state.  This document strips that provenance, keeping only what
        the sweep computed — so an interrupted sweep resumed from the
        cache produces a report byte-identical to an uninterrupted run
        of the same spec.  The experiment service serves this as the
        job's report artifact.
        """
        return {
            "target": self.target,
            "seed": self.seed,
            "version": self.version,
            "points": [
                {
                    "config": p.config,
                    "seed": p.seed,
                    "key": p.key,
                    "result": p.result,
                    **({"error": p.error} if p.error is not None else {}),
                }
                for p in self.points
            ],
        }

    def to_report_json(self) -> str:
        """Canonical JSON of :meth:`report_payload`."""
        return json.dumps(self.report_payload(), indent=2, sort_keys=True) + "\n"


def merged_windows_section(points) -> dict | None:
    """Cross-point telemetry rollup for a sweep's ``windows`` section.

    ``points`` is a payload-style point list (dicts with a ``result``)
    — :meth:`SweepResult.payload`, :meth:`SweepResult.report_payload`
    or a parsed report artifact all qualify.  Per-point window rollups
    are combined *exactly* via :func:`repro.obs.merge_window_rollups`
    (histogram buckets add, not percentiles), then summarized.  Returns
    ``None`` when no point carried windows, so callers can keep the
    section out of default output entirely.
    """
    from ..obs.windows import merge_window_rollups, window_summaries

    rollups = [
        p["result"]["windows"]
        for p in points
        if isinstance(p.get("result"), dict) and p["result"].get("windows")
    ]
    if not rollups:
        return None
    merged = merge_window_rollups(rollups)
    return {
        "points": len(rollups),
        "merged": merged,
        "summaries": window_summaries(merged),
    }


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    cache: SweepCache | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    progress: bool = False,
    strict: bool = True,
    on_point: Callable[[PointResult], None] | None = None,
    interrupt: Callable[[], bool] | None = None,
    supervise: SupervisorPolicy | None = None,
    worker_set: WorkerSet | None = None,
) -> SweepResult:
    """Evaluate every point of ``spec``; see the module docstring.

    Args:
        spec: The sweep declaration.
        workers: The most forked workers evaluating cache misses at
            once (1 = one forked worker).
        cache: Result cache; ``None`` disables caching entirely.
        tracer: Optional span tracer (defaults to the null object).
        metrics: Optional registry for counters and the progress gauge.
        progress: Print ``done/total`` lines to stderr as points finish.
        strict: With the default ``True``, the first failing point
            raises immediately (the target's own exception, with the
            worker's traceback chained as its ``__cause__``).
            With ``False``, a failure becomes a structured error record
            on its :class:`PointResult` (target, canonical config,
            seed, traceback string); the sweep keeps going and failed
            points are never cached, so a re-run retries them.
        on_point: Called once per point as it settles — cache hits
            first (in index order), then evaluations in completion
            order.  This is the push-style progress hook the experiment
            service streams SSE events from; it runs on the sweep
            thread, so callbacks must be cheap and must not raise.
        interrupt: Polled every supervisor tick; returning ``True``
            kills the running points and raises
            :class:`SweepInterrupted`.  Completed points are already
            cached, so the same spec resumes incrementally.
        supervise: Evaluate cache misses under a
            :class:`~repro.sweep.supervise.SupervisorPolicy` — with
            per-attempt timeouts, deterministic-backoff retries, and
            quarantine after ``max_attempts`` failures.  With
            ``strict=True`` a quarantined point raises
            :class:`~repro.sweep.supervise.PointQuarantined`; with
            ``strict=False`` it becomes a worker-count-independent
            ``PointQuarantined`` error record (never cached).  Without
            a policy each point gets one attempt, and only a worker
            death quarantines it.
        worker_set: Borrow forked workers from this
            :class:`~repro.sweep.supervise.WorkerSet` and return the
            healthy ones to it, instead of forking a private set for
            this sweep alone.  Results do not depend on it.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    tracer = NULL_TRACER if tracer is None else tracer
    configs = spec.configs()
    seeds = [spec.point_seed(c) for c in configs]
    keys = [spec.key(c) for c in configs]
    total = len(configs)

    epoch = time.perf_counter()
    results: list[dict | None] = [None] * total
    errors: list[dict | None] = [None] * total
    timings: list[tuple[float, float]] = [(0.0, 0.0)] * total
    cached = [False] * total

    def _point(i: int) -> PointResult:
        return PointResult(
            index=i,
            config=configs[i],
            seed=seeds[i],
            key=keys[i],
            result=results[i],
            cached=cached[i],
            elapsed=timings[i][1],
            error=errors[i],
        )

    if cache is not None:
        hits = cache.get_many(keys)
        for i, key in enumerate(keys):
            hit = hits[key]
            if hit is not None:
                results[i] = hit
                cached[i] = True
                if on_point is not None:
                    on_point(_point(i))

    missing = [i for i in range(total) if not cached[i]]
    done = total - len(missing)

    gauge = metrics.gauge("sweep.progress") if metrics is not None else None
    if gauge is not None:
        gauge.set(done / total)

    def _interrupted() -> bool:
        return interrupt is not None and interrupt()

    def _finish(
        i: int, result: dict | None, error: dict | None, started: float, elapsed: float
    ) -> None:
        nonlocal done
        results[i] = result
        errors[i] = error
        timings[i] = (started, elapsed)
        if cache is not None and error is None:
            cache.put(
                keys[i],
                target=spec.target,
                config=configs[i],
                seed=seeds[i],
                version=spec.version,
                result=result,
            )
        done += 1
        if gauge is not None:
            gauge.set(done / total)
        if progress:
            print(f"sweep: {done}/{total} points ({elapsed:.2f}s)", file=sys.stderr)
        if on_point is not None:
            on_point(_point(i))

    if _interrupted():
        raise SweepInterrupted(done, total)
    if missing:
        # Resolved (and warmed) once, here, before any worker is
        # borrowed: a worker forked for this sweep inherits it.
        resolve_target(spec.target, [configs[i] for i in missing])
        try:
            run_forked(
                target=spec.target,
                configs=configs,
                seeds=seeds,
                indices=missing,
                policy=supervise,
                workers=workers,
                epoch=epoch,
                strict=strict,
                finish=_finish,
                interrupted=_interrupted,
                metrics=metrics,
                worker_set=worker_set,
            )
        except InterruptedError:
            raise SweepInterrupted(done, total) from None

    wall = time.perf_counter() - epoch
    tracer.process(0, f"sweep:{spec.name or spec.target}")
    for i in range(total):
        started, elapsed = timings[i]
        if cached[i]:
            tracer.instant(f"cache_hit[{i}]", "sweep", 0, i, 0.0, args={"key": keys[i][:12]})
        else:
            tracer.complete(
                f"point[{i}]", "sweep", 0, i, max(started, 0.0), elapsed,
                args={"key": keys[i][:12]},
            )
    if metrics is not None:
        metrics.counter("sweep.points").inc(total)
        metrics.counter("sweep.evaluated").inc(len(missing))
        metrics.counter("sweep.cache_hits").inc(total - len(missing))

    points = tuple(_point(i) for i in range(total))
    return SweepResult(
        target=spec.target,
        seed=spec.seed,
        version=spec.version,
        points=points,
        wall_time=wall,
    )


def _scalar(value: object) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


def print_sweep_summary(result: SweepResult, columns: list[str] | None = None) -> None:
    """Per-sweep summary table: config axes, then scalar result keys.

    Config columns are the keys that *vary* across points (fixed base
    keys add noise, not information); ``columns`` restricts the result
    columns, which otherwise default to every scalar key of the first
    record.
    """
    configs = [p.config for p in result.points]
    varying = [
        k
        for k in configs[0]
        if any(p.config.get(k) != configs[0][k] for p in result.points)
    ] or list(configs[0])[:3]
    first = next((p.result for p in result.points if p.result is not None), {})
    if columns is None:
        columns = [k for k, v in first.items() if _scalar(v)]
    rows = []
    for p in result.points:
        row: list[object] = [p.index] + [p.config.get(k) for k in varying]
        record = p.result if p.result is not None else {}
        row.extend(record.get(k) for k in columns)
        if p.error is not None:
            row.append(f"ERROR {p.error['type']}")
        elif p.cached:
            row.append("cache")
        else:
            row.append(f"{p.elapsed:.2f}s")
        rows.append(row)
    print_table(
        f"sweep '{result.target}': "
        f"{len(result.points)} points, {result.evaluated} evaluated, "
        f"{result.cache_hits} cached, {result.wall_time:.2f}s",
        ["#", *varying, *columns, "time"],
        rows,
    )
