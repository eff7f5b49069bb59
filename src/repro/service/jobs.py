"""Jobs: specs, lifecycle state machine, bounded queue + worker pool.

A *job* is one sweep — a registered target plus a grid/point list —
submitted over HTTP and executed through :func:`repro.sweep.run_sweep`
on a worker.  The manager enforces explicit backpressure: at most
``queue_size`` jobs may wait while ``job_workers`` run; a submission
past that capacity raises :class:`ServiceBusy`, which the HTTP layer
turns into ``429`` + ``Retry-After`` (the service never queues
unboundedly — the paper's goodput lesson applied to the service
itself).

Each job's sweep is driven from a thread of the event loop's default
executor, but no point evaluates there: :func:`repro.sweep.run_sweep`
evaluates every cache miss in a forked worker
(:func:`repro.sweep.supervise.run_forked`), even at ``workers=1`` with
no policy, and the server's interpreter is left to the HTTP/SSE loop.
The workers come from the manager's one
:class:`repro.sweep.WorkerSet`: :meth:`JobManager.start` forks one per
job slot before any executor thread exists, jobs borrow and return
them, and the set forks more only when jobs ask for more workers than
are idle or a worker was killed.  A cancel, blown deadline or drain
kills a running point within one supervisor tick, and a killed worker
is never lent again.  The sweep engine's ``on_point`` hook
pushes every settled point back onto the loop via
``call_soon_threadsafe``, where it is journaled
(:class:`repro.service.state.StateStore`) and published to SSE
subscribers (:class:`repro.service.events.EventBroker`).  Because the
sweep writes every evaluated point to the shared
:class:`repro.sweep.SweepCache` *before* reporting it, a killed server
can always be restarted: non-terminal journaled jobs are re-enqueued
and re-run, and every point that completed before the kill is a cache
hit — resume recomputes only unevaluated points.

The manager's memory follows its live work.  A job that turns terminal
is swapped for a :class:`FinishedJob` — its summary, its metrics
registry and its encoded SSE replay — and only live jobs are scanned by
the watchdog, drain, capacity check and utilization gauges.
"""

from __future__ import annotations

import asyncio
import math
import sys
import threading
import time
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..sweep import (
    PointResult,
    SupervisorPolicy,
    SweepCache,
    SweepInterrupted,
    SweepSpec,
    WorkerSet,
    get_target,
    grid,
    run_sweep,
    target_names,
)
from ..sweep.targets import check_points
from .breaker import CircuitBreaker
from .events import EventBroker
from .http import sse_event
from .state import StateStore

__all__ = [
    "FinishedJob", "Job", "JobManager", "JobSpec", "ServiceBusy", "TERMINAL_STATES",
]

TERMINAL_STATES = ("done", "failed", "cancelled")

#: Most points one job may hold.  Submission checks every point on the
#: event loop (about 41 µs for a serving point), so this bounds that
#: check to well under a second.
MAX_JOB_POINTS = 10_000


class ServiceBusy(Exception):
    """Queue + worker pool at capacity; retry after ``retry_after`` s."""

    def __init__(self, retry_after: float) -> None:
        super().__init__("job queue at capacity")
        self.retry_after = retry_after


def _is_int(value) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass, but not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_number(value) -> bool:
    """A finite positive JSON number; ``NaN`` would pass ``<= 0``."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


@dataclass(frozen=True)
class JobSpec:
    """A validated job submission (the journaled, replayable form)."""

    target: str
    points: tuple[dict, ...]
    base: dict = field(default_factory=dict)
    seed: int = 0
    workers: int = 1
    name: str | None = None
    deadline_s: float | None = None
    timeout_s: float | None = None
    max_attempts: int = 1

    @classmethod
    def from_payload(cls, payload: dict, *, max_workers: int = 4) -> "JobSpec":
        """Validate a ``POST /jobs`` body; raises ``ValueError`` with a
        client-facing message on anything malformed.

        Accepted keys: ``target`` (required, registered sweep target),
        ``grid`` (axes dict) and/or ``points`` (explicit config list),
        ``base`` (keys shared by every point), ``seed``, ``workers``
        (clamped to ``max_workers``) and ``name``.  Scenario keys —
        ``faults``, ``recovery``, ``window_s``, ``slo`` and the rest —
        belong in ``base`` or in a point, as in any sweep.

        Robustness knobs: ``deadline_s`` (whole-job wall-clock budget;
        an overdue job has its running points killed and ends
        ``failed``), and the supervised-execution pair ``timeout_s``
        (per point-attempt kill budget) / ``max_attempts`` (retries
        before quarantine) which route the sweep through
        :class:`repro.sweep.SupervisorPolicy`.

        A job holds at most :data:`MAX_JOB_POINTS` points (grid plus
        ``points``); the grid's size is computed from its axis lengths
        before any point is built.  Every point is checked by
        :func:`repro.sweep.targets.check_points`, the one check ``repro
        sweep`` and ``repro optimize`` run too, so a point that could
        only fail is rejected here with its target builder's message
        rather than after a fork.  The check runs on the event loop, so
        it reads no file and routes no flowsim flows.
        """
        if not isinstance(payload, dict):
            raise ValueError("job spec must be a JSON object")
        unknown = set(payload) - {
            "target", "grid", "points", "base", "seed", "workers", "name",
            "deadline_s", "timeout_s", "max_attempts",
        }
        if unknown:
            raise ValueError(f"unknown job spec keys: {sorted(unknown)}")
        target = payload.get("target")
        if not isinstance(target, str):
            raise ValueError("'target' must be a string")
        try:
            # get_target rather than a target_names() membership test:
            # it resolves lazily-registered targets (repro.chaos) too.
            get_target(target)
        except KeyError:
            raise ValueError(
                f"unknown target {target!r} (registered: {', '.join(target_names())})"
            ) from None
        axes = payload.get("grid")
        if axes is not None and (not isinstance(axes, dict) or not axes):
            raise ValueError("'grid' must be a non-empty object of axes")
        listed = payload.get("points", [])
        if not isinstance(listed, list):
            raise ValueError("'points' must be a list of objects")
        size = len(listed)
        if axes:  # sized from the axis lengths: grid() builds every point
            size += math.prod(
                len(v) if isinstance(v, (list, tuple)) else 1 for v in axes.values()
            )
        if size > MAX_JOB_POINTS:
            raise ValueError(
                f"a job may hold at most {MAX_JOB_POINTS} points; this one has {size}"
            )
        points = grid(**axes) if axes else []
        for point in listed:
            if not isinstance(point, dict):
                raise ValueError("'points' entries must be objects")
            points.append(point)
        if not points:
            raise ValueError("a job needs a 'grid' and/or a 'points' list")
        base = payload.get("base", {})
        if not isinstance(base, dict):
            raise ValueError("'base' must be an object")
        check_points(target, points, base)
        workers = payload.get("workers", 1)
        if not _is_int(workers) or workers < 1:
            raise ValueError("'workers' must be a positive integer")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError("'name' must be a string")
        seed = payload.get("seed", 0)
        if not _is_int(seed):
            raise ValueError("'seed' must be an integer")
        deadline_s = payload.get("deadline_s")
        timeout_s = payload.get("timeout_s")
        for label, value in (("deadline_s", deadline_s), ("timeout_s", timeout_s)):
            if value is not None and not _is_positive_number(value):
                raise ValueError(f"'{label}' must be a positive number")
        max_attempts = payload.get("max_attempts", 1)
        if not _is_int(max_attempts) or max_attempts < 1:
            raise ValueError("'max_attempts' must be a positive integer")
        return cls(
            target=target,
            points=tuple(points),
            base=base,
            seed=seed,
            workers=min(workers, max_workers),
            name=name,
            deadline_s=deadline_s,
            timeout_s=timeout_s,
            max_attempts=max_attempts,
        )

    def to_payload(self) -> dict:
        """The journal form; :meth:`from_payload` round-trips it."""
        return {
            "target": self.target,
            "points": list(self.points),
            "base": self.base,
            "seed": self.seed,
            "workers": self.workers,
            "name": self.name,
            "deadline_s": self.deadline_s,
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
        }

    def supervisor_policy(self) -> SupervisorPolicy | None:
        """The supervised-execution policy, or ``None`` for unsupervised
        execution (no timeout, single attempt)."""
        if self.timeout_s is None and self.max_attempts <= 1:
            return None
        return SupervisorPolicy(
            timeout_s=self.timeout_s, max_attempts=self.max_attempts
        )

    def sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            target=self.target,
            points=self.points,
            base=self.base,
            seed=self.seed,
            name=self.name,
        )


class Job:
    """One submitted sweep and its live state."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        *,
        buffer: int = 256,
        history_limit: int = 10_000,
        resumed: bool = False,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.resumed = resumed
        self.created = time.time()
        self.total = len(spec.points)
        self.done_points = 0
        self.evaluated = 0
        self.cache_hits = 0
        self.errors = 0
        self.error: str | None = None  # terminal failure, not per-point
        self.broker = EventBroker(buffer=buffer, history_limit=history_limit)
        self.cancel_requested = threading.Event()
        self.deadline_exceeded = threading.Event()
        self.run_started: float | None = None  # monotonic, set per run
        self.last_progress: float | None = None  # monotonic, watchdog input
        self.hung = False
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> dict:
        """The ``GET /jobs`` / ``GET /jobs/{id}`` summary."""
        return _summary(
            self.spec,
            self.state,
            self._counts(),
            resumed=self.resumed,
            created=self.created,
            error=self.error,
            hung=self.hung,
        )

    def _counts(self) -> dict:
        return {
            "job": self.id,
            "done": self.done_points,
            "total": self.total,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
        }


def _summary(
    spec: JobSpec,
    state: str,
    counts: dict,
    *,
    resumed: bool,
    created: float,
    error: str | None = None,
    hung: bool = False,
) -> dict:
    """A job's ``describe()`` dict from its spec, state and counts."""
    return {
        "id": counts["job"],
        "name": spec.name,
        "target": sys.intern(spec.target),
        "state": state,
        "resumed": resumed,
        "created": created,
        "seed": spec.seed,
        "workers": spec.workers,
        "total": counts["total"],
        "done": counts["done"],
        "evaluated": counts["evaluated"],
        "cache_hits": counts["cache_hits"],
        "errors": counts["errors"],
        **({"error": error} if error else {}),
        **({"hung": True} if hung else {}),
        **({"deadline_s": spec.deadline_s} if spec.deadline_s is not None else {}),
    }


class FinishedJob:
    """What a terminal job keeps: its summary, its metrics registry and
    its SSE replay, encoded once.

    The live :class:`Job`'s broker, tracer, events and spec are dropped
    when it turns terminal (a ``done`` job's trace is already an
    artifact), so the server's memory scales with live work rather than
    with every job it has served.  ``GET /jobs/{id}`` and the
    ``/metrics`` scrape still read ``metrics``, and a late SSE
    subscriber is sent ``replay`` verbatim: the bytes a subscriber to
    the job's broker would have been replayed.
    """

    __slots__ = ("_keys", "_values", "metrics", "replay")

    def __init__(self, summary: dict, metrics: MetricsRegistry, replay: bytes) -> None:
        # The summary is kept as a tuple of values under a key tuple
        # shared by every record of the same layout: a third of a dict.
        keys = tuple(summary)
        self._keys = _SUMMARY_LAYOUTS.setdefault(keys, keys)
        self._values = tuple(summary.values())
        self.metrics = metrics
        self.replay = replay

    @classmethod
    def from_job(cls, job: Job) -> "FinishedJob":
        replay = b"".join(sse_event(event, data) for event, data in job.broker.replay())
        return cls(job.describe(), job.metrics, replay)

    @property
    def state(self) -> str:
        return self._values[self._keys.index("state")]

    def describe(self) -> dict:
        return dict(zip(self._keys, self._values))


#: The distinct key tuples of finished summaries (a handful: ``error``,
#: ``hung`` and ``deadline_s`` are the only optional keys).
_SUMMARY_LAYOUTS: dict[tuple, tuple] = {}


class JobManager:
    """Bounded queue + worker pool over the sweep engine."""

    def __init__(
        self,
        *,
        state: StateStore,
        cache: SweepCache | None,
        queue_size: int = 8,
        job_workers: int = 2,
        max_sweep_workers: int = 4,
        metrics_interval: float = 1.0,
        client_buffer: int = 256,
        history_limit: int = 10_000,
        retry_after: float = 2.0,
        registry: MetricsRegistry | None = None,
        breaker: CircuitBreaker | None = None,
        hung_after_s: float = 60.0,
        watchdog_interval_s: float = 0.5,
    ) -> None:
        self.state = state
        self.cache = cache
        self.queue_size = queue_size
        self.job_workers = job_workers
        self.max_sweep_workers = max_sweep_workers
        self.metrics_interval = metrics_interval
        self.client_buffer = client_buffer
        self.history_limit = history_limit
        self.retry_after = retry_after
        self.registry = registry if registry is not None else MetricsRegistry()
        self.breaker = breaker
        self.hung_after_s = hung_after_s
        self.watchdog_interval_s = watchdog_interval_s
        # Every job the server knows, in submission order: a Job while
        # it is live, a FinishedJob once it is terminal.  ``live`` indexes
        # the queued, running and interrupted ones, so nothing that
        # watches running work scans the finished jobs.
        self.jobs: dict[str, Job | FinishedJob] = {}
        self.live: dict[str, Job] = {}
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._tasks: list[asyncio.Task] = []
        self._seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        # Drain is a threading.Event because the sweep's interrupt
        # callable polls it from the executor thread.
        self._drain = threading.Event()
        self.worker_set: WorkerSet | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # Fork while this process has one thread: the executor threads
        # that drive jobs start with the first job.  Register the lazily
        # imported built-in targets first, so that naming one in a job
        # does not retire every worker forked here (see WorkerSet).
        for name in ("chaos", "optimize"):
            get_target(name)
        self.worker_set = WorkerSet()
        self.worker_set.prefork(self.job_workers)
        self._restore()
        for _ in range(self.job_workers):
            self._tasks.append(asyncio.create_task(self._worker()))
        self._tasks.append(asyncio.create_task(self._watchdog()))

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        if self.worker_set is not None:
            self.worker_set.close()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    async def drain(self, grace_s: float) -> bool:
        """Stop gracefully: interrupt running jobs, killing running points.

        Sets the drain flag (the HTTP layer turns new submissions into
        ``503`` + ``Retry-After``), journals a ``drain`` record for
        every queued job, and waits up to ``grace_s`` for running jobs
        to settle out of ``running`` — each journals its own ``drain``
        record (with progress counts) as its sweep interrupt lands.
        Every point completed before the interrupt is already in the
        cache, so a restarted server re-enqueues these jobs and
        recomputes only the unevaluated points; the final report is
        byte-identical to an undrained run.  Returns ``True`` when all
        running jobs settled within the grace period.
        """
        if not self._drain.is_set():
            self._drain.set()
            self.registry.counter("service.drains").inc()
            for job in self.live.values():
                if job.state == "queued":
                    self.state.append(
                        job.id, {"kind": "drain", "done": 0, "total": job.total}
                    )
        deadline = time.monotonic() + grace_s
        while any(job.state == "running" for job in self.live.values()):
            if time.monotonic() >= deadline:
                self.registry.counter("service.drain.overruns").inc()
                return False
            await asyncio.sleep(0.02)
        return True

    # -- submission / capacity -------------------------------------------

    @property
    def in_flight(self) -> int:
        """Jobs currently queued or running (the bounded resource)."""
        return len(self.live)

    @property
    def capacity(self) -> int:
        return self.queue_size + self.job_workers

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a new job, or raise :class:`ServiceBusy` at capacity
        (:class:`~repro.service.breaker.CircuitOpen` when the target's
        breaker is tripped — checked after capacity so a rejected
        submission never claims the half-open probe slot)."""
        if self.in_flight >= self.capacity:
            self.registry.counter("service.jobs.rejected").inc()
            raise ServiceBusy(self.retry_after)
        if self.breaker is not None:
            try:
                self.breaker.admit(spec.target)
            except Exception:
                self.registry.counter("service.breaker.rejected").inc()
                raise
        job = self._new_job(spec)
        self.state.append(job.id, {"kind": "submit", "spec": spec.to_payload()})
        self._enqueue(job)
        self.registry.counter("service.jobs.submitted").inc()
        return job

    def cancel(self, job_id: str) -> Job | FinishedJob:
        """Request cancellation; idempotent once terminal."""
        job = self.live.get(job_id)
        if job is not None:
            job.cancel_requested.set()
            if job.state == "queued":
                # The worker will skip it when popped; settle it right away.
                self._finalize(job, "cancelled")
        return self.jobs[job_id]

    def _new_job(self, spec: JobSpec, *, resumed: bool = False) -> Job:
        self._seq += 1
        job = Job(
            f"j{self._seq:04d}",
            spec,
            buffer=self.client_buffer,
            history_limit=self.history_limit,
            resumed=resumed,
        )
        self.jobs[job.id] = self.live[job.id] = job
        return job

    def _enqueue(self, job: Job) -> None:
        job.state = "queued"
        self._queue.put_nowait(job)
        self.registry.gauge("service.jobs.in_flight").set(self.in_flight)

    # -- restart / resume ------------------------------------------------

    def _restore(self) -> None:
        """Rebuild jobs from journals; re-enqueue interrupted ones.

        Resume bypasses the capacity check on purpose — work the server
        already accepted is never shed by a restart.  A journaled spec
        gets the same check a submission does, so a job whose spec is
        corrupt (or no longer valid) is skipped rather than resumed to
        fail after a fork.
        """
        for job_id, records in sorted(self.state.load().items()):
            # Every journal on disk claims its id, restored or not: a
            # new submission must never append to a skipped journal,
            # whose stale submit record would shadow the new one.
            self._seq = max(self._seq, _job_seq(job_id))
            submit = next((r for r in records if r.get("kind") == "submit"), None)
            if submit is None:
                continue
            try:
                spec = JobSpec.from_payload(
                    submit.get("spec"), max_workers=self.max_sweep_workers
                )
            except ValueError:
                continue
            terminal = next(
                (
                    r["state"]
                    for r in reversed(records)
                    if r.get("kind") == "status" and r.get("state") in TERMINAL_STATES
                ),
                None,
            )
            if terminal is not None:
                self.jobs[job_id] = _restored_finished(job_id, spec, terminal, records)
                continue
            job = Job(
                job_id,
                spec,
                buffer=self.client_buffer,
                history_limit=self.history_limit,
                resumed=True,
            )
            self.jobs[job.id] = self.live[job.id] = job
            self.state.append(job.id, {"kind": "resume"})
            self.registry.counter("service.jobs.resumed").inc()
            self._enqueue(job)

    # -- execution -------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            if job.terminal:  # cancelled while queued
                continue
            if self._drain.is_set():
                # Draining: leave the job queued-but-unstarted; its
                # journal has no terminal status, so a restarted
                # server re-enqueues it untouched.
                continue
            await self._run_job(job)

    async def _watchdog(self) -> None:
        """Deadline + hung-job sentinel over every running job.

        Deadlines fire the job's ``deadline_exceeded`` event; the sweep
        interrupt picks it up within one supervisor tick and kills the
        job's running points.
        A job with no settled point for ``hung_after_s`` is flagged
        hung: journaled, published as a critical SSE frame, counted —
        and un-flagged the moment progress resumes.  The watchdog never
        kills anything itself; killing is the supervisor's job, with
        the deadline/cancel machinery as the job-level lever.
        """
        hung_gauge = self.registry.gauge("service.jobs.hung")
        while True:
            await asyncio.sleep(self.watchdog_interval_s)
            now = time.monotonic()
            for job in self.live.values():
                if job.state != "running" or job.run_started is None:
                    continue
                deadline = job.spec.deadline_s
                if (
                    deadline is not None
                    and now - job.run_started > deadline
                    and not job.deadline_exceeded.is_set()
                ):
                    job.deadline_exceeded.set()
                    self.state.append(
                        job.id, {"kind": "deadline", "deadline_s": deadline}
                    )
                    job.broker.publish(
                        "deadline", {"deadline_s": deadline, **job._counts()}
                    )
                    self.registry.counter("service.jobs.deadline_exceeded").inc()
                stalled = now - (job.last_progress or job.run_started)
                if self.hung_after_s and stalled > self.hung_after_s and not job.hung:
                    job.hung = True
                    self.state.append(
                        job.id, {"kind": "hung", "stalled_s": round(stalled, 3)}
                    )
                    job.broker.publish(
                        "hung", {"stalled_s": round(stalled, 3), **job._counts()}
                    )
                    self.registry.counter("service.jobs.hung_detected").inc()
            hung_gauge.set(sum(1 for job in self.live.values() if job.hung))

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None
        loop = self._loop
        job.run_started = time.monotonic()
        job.last_progress = job.run_started
        self._set_state(job, "running")
        pump = asyncio.create_task(self._metrics_pump(job))
        cache = self.cache
        drain_flag = self._drain

        def on_point(point: PointResult) -> None:
            loop.call_soon_threadsafe(self._point_settled, job, point)

        def interrupted() -> bool:
            return (
                job.cancel_requested.is_set()
                or job.deadline_exceeded.is_set()
                or drain_flag.is_set()
            )

        def blocking_run():
            return run_sweep(
                job.spec.sweep_spec(),
                workers=min(job.spec.workers, self.max_sweep_workers),
                cache=cache,
                tracer=job.tracer,
                metrics=job.metrics,
                strict=False,
                on_point=on_point,
                interrupt=interrupted,
                supervise=job.spec.supervisor_policy(),
                worker_set=self.worker_set,
            )

        try:
            result = await loop.run_in_executor(None, blocking_run)
        except SweepInterrupted:
            # Precedence: an explicit cancel or blown deadline is a
            # per-job verdict; a drain interrupt is *not* terminal —
            # the journal records the pause and a restarted server
            # resumes the job from the cache.
            if job.cancel_requested.is_set():
                self._finalize(job, "cancelled")
            elif job.deadline_exceeded.is_set():
                job.error = (
                    f"JobDeadlineExceeded: exceeded deadline_s="
                    f"{job.spec.deadline_s:g} after {job.done_points}/{job.total} points"
                )
                self._finalize(job, "failed")
            else:
                self.state.append(
                    job.id,
                    {"kind": "drain", "done": job.done_points, "total": job.total},
                )
                self._set_state(job, "interrupted")
                self.registry.counter("service.jobs.drained").inc()
        except Exception as exc:  # noqa: BLE001 - job-level failure
            job.error = f"{type(exc).__name__}: {exc}"
            self._finalize(job, "failed")
        else:
            self.state.report_path(job.id).write_text(result.to_report_json())
            job.tracer.write(self.state.trace_path(job.id))
            self._finalize(job, "done")
        finally:
            pump.cancel()

    async def _metrics_pump(self, job: Job) -> None:
        """Periodic droppable SSE frames of the job's obs registry."""
        while True:
            await asyncio.sleep(self.metrics_interval)
            job.broker.publish(
                "metrics",
                {
                    "job": job.id,
                    "metrics": job.metrics.snapshot(),
                    "sse_dropped": job.broker.dropped,
                    **job._counts(),
                },
                droppable=True,
            )

    # -- event-loop-side bookkeeping -------------------------------------

    def _point_settled(self, job: Job, point: PointResult) -> None:
        job.last_progress = time.monotonic()
        if job.hung:
            job.hung = False  # progress resumed; the gauge follows
        job.done_points += 1
        if point.cached:
            job.cache_hits += 1
            event = "cache_hit"
        elif point.error is not None:
            job.errors += 1
            job.evaluated += 1
            event = "error"
        else:
            job.evaluated += 1
            event = "progress"
        record = {
            "kind": "point",
            "index": point.index,
            "key": point.key,
            "cached": point.cached,
            "elapsed": round(point.elapsed, 6),
        }
        if point.error is not None:
            record["error"] = point.error["type"]
        self.state.append(job.id, record)
        data = {
            "index": point.index,
            "config": point.config,
            "seed": point.seed,
            "key": point.key,
            "cached": point.cached,
            "elapsed": round(point.elapsed, 6),
            **job._counts(),
        }
        if point.error is not None:
            data["error"] = point.error
        job.broker.publish(event, data)
        # SLO alerts (telemetry-configured serving points) become their
        # own critical SSE frames: unlike metrics ticks they replay to
        # late subscribers and are never dropped under backpressure.
        if isinstance(point.result, dict):
            for alert in point.result.get("alerts") or ():
                job.broker.publish(
                    "alert",
                    {"job": job.id, "index": point.index, "seed": point.seed, **alert},
                )
                self.registry.counter("service.alerts.published").inc()
        settled = self.registry.counter("service.points.settled")
        hits = self.registry.counter("service.points.cache_hits")
        settled.inc()
        if point.cached:
            hits.inc()
        self.registry.gauge("service.cache.hit_ratio").set(hits.value / settled.value)

    def update_utilization(self) -> None:
        """Refresh the queue-depth / worker-utilization gauges (called
        from the server's telemetry pump)."""
        from ..core.proc import peak_rss_bytes

        running = sum(1 for job in self.live.values() if job.state == "running")
        self.registry.gauge("service.workers.busy").set(running)
        self.registry.gauge("service.workers.utilization").set(
            running / self.job_workers if self.job_workers else 0.0
        )
        self.registry.gauge("service.queue.depth").set(self._queue.qsize())
        # Process high-water mark: lets the dashboard/scraper confirm the
        # streaming serving path keeps long-running services flat.
        self.registry.gauge("service.proc.peak_rss_bytes").set(peak_rss_bytes())

    def _set_state(self, job: Job, state: str) -> None:
        job.state = state
        self.state.append(job.id, {"kind": "status", "state": state})
        job.broker.publish("status", {"state": state, **job._counts()})

    def _finalize(self, job: Job, state: str) -> None:
        job.state = state
        self.state.append(job.id, {"kind": "status", "state": state})
        self.state.append(
            job.id,
            {
                "kind": "summary",
                "done": job.done_points,
                "evaluated": job.evaluated,
                "cache_hits": job.cache_hits,
                "errors": job.errors,
                **({"error": job.error} if job.error else {}),
            },
        )
        job.broker.publish(state, {"state": state, **job._counts()})
        # The terminal frame is the replay's last: swap in the record.
        del self.live[job.id]
        self.jobs[job.id] = FinishedJob.from_job(job)
        self.registry.counter(f"service.jobs.{state}").inc()
        self.registry.gauge("service.jobs.in_flight").set(self.in_flight)
        if self.breaker is not None and state in ("done", "failed"):
            # A job "succeeds" for breaker purposes unless it failed
            # outright or *every* point errored — one poisoned point in
            # a healthy grid must not trip the target.
            total_failure = state == "failed" or (
                job.total > 0 and job.errors >= job.total
            )
            if total_failure:
                self.breaker.record_failure(job.spec.target)
            else:
                self.breaker.record_success(job.spec.target)
            self.registry.gauge("service.breaker.open").set(self.breaker.open_count)


def _restored_finished(
    job_id: str, spec: JobSpec, state: str, records: list[dict]
) -> FinishedJob:
    """The record of a job whose journal ends terminal.  Its replay is
    the one terminal frame, so a late SSE client sees the ending."""
    summary = next((r for r in reversed(records) if r.get("kind") == "summary"), {})
    total = len(spec.points)
    counts = {
        "job": job_id,
        "done": summary.get("done", total),
        "total": total,
        "evaluated": summary.get("evaluated", 0),
        "cache_hits": summary.get("cache_hits", 0),
        "errors": summary.get("errors", 0),
    }
    return FinishedJob(
        _summary(
            spec, state, counts, resumed=False, created=time.time(),
            error=summary.get("error"),
        ),
        MetricsRegistry(),
        sse_event(state, {"state": state, **counts}),
    )


def _job_seq(job_id: str) -> int:
    """The numeric suffix of a ``jNNNN`` id (0 when unparsable)."""
    try:
        return int(job_id.lstrip("j"))
    except ValueError:
        return 0
