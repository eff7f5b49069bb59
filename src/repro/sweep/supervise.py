"""Forked sweep execution: warm reusable workers, timeouts, retries, quarantine.

:func:`run_forked` is the sweep engine's one multi-process executor.
:func:`repro.sweep.run_sweep` hands it every cache miss that leaves the
parent process — at ``workers > 1``, under a :class:`SupervisorPolicy`
at any worker count, or with ``isolate=True`` (every experiment-service
job) — and evaluates in-process otherwise.

Workers are forked *after* the parent has resolved and warmed the
target (:func:`repro.sweep.targets.resolve_target`), so no worker pays
the target's imports, and each worker is reused, point after point over
its own pipe, until the sweep ends or the supervisor has to kill it.
Owning every worker process (rather than sharing a pool) is what lets
the supervisor observe and act on each failure mode independently —
exactly the failure model the paper's reliability sections (§5) argue
a control plane must survive:

* **timeout** — an attempt that exceeds ``timeout_s`` has its worker
  SIGKILL'd (a fresh one is forked on demand) and is recorded as a
  structured ``PointTimeout`` failure;
* **worker death** — an attempt whose worker exits without reporting
  (killed from outside, or from *inside* by the point itself) is a
  ``WorkerDied`` failure; only that point is affected, never the grid;
* **retry** — failed attempts are retried up to
  ``SupervisorPolicy.max_attempts`` with exponential backoff whose
  jitter derives from the point's content seed
  (:func:`retry_delay_s`), so retry *schedules* are deterministic and
  worker-count independent even though wall-clock is not;
* **quarantine** — a point that exhausts its attempts becomes a
  ``PointQuarantined`` error record carrying the per-attempt failure
  history.  Quarantined records are byte-identical at any worker
  count and are never written to the result cache, so a later run
  (with the poison fixed) retries them.

Without a policy a point gets one attempt and no watchdog, and its own
exception is delivered exactly as in-process evaluation delivers it:
re-raised under ``strict``, otherwise the same error record.  Only a
worker death — which in-process evaluation cannot survive at all —
quarantines the point.

Every worker is joined (or killed and joined) before
:func:`run_forked` returns — including on interrupt and on exception —
so a sweep never leaks orphan workers.  An interrupt kills a running
point within one supervisor tick (``_TICK_S``) instead of waiting for
it to finish.

A worker holds nothing of its parent's but its own pipe: it detaches
the inherited signal wakeup fd and releases every other inherited
socket (listening sockets, accepted connections, sibling pipe ends)
before its first task, so a server's clients see EOF when the server
closes a connection, and a signal sent to a worker stays in the
worker.

The observable counters (``sweep.retries``, ``sweep.timeouts``,
``sweep.worker_deaths``, ``sweep.quarantined``,
``sweep.workers_spawned``) land in the metrics registry passed by the
caller, which is how the experiment service exports them as
``/metrics`` families per job.
"""

from __future__ import annotations

import heapq
import os
import signal
import stat
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable

from ..core.rng import derive_seed
from ..obs import MetricsRegistry
from .spec import canonical_config

__all__ = [
    "PointQuarantined",
    "SupervisorPolicy",
    "current_attempt",
    "retry_delay_s",
    "run_forked",
]

#: Attempt number of the point evaluation running in *this* process
#: (1-based).  Set in the forked worker before each attempt; stays 1 in
#: in-process evaluation.  Chaos policies (:mod:`repro.chaos`) read it
#: to sabotage only early attempts.
_ATTEMPT = 1

#: Supervisor poll tick (seconds): the upper bound on how late a
#: timeout kill, retry launch, or interrupt check can fire.
_TICK_S = 0.02

#: Grace (seconds) for an idle worker to exit when told to, before a kill.
_EXIT_GRACE_S = 1.0


def current_attempt() -> int:
    """The 1-based attempt number of the current point evaluation."""
    return _ATTEMPT


class PointQuarantined(RuntimeError):
    """A point exhausted its attempts under ``strict=True``.

    Carries the structured quarantine ``record`` (the same dict that
    ``strict=False`` would have attached to the :class:`PointResult`).
    """

    def __init__(self, record: dict) -> None:
        super().__init__(
            f"sweep point quarantined after {record['attempts']} attempts: "
            f"{record['message']}"
        )
        self.record = record


class _RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker,
    chained as the ``__cause__`` of its re-raise in the parent."""

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervisor defends a sweep against its own points.

    Attributes:
        timeout_s: Per-*attempt* wall-clock budget; an overdue attempt
            is killed and counted as a ``PointTimeout`` failure.
            ``None`` disables the watchdog (hangs then block forever,
            as unsupervised).
        max_attempts: Total attempts per point (first try included).
            A point still failing after the last attempt is
            quarantined.
        backoff_base_s: Backoff before attempt 2; doubles per attempt.
        backoff_cap_s: Upper bound on any single backoff delay.
    """

    timeout_s: float | None = None
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")


def retry_delay_s(policy: SupervisorPolicy, point_seed: int, attempt: int) -> float:
    """Backoff before ``attempt`` (>= 2) of the point seeded ``point_seed``.

    Exponential in the attempt number, capped, with a deterministic
    jitter factor in ``[0.5, 1.0]`` derived from the point's content
    seed — two sweeps of the same spec retry on the same schedule, and
    colliding points (many retries at once) spread out without any
    shared RNG state.
    """
    base = min(policy.backoff_cap_s, policy.backoff_base_s * 2 ** (attempt - 2))
    jitter = derive_seed(point_seed, f"sweep/backoff/{attempt}") % 2**20 / 2**20
    return base * (0.5 + 0.5 * jitter)


def _failure_record(
    kind: str, message: str, *, target: str, config: dict, seed: int, attempt: int
) -> dict:
    """One structured attempt-failure record (parent-side kinds)."""
    return {
        "target": target,
        "config": canonical_config(config),
        "seed": seed,
        "type": kind,
        "message": message,
        "attempt": attempt,
    }


def _quarantine_record(
    *, target: str, config: dict, seed: int, failures: list[dict]
) -> dict:
    """The terminal error record of a poison point.

    Everything in it is a pure function of the point and its
    deterministic failure history — no pids, no wall-clock — so
    quarantined points serialize byte-identically at any worker count.
    """
    kinds = [f["type"] for f in failures]
    return {
        "target": target,
        "config": canonical_config(config),
        "seed": seed,
        "type": "PointQuarantined",
        "message": f"quarantined after {len(failures)} failed attempts "
        f"({', '.join(kinds)})",
        "attempts": len(failures),
        "failures": [
            {"attempt": f["attempt"], "type": f["type"], "message": f["message"]}
            for f in failures
        ],
    }


def _release_inherited_sockets(keep: int) -> None:
    """Release every socket fork copied into this worker except ``keep``.

    A forked worker inherits the parent's listening socket, its
    accepted connections and every sibling's pipe end (a duplex
    :func:`multiprocessing.Pipe` is a socketpair).  Holding a copy of
    an accepted connection delays the EOF its client waits for, and
    holding a parent-side pipe end hides a dead parent from this
    worker.  Each such descriptor is pointed at ``/dev/null`` rather
    than closed, so its number is never reused while a stale socket
    object in the inherited heap still owns it.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, os.listdir(fd_dir)):
            try:
                if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass  # the listing's own descriptor, closed by now
    finally:
        os.close(devnull)


def _worker_main(conn, fn, target: str, epoch: float, capture: bool) -> None:
    """Worker loop: evaluate ``(config, seed, attempt)`` tasks from the
    pipe until the parent sends ``None`` (or goes away).

    Each reply is ``_evaluate``'s ``(result, error, start, elapsed)``
    or — only without ``capture`` — the target's exception paired with
    its formatted traceback, for the parent to re-raise.  A point that
    kills its own worker sends nothing: the parent reads EOF, which is
    precisely the worker-death signal.
    """
    global _ATTEMPT
    from .runner import _evaluate

    # A signal sent to this worker alone must not reach the parent's
    # event loop through the inherited wakeup socket, so detach it
    # before the sockets go.
    signal.set_wakeup_fd(-1)
    _release_inherited_sockets(conn.fileno())
    with conn:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):  # the parent is gone
                return
            if task is None:
                return
            config, seed, attempt = task
            _ATTEMPT = attempt
            try:
                reply = _evaluate(fn, target, config, seed, epoch, capture)
            except Exception as exc:  # noqa: BLE001 - re-raised by the parent
                reply = (exc, "".join(traceback.format_exception(exc)))
            try:
                conn.send(reply)
            except Exception as exc:  # noqa: BLE001 - unpicklable reply
                conn.send((RuntimeError(f"unpicklable reply: {exc}"), traceback.format_exc()))


class _Worker:
    """One forked worker: its process, its pipe, and the attempt it runs
    (``task`` is ``None`` while idle)."""

    __slots__ = ("proc", "conn", "task", "deadline", "started")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: tuple[int, int] | None = None
        self.deadline: float | None = None
        self.started = 0.0


def run_forked(
    *,
    fn: Callable[[dict, int], dict],
    target: str,
    configs: list[dict],
    seeds: list[int],
    indices: list[int],
    policy: SupervisorPolicy | None,
    workers: int,
    epoch: float,
    strict: bool,
    finish: Callable[[int, dict | None, dict | None, float, float], None],
    interrupted: Callable[[], bool],
    metrics: MetricsRegistry | None = None,
) -> None:
    """Evaluate ``indices`` of ``configs`` on up to ``workers`` forked
    workers running the already-resolved target ``fn``.

    Settled points (success, error record, or terminal quarantine) are
    delivered through ``finish`` exactly as in-process evaluation
    delivers them; with ``strict`` the first failure raises instead
    (see the module docstring for what each failure becomes).

    ``interrupted`` is polled every tick; when it fires, every worker
    is killed and joined before the :class:`InterruptedError` sentinel
    propagates to the runner (which re-raises its public
    :class:`repro.sweep.SweepInterrupted`).
    """
    import multiprocessing

    ctx = (
        multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_context()
    )
    supervised = policy is not None
    if policy is None:
        policy = SupervisorPolicy(max_attempts=1)
    capture = supervised or not strict
    limit = min(workers, len(indices))

    def _counter(name: str):
        return metrics.counter(name) if metrics is not None else None

    retries, timeouts, deaths, quarantined, spawned = map(
        _counter,
        ("sweep.retries", "sweep.timeouts", "sweep.worker_deaths",
         "sweep.quarantined", "sweep.workers_spawned"),
    )

    #: Heap of (not_before, index, attempt): attempts waiting to launch.
    pending: list[tuple[float, int, int]] = [(0.0, i, 1) for i in sorted(indices)]
    pool: list[_Worker] = []
    failures: dict[int, list[dict]] = {}

    def _spawn() -> _Worker:
        conn, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(child, fn, target, epoch, capture)
        )
        proc.start()
        child.close()  # the parent keeps only its end: EOF == worker gone
        worker = _Worker(proc, conn)
        pool.append(worker)
        if spawned is not None:
            spawned.inc()
        return worker

    def _retire(worker: _Worker, kill: bool = False) -> None:
        pool.remove(worker)
        if kill:
            worker.proc.kill()
        worker.conn.close()
        worker.proc.join()

    def _assign(worker: _Worker, index: int, attempt: int) -> bool:
        try:
            worker.conn.send((configs[index], seeds[index], attempt))
        except OSError:
            _retire(worker)  # died while idle: the task waits for another
            return False
        now = time.monotonic()
        worker.task = (index, attempt)
        worker.started = now
        worker.deadline = None if policy.timeout_s is None else now + policy.timeout_s
        return True

    def _fail(index: int, attempt: int, record: dict, started: float) -> None:
        history = failures.setdefault(index, [])
        history.append(record)
        if attempt < policy.max_attempts:
            if retries is not None:
                retries.inc()
            delay = retry_delay_s(policy, seeds[index], attempt + 1)
            heapq.heappush(pending, (time.monotonic() + delay, index, attempt + 1))
            return
        terminal = _quarantine_record(
            target=target, config=configs[index], seed=seeds[index], failures=history
        )
        if quarantined is not None:
            quarantined.inc()
        if strict:
            raise PointQuarantined(terminal)
        finish(index, None, terminal, 0.0, time.monotonic() - started)

    def _parent_failure(kind: str, message: str, index: int, attempt: int) -> dict:
        return _failure_record(
            kind, message, target=target, config=configs[index],
            seed=seeds[index], attempt=attempt,
        )

    try:
        while pending or any(w.task is not None for w in pool):
            if interrupted():
                raise InterruptedError
            now = time.monotonic()
            # Hand every eligible attempt to an idle worker, forking a
            # new one only while the pool is below its budget.
            while pending and pending[0][0] <= now:
                worker = next((w for w in pool if w.task is None), None)
                if worker is None:
                    if len(pool) >= limit:
                        break
                    worker = _spawn()
                if not _assign(worker, *pending[0][1:]):
                    break  # retry on the next tick
                heapq.heappop(pending)

            if all(w.task is None for w in pool):
                time.sleep(_TICK_S)
                continue
            ready = connection.wait([w.conn for w in pool], timeout=_TICK_S)
            for worker in [w for w in pool if w.conn in ready]:
                task, started = worker.task, worker.started
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    # The worker ended without reporting: it was killed
                    # (possibly by the point itself) or crashed hard.
                    _retire(worker)
                    if task is None:
                        continue  # an idle worker went away; nothing lost
                    if deaths is not None:
                        deaths.inc()
                    message = (
                        f"worker process died without reporting "
                        f"(exitcode {worker.proc.exitcode})"
                    )
                    _fail(*task, _parent_failure("WorkerDied", message, *task), started)
                    continue
                worker.task = worker.deadline = None
                if len(reply) == 2:  # the target raised, without capture
                    exc, remote = reply
                    raise exc from _RemoteTraceback(remote)
                result, error, offset, elapsed = reply
                if error is None or not supervised:
                    finish(task[0], result, error, offset, elapsed)
                else:
                    error["attempt"] = task[1]
                    _fail(*task, error, started)

            now = time.monotonic()
            for worker in [w for w in pool if w.deadline is not None and now >= w.deadline]:
                task, started = worker.task, worker.started
                _retire(worker, kill=True)
                if timeouts is not None:
                    timeouts.inc()
                message = f"attempt exceeded timeout_s={policy.timeout_s:g}"
                _fail(*task, _parent_failure("PointTimeout", message, *task), started)
    finally:
        # Whatever path exits — done, interrupt, strict raise — no worker
        # may outlive the sweep: busy ones are killed, idle ones told to exit.
        for worker in pool:
            if worker.task is not None:
                worker.proc.kill()
            else:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already gone
            worker.conn.close()
        for worker in pool:
            worker.proc.join(_EXIT_GRACE_S)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
        pool.clear()
