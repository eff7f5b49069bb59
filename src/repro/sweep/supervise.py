"""Forked sweep execution: warm reusable workers, timeouts, retries, quarantine.

:func:`run_forked` is the sweep engine's one executor:
:func:`repro.sweep.run_sweep` hands it every cache miss, at any worker
count and with or without a :class:`SupervisorPolicy`, so no point is
ever evaluated on the caller's interpreter.

Workers are not forked per sweep: :func:`run_forked` borrows them from
a :class:`WorkerSet` and returns them when the sweep ends.  A
long-lived caller owns one set — the experiment service forks its
first workers at start, before any thread exists, and an optimizer
search keeps one set for all its batches — while a plain sweep gets a
private set that forks on demand, after the parent has resolved and
warmed the target (:func:`repro.sweep.targets.resolve_target`), and is
closed on return.  Each task names its target, and a worker resolves
the name on first use, so one worker serves any sweep of its set.
Owning every worker process (rather than sharing a pool) is what lets
the supervisor observe and act on each failure mode independently —
exactly the failure model the paper's reliability sections (§5) argue
a control plane must survive:

* **timeout** — an attempt that exceeds ``timeout_s`` has its worker
  SIGKILL'd (the set forks a replacement on demand; a killed worker is
  never returned to it) and is recorded as a
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
exception is delivered as the point raised it: re-raised in the parent
under ``strict``, otherwise as the error record :func:`_evaluate`
formats in the worker.  Only a worker death quarantines the point.

Before :func:`run_forked` returns — including on interrupt and on
exception — every busy worker is killed and joined and every idle one
goes back to its set, so a sweep never leaks orphan workers.  An
interrupt kills a running point within one supervisor tick
(``_TICK_S``) instead of waiting for it to finish.

A worker holds nothing of its parent's but its own pipe: it detaches
the inherited signal wakeup fd and releases every other inherited
socket (listening sockets, accepted connections, sibling pipe ends)
before its first task, so a server's clients see EOF when the server
closes a connection, and a signal sent to a worker stays in the
worker.

The observable counters (``sweep.retries``, ``sweep.timeouts``,
``sweep.worker_deaths``, ``sweep.quarantined``,
``sweep.workers_spawned``, the workers a sweep had to fork rather than
borrow) land in the metrics registry passed by the caller, which is how
the experiment service exports them as ``/metrics`` families per job.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import signal
import stat
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection, util
from typing import Callable

from ..core.rng import derive_seed
from ..obs.metrics import MetricsRegistry
from .spec import canonical_config
from .targets import Target, get_target, registry_generation

__all__ = [
    "PointQuarantined",
    "SupervisorPolicy",
    "WorkerSet",
    "current_attempt",
    "retry_delay_s",
    "run_forked",
]

#: Attempt number of the point evaluation running in *this* process
#: (1-based).  Set in the forked worker before each attempt; stays 1 in
#: a process that evaluates no sweep point.  Chaos policies
#: (:mod:`repro.chaos`) read it to sabotage only early attempts.
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


def _evaluate(
    fn: Target, target: str, config: dict, seed: int, epoch: float, capture: bool
) -> tuple[dict | None, dict | None, float, float]:
    """Run one point of the resolved target ``fn`` and time it.

    Returns ``(result, error, start_offset, elapsed)`` with the start
    offset relative to the sweep's epoch, so the parent can lay the
    point out as a span on a shared wall-clock timeline.  With
    ``capture`` (``strict=False`` or a policy) an exception becomes a
    structured error record instead of propagating — the traceback is
    formatted *here*, in the failing worker, so the record names the
    target's own frames.
    """
    start = time.perf_counter()
    error = None
    if capture:
        try:
            result = fn(config, seed)
        except Exception as exc:  # noqa: BLE001 - converted to a record
            result = None
            error = {
                "target": target,
                "config": canonical_config(config),
                "seed": seed,
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
            }
    else:
        result = fn(config, seed)
    end = time.perf_counter()
    return result, error, start - epoch, end - start


def _worker_main(conn) -> None:
    """Worker loop: evaluate ``(target, config, seed, attempt, epoch,
    capture)`` tasks from the pipe until the parent sends ``None`` (or
    goes away).

    A worker serves any sweep of the set it belongs to, so each task
    names its target; the name is resolved here on first use and kept.
    Each reply is ``_evaluate``'s ``(result, error, start, elapsed)``
    or — only without ``capture`` — the target's exception paired with
    its formatted traceback, for the parent to re-raise.  A point that
    kills its own worker sends nothing: the parent reads EOF, which is
    precisely the worker-death signal.
    """
    global _ATTEMPT
    # A signal sent to this worker alone must not reach the parent's
    # event loop through the inherited wakeup socket, so detach it
    # before the sockets go.
    signal.set_wakeup_fd(-1)
    _release_inherited_sockets(conn.fileno())
    resolved: dict[str, Callable[[dict, int], dict]] = {}
    with conn:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):  # the parent is gone
                return
            if task is None:
                return
            target, config, seed, attempt, epoch, capture = task
            _ATTEMPT = attempt
            try:
                fn = resolved.get(target)
                if fn is None:
                    fn = resolved[target] = get_target(target)
                reply = _evaluate(fn, target, config, seed, epoch, capture)
            except Exception as exc:  # noqa: BLE001 - re-raised by the parent
                reply = (exc, "".join(traceback.format_exception(exc)))
            try:
                conn.send(reply)
            except Exception as exc:  # noqa: BLE001 - unpicklable reply
                conn.send((RuntimeError(f"unpicklable reply: {exc}"), traceback.format_exc()))


class _Worker:
    """One forked worker: its process, its pipe, the registry generation
    it was forked at, and the attempt it runs (``task`` is ``None``
    while idle)."""

    __slots__ = ("proc", "conn", "generation", "task", "deadline", "started")

    def __init__(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self.generation = registry_generation()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,))
        self.proc.start()
        child.close()  # the parent keeps only its end: EOF == worker gone
        self.task: tuple[int, int] | None = None
        self.deadline: float | None = None
        self.started = 0.0

    def healthy(self) -> bool:
        """Idle, alive, and with nothing unread on its pipe (a dead
        worker's pipe reads EOF)."""
        return self.task is None and self.proc.exitcode is None and not self.conn.poll()


def _stop(workers: list[_Worker]) -> None:
    """Tell idle ``workers`` to exit and join them; kill any that
    outlive ``_EXIT_GRACE_S``."""
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:
            pass  # already gone
        worker.conn.close()
    for worker in workers:
        worker.proc.join(_EXIT_GRACE_S)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join()


class WorkerSet:
    """Idle forked sweep workers, borrowed by sweeps and returned between
    them, so a long-lived caller forks once instead of once per sweep.

    :func:`run_forked` borrows a worker per concurrent point and returns
    it when the sweep ends — but only an idle, healthy one: a worker the
    supervisor killed (timeout, or a busy worker at a deadline, cancel,
    drain or interrupt) or one that died is never returned, and the next
    borrow forks its replacement.  A worker forked before the newest
    target registration (:func:`repro.sweep.targets.registry_generation`)
    is retired on borrow, not lent: a target may evaluate another by
    name (``chaos``), so any newer registration may matter to it.

    Borrowing and returning are thread-safe (a server's job threads
    share one set).  :meth:`close` tells every idle worker to exit and
    joins it; a worker still borrowed then exits when it is returned.
    Forking from a multi-threaded process is unsafe, so a server calls
    :meth:`prefork` before it starts any thread.
    """

    def __init__(self) -> None:
        self._idle: list[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False
        # Idle workers block on their pipe, and multiprocessing joins
        # live children at exit: an unclosed set stops its idle workers
        # first (exit finalizers with a priority run before that join).
        util.Finalize(self, _stop, args=(self._idle,), exitpriority=0)

    def __enter__(self) -> "WorkerSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def prefork(self, count: int) -> None:
        """Fork ``count`` idle workers now."""
        for _ in range(count):
            self.give_back(_Worker())

    def borrow(self) -> tuple[_Worker, bool]:
        """An idle worker that knows every registered target, and whether
        it had to be forked for this borrow."""
        generation = registry_generation()
        retired = []
        try:
            with self._lock:
                while self._idle:
                    worker = self._idle.pop()
                    if worker.generation == generation and worker.healthy():
                        return worker, False
                    retired.append(worker)
        finally:
            _stop(retired)
        return _Worker(), True

    def give_back(self, worker: _Worker) -> None:
        """Return a borrowed worker; one that is not healthy, or that
        comes back after :meth:`close`, exits instead."""
        if worker.healthy():
            with self._lock:
                if not self._closed:
                    self._idle.append(worker)
                    return
        _stop([worker])

    def close(self) -> None:
        """Stop every idle worker; later returns stop theirs too."""
        with self._lock:
            self._closed = True
            idle = self._idle[:]
            self._idle.clear()
        _stop(idle)


def run_forked(
    *,
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
    worker_set: WorkerSet | None = None,
) -> None:
    """Evaluate ``indices`` of ``configs`` of the already-resolved
    ``target`` on up to ``workers`` workers borrowed from ``worker_set``
    (a private set, closed on return, when ``None``).

    Settled points (success, error record, or terminal quarantine) are
    delivered through ``finish``; with ``strict`` the first failure
    raises instead
    (see the module docstring for what each failure becomes).

    ``interrupted`` is polled every tick; when it fires, every busy
    worker is killed and joined before the :class:`InterruptedError`
    sentinel propagates to the runner (which re-raises its public
    :class:`repro.sweep.SweepInterrupted`).
    """
    own = worker_set is None
    if own:
        worker_set = WorkerSet()
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

    def _borrow() -> _Worker:
        worker, forked = worker_set.borrow()
        pool.append(worker)
        if forked and spawned is not None:
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
            worker.conn.send(
                (target, configs[index], seeds[index], attempt, epoch, capture)
            )
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
            # Hand every eligible attempt to an idle worker, borrowing
            # another only while the pool is below its budget.
            while pending and pending[0][0] <= now:
                worker = next((w for w in pool if w.task is None), None)
                if worker is None:
                    if len(pool) >= limit:
                        break
                    worker = _borrow()
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
        # Whatever path exits — done, interrupt, strict raise — no busy
        # worker outlives the sweep: it is killed, and only idle ones go
        # back to the set.
        for worker in pool:
            if worker.task is None:
                worker_set.give_back(worker)
            else:
                worker.proc.kill()
                worker.conn.close()
                worker.proc.join()
        pool.clear()
        if own:
            worker_set.close()
