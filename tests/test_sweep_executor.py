"""The sweep engine's one executor (repro.sweep.supervise.run_forked).

Every sweep — at any worker count, supervised or not — evaluates its
cache misses on the same warm, reusable forked workers:

* the target is resolved (and its ``warm`` hook run) once, in the
  parent, before any fork;
* a worker evaluates point after point until the sweep ends, and is
  replaced only when the supervisor kills it or it dies;
* failures surface as the point raised them — the same error record a
  direct evaluation formats — and no worker outlives the sweep;
* a point that kills its own worker costs only that point, at
  ``workers=1`` and for a single miss alike;
* a worker holds no socket of its parent's but its own pipe, and a
  signal sent to a worker never reaches the parent's event loop;
* a caller-owned :class:`WorkerSet` lends the same workers to sweep
  after sweep, never lends a killed one, and retires a worker forked
  before a target was registered.
"""

import asyncio
import json
import multiprocessing
import os
import select
import signal
import socket
import stat
import subprocess
import sys
import time

import pytest

from repro.obs import MetricsRegistry
from repro.sweep import (
    PointQuarantined,
    SupervisorPolicy,
    SweepCache,
    SweepInterrupted,
    SweepSpec,
    WorkerSet,
    current_attempt,
    get_target,
    grid,
    register_target,
    resolve_target,
    run_sweep,
)
from repro.sweep.supervise import _evaluate

FAST = SupervisorPolicy(timeout_s=1.0, max_attempts=2, backoff_base_s=0.0)


def _pid_target(config: dict, seed: int) -> dict:
    return {"x": config["x"], "pid": os.getpid()}


register_target("exec-pid", _pid_target)

#: Set only by the warm hook below, which runs in the sweep's parent.
WARMED: list[list[dict]] = []


def _warm(configs: list[dict]) -> None:
    WARMED.append(configs)


@register_target("exec-warm", warm=_warm)
def _warm_target(config: dict, seed: int) -> dict:
    # Forked workers inherit the parent's state at fork time: the hook
    # has already run there.
    return {"x": config["x"], "warmed": len(WARMED)}


@register_target("exec-hostile")
def _hostile_target(config: dict, seed: int) -> dict:
    mode = config.get("mode")
    if mode == "hang" and current_attempt() == 1:
        time.sleep(60)
    if mode == "kill":
        os.kill(os.getpid(), 9)
    if mode == "raise":
        raise ValueError(f"bad point x={config['x']}")
    return {"x": config["x"], "pid": os.getpid()}


@register_target("exec-sockets")
def _socket_target(config: dict, seed: int) -> dict:
    count = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            count += stat.S_ISSOCK(os.stat(f"/proc/self/fd/{name}").st_mode)
        except OSError:
            pass  # the listing's own descriptor
    return {"x": config["x"], "sockets": count}


@register_target("exec-sigint")
def _sigint_target(config: dict, seed: int) -> dict:
    os.kill(os.getpid(), signal.SIGINT)
    return {"x": config["x"]}


def _pids(result) -> set[int]:
    return {p.result["pid"] for p in result.points if p.result is not None}


def test_workers_are_reused_across_points():
    registry = MetricsRegistry()
    result = run_sweep(
        SweepSpec("exec-pid", points=grid(x=list(range(12)))),
        workers=2,
        metrics=registry,
    )
    pids = _pids(result)
    assert 1 <= len(pids) <= 2 and os.getpid() not in pids
    assert registry.snapshot()["sweep.workers_spawned"] == len(pids)
    assert not multiprocessing.active_children()


def test_supervised_workers_are_reused_until_a_kill():
    registry = MetricsRegistry()
    result = run_sweep(
        SweepSpec("exec-pid", points=grid(x=list(range(6)))),
        workers=1,
        supervise=FAST,
        metrics=registry,
    )
    assert len(_pids(result)) == 1
    snapshot = registry.snapshot()
    assert snapshot["sweep.workers_spawned"] == 1 and snapshot["sweep.retries"] == 0


def test_target_is_warmed_once_in_the_parent_before_fork(tmp_path):
    WARMED.clear()
    spec = SweepSpec("exec-warm", points=grid(x=[1, 2, 3, 4]))
    cache = SweepCache(tmp_path)
    result = run_sweep(spec, workers=2, cache=cache)
    assert [p.result["warmed"] for p in result.points] == [1, 1, 1, 1]
    assert WARMED == [spec.configs()]
    # An all-hit re-run evaluates nothing, so it resolves nothing.
    run_sweep(spec, workers=2, cache=cache)
    assert len(WARMED) == 1


def test_timeout_replaces_only_the_killed_worker():
    registry = MetricsRegistry()
    points = [{"x": 0, "mode": "hang"}, *({"x": x} for x in range(1, 5))]
    result = run_sweep(
        SweepSpec("exec-hostile", points=points),
        workers=1,
        supervise=FAST,
        metrics=registry,
    )
    assert result.errors == 0
    snapshot = registry.snapshot()
    assert snapshot["sweep.timeouts"] == 1
    assert snapshot["sweep.workers_spawned"] == 2  # the original + one replacement
    assert len(_pids(result)) == 1  # every honest point ran on the replacement


def test_unsupervised_worker_death_quarantines_only_that_point():
    points = [{"x": 0}, {"x": 1, "mode": "kill"}, {"x": 2}, {"x": 3}]
    spec = SweepSpec("exec-hostile", points=points)
    result = run_sweep(spec, workers=2, strict=False)
    errors = {p.index: p.error for p in result.points if p.error is not None}
    assert list(errors) == [1]
    assert errors[1]["type"] == "PointQuarantined"
    assert [f["type"] for f in errors[1]["failures"]] == ["WorkerDied"]
    with pytest.raises(PointQuarantined):
        run_sweep(spec, workers=2)
    assert not multiprocessing.active_children()


#: Run in a fresh interpreter: were the kill point evaluated on the
#: caller's interpreter, it would SIGKILL the process running the sweep
#: (the subprocess exits -9) instead of failing the assertions below.
HOSTILE_SWEEPS = """
import json, os
from repro.sweep import PointQuarantined, SweepSpec, register_target, run_sweep

@register_target("kill")
def _kill(config, seed):
    if config["mode"] == "kill":
        os.kill(os.getpid(), 9)
    return {"x": config["x"], "pid": os.getpid()}

def outcome(points, workers):
    spec = SweepSpec("kill", points=points)
    loose = run_sweep(spec, workers=workers, strict=False)
    try:
        run_sweep(spec, workers=workers)
        raised = None
    except PointQuarantined as exc:
        raised = exc.record
    return {"points": [[p.result, p.error] for p in loose.points], "raised": raised}

print(json.dumps({
    "pid": os.getpid(),
    "pair@1": outcome([{"x": 0, "mode": "kill"}, {"x": 1, "mode": "none"}], 1),
    "single@2": outcome([{"x": 0, "mode": "kill"}], 2),
}))
"""


def test_a_point_that_kills_its_worker_is_quarantined_at_any_worker_count():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", HOSTILE_SWEEPS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, (run.returncode, run.stderr)
    doc = json.loads(run.stdout)
    for case in ("pair@1", "single@2"):
        (result, error), *siblings = doc[case]["points"]
        assert result is None and error["type"] == "PointQuarantined"
        assert [f["type"] for f in error["failures"]] == ["WorkerDied"]
        assert doc[case]["raised"] == error  # strict raises the same record
        for result, error in siblings:
            assert error is None and result["x"] == 1 and result["pid"] != doc["pid"]


def test_strict_forked_failure_raises_the_original_exception_with_its_traceback():
    spec = SweepSpec("exec-hostile", points=[{"x": 0}, {"x": 1, "mode": "raise"}])
    with pytest.raises(ValueError, match="bad point x=1") as excinfo:
        run_sweep(spec, workers=2)
    assert "_hostile_target" in str(excinfo.value.__cause__)
    assert not multiprocessing.active_children()


def test_forked_error_records_match_in_process_ones():
    # The reference is one direct evaluation in this process.
    spec = SweepSpec("exec-hostile", points=[{"x": 0}, {"x": 1, "mode": "raise"}])
    config = spec.configs()[1]
    _, direct, _, _ = _evaluate(
        get_target("exec-hostile"), "exec-hostile", config, spec.point_seed(config),
        0.0, capture=True,
    )
    assert direct["type"] == "ValueError"
    for workers in (1, 2):
        forked = run_sweep(spec, workers=workers, strict=False)
        assert forked.points[1].error == direct
        assert "attempt" not in forked.points[1].error


def test_interrupt_kills_and_joins_every_worker():
    points = [{"x": 0}, {"x": 1, "mode": "hang"}, {"x": 2, "mode": "hang"}]
    spec = SweepSpec("exec-hostile", points=points)
    settled = []
    with pytest.raises(SweepInterrupted):
        run_sweep(
            spec,
            workers=3,
            on_point=settled.append,
            interrupt=lambda: len(settled) >= 1,
        )
    assert not multiprocessing.active_children()


def test_chaos_resolution_warms_the_inner_target():
    # In a fresh interpreter: resolving the chaos target for serving
    # points imports the serving simulator before any worker forks.
    code = (
        "import sys\n"
        "from repro.sweep import resolve_target\n"
        "assert 'repro.serving' not in sys.modules\n"
        "resolve_target('chaos', [{'inner_target': 'serving'}, {'inner_target': 'nope'}])\n"
        "assert 'repro.serving' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_resolve_target_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown sweep target"):
        resolve_target("no-such-target", [{}])


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
def test_idle_workers_exit_when_the_parent_dies(tmp_path):
    # The parent stalls in on_point after the first settled point (its
    # workers go idle) and is then SIGKILL'd: no finally block runs, so
    # only EOF on the task pipe can tell the workers to exit.
    script = tmp_path / "parent.py"
    script.write_text(
        "import os, time\n"
        "from repro.sweep import SweepSpec, grid, register_target, run_sweep\n"
        "register_target('pid', lambda config, seed: {'pid': os.getpid()})\n"
        "def stall(point):\n"
        "    print(point.result['pid'], flush=True)\n"
        "    time.sleep(60)\n"
        "run_sweep(SweepSpec('pid', points=grid(x=[1, 2, 3])), workers=2, on_point=stall)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, env=env) as parent:
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60)
            assert ready, "the sweep never settled a point"
            worker = int(parent.stdout.readline())
        finally:
            parent.kill()

    def alive(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 10
    while alive(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphaned = alive(worker)
    if orphaned:
        os.kill(worker, 9)  # leave no orphan behind a failing run
    assert not orphaned


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
def test_workers_hold_only_their_own_pipe():
    # Like a server mid-request: a listening socket and an accepted
    # connection.  A worker holding copies would keep the client from
    # reading EOF after the parent closes its end.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with socket.create_connection(listener.getsockname()) as client:
            accepted, _ = listener.accept()
            with accepted:
                result = run_sweep(
                    SweepSpec("exec-sockets", points=grid(x=list(range(4)))),
                    workers=2,
                )
    assert [p.result["sockets"] for p in result.points] == [1, 1, 1, 1]


def test_a_signal_to_a_worker_stays_in_the_worker():
    # The worker inherits the loop's handler and its wakeup fd; without
    # detaching the fd, the worker's SIGINT would wake the parent's
    # handler (which, in ``repro serve``, starts a drain).
    fired = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGINT, fired.append, "SIGINT")
        try:
            spec = SweepSpec("exec-sigint", points=grid(x=[0, 1]))
            result = await loop.run_in_executor(None, lambda: run_sweep(spec, workers=2))
            await asyncio.sleep(0.2)  # room for a stray wakeup byte to land
        finally:
            loop.remove_signal_handler(signal.SIGINT)
        return result

    result = asyncio.run(scenario())
    assert [p.result for p in result.points] == [{"x": 0}, {"x": 1}]
    assert fired == []


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _idle_pids(workers: WorkerSet) -> list[int]:
    return [worker.proc.pid for worker in workers._idle]


def test_a_shared_set_lends_the_same_workers_to_every_sweep():
    with WorkerSet() as workers:
        workers.prefork(2)
        pids = set(_idle_pids(workers))
        for first in (0, 10, 20):
            registry = MetricsRegistry()
            spec = SweepSpec("exec-pid", points=grid(x=list(range(first, first + 6))))
            result = run_sweep(spec, workers=2, metrics=registry, worker_set=workers)
            assert registry.snapshot()["sweep.workers_spawned"] == 0
            assert _pids(result) <= pids
            assert set(_idle_pids(workers)) == pids
    assert not any(_alive(pid) for pid in pids)
    assert not multiprocessing.active_children()


def test_a_killed_worker_never_goes_back_to_the_set():
    points = [{"x": 0, "mode": "hang"}, {"x": 1}]
    with WorkerSet() as workers:
        workers.prefork(1)
        (first,) = _idle_pids(workers)
        registry = MetricsRegistry()
        result = run_sweep(
            SweepSpec("exec-hostile", points=points),
            supervise=FAST,
            metrics=registry,
            worker_set=workers,
        )
        assert result.errors == 0
        assert registry.snapshot()["sweep.workers_spawned"] == 1  # the replacement
        assert first not in _idle_pids(workers) and not _alive(first)
        (replacement,) = _idle_pids(workers)
        # The next sweep runs on the replacement, forking nothing.
        registry = MetricsRegistry()
        result = run_sweep(
            SweepSpec("exec-pid", points=grid(x=[1, 2])),
            metrics=registry,
            worker_set=workers,
        )
        assert _pids(result) == {replacement}
        assert registry.snapshot()["sweep.workers_spawned"] == 0


def test_an_interrupt_kills_busy_workers_and_returns_idle_ones():
    points = [{"x": 0}, {"x": 1, "mode": "hang"}]
    settled = []
    with WorkerSet() as workers:
        workers.prefork(2)
        prestarted = set(_idle_pids(workers))
        with pytest.raises(SweepInterrupted):
            run_sweep(
                SweepSpec("exec-hostile", points=points),
                workers=2,
                on_point=settled.append,
                interrupt=lambda: len(settled) >= 1,
                worker_set=workers,
            )
        (idle,) = {settled[0].result["pid"]}
        (hung,) = prestarted - {idle}
        assert _idle_pids(workers) == [idle] and not _alive(hung)


def test_a_target_registered_after_the_set_forked_still_evaluates():
    with WorkerSet() as workers:
        workers.prefork(1)
        (stale,) = _idle_pids(workers)
        register_target("exec-late", lambda config, seed: {"x": config["x"], "pid": os.getpid()})
        registry = MetricsRegistry()
        result = run_sweep(
            SweepSpec("exec-late", points=grid(x=[1, 2])),
            metrics=registry,
            worker_set=workers,
        )
        assert [p.result["x"] for p in result.points] == [1, 2]
        assert stale not in _pids(result) and not _alive(stale)
        assert registry.snapshot()["sweep.workers_spawned"] == 1


def test_a_sweep_borrowing_from_a_set_reports_what_it_reports_alone():
    serving = {"num_requests": 30, "prompt_mean": 64, "output_mean": 16}
    a = SweepSpec("serving", points=grid(request_rate=[4, 8], mtp=[False, True]), base=serving, seed=1)
    b = SweepSpec("serving", points=grid(request_rate=[2, 6]), base=serving, seed=2)
    alone = run_sweep(b).to_report_json()
    with WorkerSet() as workers:
        workers.prefork(1)
        run_sweep(a, worker_set=workers)
        after_a = run_sweep(b, worker_set=workers).to_report_json()
    assert after_a == alone


def test_close_stops_idle_workers_and_workers_returned_later():
    workers = WorkerSet()
    workers.prefork(1)
    (idle,) = _idle_pids(workers)
    borrowed, forked = workers.borrow()
    assert borrowed.proc.pid == idle and not forked
    workers.close()
    assert _alive(idle)  # still lent out
    workers.give_back(borrowed)
    assert not _alive(idle) and _idle_pids(workers) == []
    assert not multiprocessing.active_children()
