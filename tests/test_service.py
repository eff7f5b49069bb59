"""End-to-end tests for the experiment service (repro.service).

Everything runs over real sockets on ephemeral ports: in-process
servers (fast, lets tests register custom sweep targets) for the
submit/stream/backpressure/cancel paths, and a genuine ``repro serve``
subprocess killed with SIGKILL for the session-resume invariant.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service import (
    EventBroker,
    ExperimentServer,
    JobSpec,
    ServiceClient,
    ServiceConfig,
)
from repro.service.http import HttpError, HttpRequest, read_request
from repro.sweep import SweepSpec, grid, register_target, run_sweep

SRC = Path(__file__).resolve().parent.parent / "src"

SERVING_BASE = {"num_requests": 20, "prompt_mean": 64, "output_mean": 16}


@register_target("svc-sleepy")
def _sleepy_target(config: dict, seed: int) -> dict:
    time.sleep(config.get("sleep_s", 0.1))
    return {"x": config.get("x", 0), "seed": seed}


@register_target("svc-flaky")
def _flaky_target(config: dict, seed: int) -> dict:
    if config.get("x", 0) % 2 == 0:
        raise ValueError(f"point {config['x']} exploded")
    return {"x": config["x"]}


def _config(tmp_path: Path, **overrides) -> ServiceConfig:
    defaults = dict(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        heartbeat_s=0.2,
        metrics_interval_s=0.05,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _with_server(config: ServiceConfig, body) -> None:
    server = ExperimentServer(config)
    await server.start()
    try:
        await body(server, ServiceClient(server.host, server.port))
    finally:
        await server.stop()


def _counts(events: list[tuple[str, dict]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event, _ in events:
        counts[event] = counts.get(event, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# submit → SSE stream → artifacts
# ---------------------------------------------------------------------------


def test_submit_stream_and_artifacts(tmp_path):
    spec = {
        "target": "serving",
        "grid": {"request_rate": [4, 8]},
        "base": SERVING_BASE,
        "seed": 3,
    }

    async def body(server, client):
        health = await client.wait_healthy()
        assert health["ok"] and health["jobs"] == 0
        status, job = await client.post_json("/jobs", spec)
        assert status == 202 and job["state"] in ("queued", "running")
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        # One progress event per evaluated point, each index exactly once.
        progress = [d for e, d in events if e == "progress"]
        assert sorted(p["index"] for p in progress) == [0, 1]
        assert events[-1][0] == "done"
        assert events[-1][1]["evaluated"] == 2 and events[-1][1]["errors"] == 0

        status, detail = await client.get_json(f"/jobs/{job['id']}")
        assert status == 200 and detail["state"] == "done"
        assert detail["evaluated"] == 2 and detail["cache_hits"] == 0
        assert "sweep.progress" in detail["metrics"]

        status, listing = await client.get_json("/jobs")
        assert status == 200 and [j["id"] for j in listing["jobs"]] == [job["id"]]

        # The report artifact is the cache-independent sweep document,
        # byte-identical to a direct uncached run of the same spec.
        status, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        assert status == 200
        direct = run_sweep(
            SweepSpec(
                target="serving",
                points=grid(request_rate=[4, 8]),
                base=SERVING_BASE,
                seed=3,
            ),
            cache=None,
        )
        assert report == direct.to_report_json().encode()

        status, _, trace = await client.request("GET", f"/jobs/{job['id']}/trace")
        assert status == 200 and isinstance(json.loads(trace), list)

        # Warm resubmit: every point arrives as a cache_hit instant.
        status, job2 = await client.post_json("/jobs", spec)
        events2 = await client.collect_events(f"/jobs/{job2['id']}/events", timeout=30)
        counts = _counts(events2)
        assert counts.get("cache_hit") == 2 and "progress" not in counts
        _, detail2 = await client.get_json(f"/jobs/{job2['id']}")
        assert detail2["evaluated"] == 0 and detail2["cache_hits"] == 2
        status, _, report2 = await client.request("GET", f"/jobs/{job2['id']}/report")
        assert report2 == report  # cache-independent document

    asyncio.run(_with_server(_config(tmp_path), body))


def test_sse_metrics_frames_and_late_subscriber(tmp_path):
    spec = {
        "target": "svc-sleepy",
        "grid": {"x": [1, 2, 3]},
        "base": {"sleep_s": 0.1},
    }

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        counts = _counts(events)
        assert counts["progress"] == 3
        metrics_frames = [d for e, d in events if e == "metrics"]
        assert metrics_frames, "expected periodic obs snapshots on the stream"
        assert "sweep.progress" in metrics_frames[-1]["metrics"]
        # A subscriber connecting after completion replays history and
        # terminates immediately on the recorded terminal event.
        replayed = await client.collect_events(f"/jobs/{job['id']}/events", timeout=5)
        replay_counts = _counts(replayed)
        assert replay_counts["progress"] == 3 and replay_counts["done"] == 1
        # The finished job's stored replay is the live stream's frames
        # without the droppable metrics ticks.
        assert replayed == [(e, d) for e, d in events if e != "metrics"]

    asyncio.run(_with_server(_config(tmp_path), body))


def test_finished_jobs_keep_a_small_record(tmp_path):
    """A terminal job keeps its summary, its metrics registry and its
    encoded SSE replay, not its broker, tracer, events and spec: over
    100 jobs run after a warm-up, the traced bytes the server keeps grow
    by at most 3 KiB per finished job (a live ``Job`` kept about 10 KiB).
    Tracing starts before the warm-up, so what the warm-up fills and the
    measured jobs evict from bounded caches (``urlsplit``'s LRU) nets
    out.  ``pathlib.py`` is left out: the interpreter's one-off resize
    of its interned-string table is charged there."""
    import gc
    import tracemalloc

    warmup, measured = 50, 100

    async def run(client, first: int, count: int) -> None:
        for index in range(first, first + count):
            _, job = await client.post_json(
                "/jobs",
                {"target": "svc-sleepy", "grid": {"x": [1, 2]},
                 "base": {"sleep_s": 0.0}, "seed": index},
            )
            events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
            assert events[-1][0] == "done"
            status, _, _ = await client.request("GET", f"/jobs/{job['id']}/report")
            assert status == 200

    def kept(snapshot) -> int:
        return sum(
            stat.size for stat in snapshot.statistics("filename")
            if not stat.traceback[0].filename.endswith("pathlib.py")
        )

    async def body(server, client):
        tracemalloc.start()
        try:
            await run(client, 0, warmup)
            gc.collect()
            before = kept(tracemalloc.take_snapshot())
            await run(client, warmup, measured)
            gc.collect()
            after = kept(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
        assert not server.manager.live
        assert len(server.manager.jobs) == warmup + measured
        assert (after - before) / measured <= 3 * 1024

    asyncio.run(_with_server(_config(tmp_path, telemetry_interval_s=0.05), body))


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------


def test_backpressure_429_with_retry_after(tmp_path):
    spec = {"target": "svc-sleepy", "grid": {"x": [1, 2]}, "base": {"sleep_s": 0.3}}

    async def body(server, client):
        # capacity = job_workers(1) + queue_size(1) = 2; submit 3x that.
        submissions = [await client.post_json("/jobs", spec) for _ in range(6)]
        accepted = [job for status, job in submissions if status == 202]
        statuses = [status for status, _ in submissions]
        assert statuses.count(202) == 2
        assert statuses.count(429) == 4
        # Rejections carry Retry-After.
        status, headers, body_bytes = await client.request(
            "POST", "/jobs", spec
        )
        assert status == 429 and "retry-after" in headers
        assert json.loads(body_bytes)["error"] == "job queue at capacity"
        # Every accepted job completes.
        for job in accepted:
            events = await client.collect_events(
                f"/jobs/{job['id']}/events", timeout=30
            )
            assert events[-1][0] == "done"
        # Capacity freed: submissions succeed again.
        status, _ = await client.post_json("/jobs", spec)
        assert status == 202

    asyncio.run(
        _with_server(_config(tmp_path, job_workers=1, queue_size=1), body)
    )


def test_event_broker_bounded_buffers():
    """Slow consumers lose droppable frames, never grow unbounded, and
    always still receive the terminal event."""
    broker = EventBroker(buffer=4)

    async def body():
        replay, queue = broker.subscribe()
        assert replay == []
        for i in range(100):
            broker.publish("metrics", {"i": i}, droppable=True)
        assert queue.qsize() == 4 and broker.dropped == 96
        for i in range(50):
            broker.publish("progress", {"i": i})
        assert queue.qsize() == 4  # oldest evicted, never blocked
        broker.publish("done", {"state": "done"})
        drained = []
        while not queue.empty():
            drained.append(queue.get_nowait())
        assert drained[-1][0] == "done"
        # History kept every critical event for replay despite the
        # bounded live buffer.
        assert sum(1 for e, _ in broker.history if e == "progress") == 50
        broker.unsubscribe(queue)
        assert broker.subscribers == 0

    asyncio.run(body())


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


def test_cancel_route(tmp_path):
    spec = {"target": "svc-sleepy", "grid": {"x": list(range(10))}, "base": {"sleep_s": 0.15}}

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        async for event, data in client.events(
            f"/jobs/{job['id']}/events", stop_on_terminal=False
        ):
            if event == "progress":
                break
        status, cancelled = await client.delete_json(f"/jobs/{job['id']}")
        assert status == 200
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert events[-1][0] == "cancelled"
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["state"] == "cancelled"
        assert 0 < detail["done"] < detail["total"]
        # Cancel is idempotent.
        status, again = await client.delete_json(f"/jobs/{job['id']}")
        assert status == 200 and again["state"] == "cancelled"
        # The cancelled job's completed points are cached: resubmitting
        # the same spec serves them as hits.
        _, job2 = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job2['id']}/events", timeout=60)
        _, detail2 = await client.get_json(f"/jobs/{job2['id']}")
        assert detail2["state"] == "done"
        assert detail2["cache_hits"] >= detail["done"]

    asyncio.run(_with_server(_config(tmp_path), body))


def test_cancel_queued_job(tmp_path):
    slow = {"target": "svc-sleepy", "grid": {"x": [1, 2, 3]}, "base": {"sleep_s": 0.3}}

    async def body(server, client):
        _, running = await client.post_json("/jobs", slow)
        _, queued = await client.post_json("/jobs", slow)
        status, cancelled = await client.delete_json(f"/jobs/{queued['id']}")
        assert status == 200 and cancelled["state"] == "cancelled"
        assert cancelled["done"] == 0
        events = await client.collect_events(f"/jobs/{running['id']}/events", timeout=30)
        assert events[-1][0] == "done"

    asyncio.run(
        _with_server(_config(tmp_path, job_workers=1, queue_size=2), body)
    )


# ---------------------------------------------------------------------------
# per-point errors and bad requests
# ---------------------------------------------------------------------------


def test_point_errors_stream_as_error_events(tmp_path):
    spec = {"target": "svc-flaky", "grid": {"x": [1, 2, 3, 4]}}

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        errors = [d for e, d in events if e == "error"]
        assert sorted(d["config"]["x"] for d in errors) == [2, 4]
        for d in errors:
            assert d["error"]["type"] == "ValueError"
            assert "exploded" in d["error"]["message"]
            assert "traceback" in d["error"]
        assert events[-1][0] == "done" and events[-1][1]["errors"] == 2
        status, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        doc = json.loads(report)
        failed = [p for p in doc["points"] if p["result"] is None]
        assert len(failed) == 2 and all("error" in p for p in failed)

    asyncio.run(_with_server(_config(tmp_path), body))


def test_faults_payload_accepted_and_validated(tmp_path):
    schedule = {"events": [{"time": 1.0, "kind": "gpu", "target": "decode", "mttr": 2.0}]}
    base = {**SERVING_BASE, "num_requests": 40}
    spec = {
        "target": "serving",
        "grid": {"request_rate": [6]},
        "base": {**base, "faults": schedule},
        "seed": 1,
    }

    async def body(server, client):
        status, job = await client.post_json("/jobs", spec)
        assert status == 202
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert events[-1][0] == "done" and events[-1][1]["errors"] == 0
        # Malformed schedules are rejected up front, not at run time.  A
        # bool count and a NaN mttr used to store a never-repaired 1-GPU
        # fault; a non-list ``events`` used to raise TypeError.
        for faults, message in (
            ({"events": [{"time": -3, "kind": "gpu"}]}, "fault time must be finite"),
            ({"events": [{"time": 1, "kind": "gpu", "count": True}]},
             "count must be a positive integer"),
            ({"events": [{"time": 1, "kind": "gpu", "mttr": math.nan}]}, "JSON-serializable"),
            ({"events": [{"time": math.inf, "kind": "gpu"}]}, "JSON-serializable"),
            ({"events": {"time": 1, "kind": "gpu"}}, "an object with an 'events' list"),
        ):
            bad = dict(spec, base={**base, "faults": faults})
            status, payload = await client.post_json("/jobs", bad)
            assert status == 400, faults
            assert payload["error"].startswith("serving point {") and message in payload["error"]
        # The job-level spelling is gone: scenario keys live in ``base``.
        status, payload = await client.post_json(
            "/jobs", dict(spec, base=base, faults=schedule)
        )
        assert status == 400 and "unknown job spec keys: ['faults']" in payload["error"]

    asyncio.run(_with_server(_config(tmp_path), body))


def test_http_error_paths(tmp_path):
    async def body(server, client):
        status, payload = await client.get_json("/jobs/nope")
        assert status == 404
        status, _ = await client.get_json("/no/such/route")
        assert status == 404
        status, _, _ = await client.request("PUT", "/jobs")
        assert status == 405
        status, _, body_bytes = await client.request("POST", "/jobs", {"target": "bogus"})
        assert status == 400 and b"unknown target" in body_bytes
        reader, writer = await asyncio.open_connection(client.host, client.port)
        writer.write(b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson")
        await writer.drain()
        raw = await reader.read()
        assert b"400" in raw.split(b"\r\n", 1)[0]
        writer.close()
        # No grid and no points:
        status, _ = await client.post_json("/jobs", {"target": "serving"})
        assert status == 400
        # Report for a job that has not finished:
        _, job = await client.post_json(
            "/jobs",
            {"target": "svc-sleepy", "grid": {"x": [1]}, "base": {"sleep_s": 0.5}},
        )
        status, _, _ = await client.request("GET", f"/jobs/{job['id']}/report")
        assert status == 404

    asyncio.run(_with_server(_config(tmp_path), body))


def test_oversized_lines_and_bad_lengths_are_400_or_413_not_500(tmp_path):
    long_line = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
    long_header = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
    negative = b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
    # More digits than int() parses (sys.get_int_max_str_digits()).
    long_length = b"POST /jobs HTTP/1.1\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n"
    cases = {
        long_line: b"400 Bad Request",
        long_header: b"400 Bad Request",
        negative: b"400 Bad Request",
        long_length: b"413 Payload Too Large",
    }

    async def body(server, client):
        for raw, status in cases.items():
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(raw)
            await writer.drain()
            response = await reader.read()
            writer.close()
            assert response.split(b"\r\n", 1)[0] == b"HTTP/1.1 " + status, raw[:40]
        assert server.metrics.snapshot().get("service.http.errors", 0) == 0

    asyncio.run(_with_server(_config(tmp_path), body))


_REQUESTS = (
    b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\n"
    b"Content-Length: 19\r\n\r\n{\"target\": \"serving\"}",
    b"GET /jobs/j0001/report?windows=1 HTTP/1.1\r\n\r\n",
)
_TOKENS = (
    b"\r\n", b"\n", b":", b" ", b"%", b"?", b"[", b"//", b"-1", b"+7", b"\xff",
    b"Content-Length: ", b"9" * 5000,
)


@st.composite
def _mutated_requests(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(_REQUESTS)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("insert", "delete", "repeat")))
        if kind == "insert":
            data[at:at] = draw(st.one_of(st.sampled_from(_TOKENS), st.binary(max_size=8)))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 16))]
        else:  # a run long enough to cross the stream's 64 KiB line limit
            data[at:at] = draw(st.binary(min_size=1, max_size=2)) * draw(
                st.sampled_from((100, 40_000, 70_000))
            )
    return bytes(data)


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@example(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nX: " + b"a" * 70_000 + b"\r\n\r\n")
@example(b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
@example(b"GET //[ HTTP/1.1\r\n\r\n")
@example(b"POST /jobs HTTP/1.1\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n")
@given(_mutated_requests())
def test_read_request_fuzz_ends_in_a_request_or_a_4xx(raw):
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    try:
        request = asyncio.run(parse())
    except HttpError as exc:
        assert 400 <= exc.status < 500
    except asyncio.IncompleteReadError:
        pass  # the peer closed mid-body
    else:
        assert request is None or isinstance(request, HttpRequest)


# ---------------------------------------------------------------------------
# one warm worker set per server
# ---------------------------------------------------------------------------


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _idle_pids(workers) -> list[int]:
    return [worker.proc.pid for worker in workers._idle]


async def _run_job(client: ServiceClient, spec: dict) -> tuple[dict, bytes]:
    status, job = await client.post_json("/jobs", spec)
    assert status == 202, job
    events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
    assert events[-1][0] == "done", events[-1]
    _, detail = await client.get_json(f"/jobs/{job['id']}")
    _, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
    return detail, report


def test_jobs_borrow_the_workers_forked_at_start(tmp_path):
    pids = []

    async def body(server, client):
        await client.wait_healthy()
        prestarted = set(_idle_pids(server.manager.worker_set))
        assert len(prestarted) == server.config.job_workers
        for seed in (1, 2, 3):
            spec = {"target": "serving", "grid": {"request_rate": [4, 8]},
                    "base": SERVING_BASE, "seed": seed}
            detail, _ = await _run_job(client, spec)
            assert detail["metrics"]["sweep.workers_spawned"] == 0
        assert set(_idle_pids(server.manager.worker_set)) == prestarted
        pids.extend(prestarted)

    asyncio.run(_with_server(_config(tmp_path), body))
    # stop() leaves no live worker behind.
    assert pids and not any(_alive(pid) for pid in pids)


def test_a_job_after_another_reports_what_it_reports_alone(tmp_path):
    a = {"target": "serving", "grid": {"request_rate": [4, 8], "mtp": [False, True]},
         "base": SERVING_BASE, "seed": 11}
    b = {"target": "serving", "grid": {"request_rate": [2, 6]},
         "base": {**SERVING_BASE, "window_s": 1.0}, "seed": 12}
    reports = {}

    async def after_a(server, client):
        await client.wait_healthy()
        await _run_job(client, a)
        detail, reports["after_a"] = await _run_job(client, b)
        assert detail["metrics"]["sweep.workers_spawned"] == 0  # A's worker

    async def alone(server, client):
        await client.wait_healthy()
        _, reports["alone"] = await _run_job(client, b)

    asyncio.run(_with_server(_config(tmp_path / "1", job_workers=1), after_a))
    asyncio.run(_with_server(_config(tmp_path / "2", job_workers=1), alone))
    assert reports["after_a"] == reports["alone"]


def test_a_killed_worker_is_replaced_and_the_next_job_succeeds(tmp_path):
    hang = {"target": "svc-sleepy", "points": [{"x": 0, "sleep_s": 30}],
            "timeout_s": 0.3, "max_attempts": 1}
    after = {"target": "svc-sleepy", "points": [{"x": 1, "sleep_s": 0}], "seed": 4}

    async def body(server, client):
        await client.wait_healthy()
        (prestarted,) = _idle_pids(server.manager.worker_set)
        detail, _ = await _run_job(client, hang)
        assert detail["errors"] == 1
        assert detail["metrics"]["sweep.timeouts"] == 1
        # The killed worker is reaped and not lent again.
        assert _idle_pids(server.manager.worker_set) == [] and not _alive(prestarted)
        detail, report = await _run_job(client, after)
        assert detail["errors"] == 0 and detail["metrics"]["sweep.workers_spawned"] == 1
        assert json.loads(report)["points"][0]["result"]["x"] == 1
        detail, _ = await _run_job(client, dict(after, seed=5))
        assert detail["metrics"]["sweep.workers_spawned"] == 0

    asyncio.run(_with_server(_config(tmp_path, job_workers=1), body))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="lists /proc/self/task")
def test_the_server_forks_only_while_it_has_one_thread(tmp_path):
    """CPython 3.12 warns when a process is multi-threaded right after
    it forks (it counts the threads the kernel lists, as this test
    does).  The server forks its workers before its first executor
    thread starts, so cold serving and chaos jobs (the first import
    of a lazily registered target) fork nothing from a threaded
    process."""
    script = tmp_path / "serve.py"
    script.write_text(
        "import asyncio, os, sys\n"
        "from repro.service import ExperimentServer, ServiceClient, ServiceConfig\n"
        "threads = []\n"
        "os.register_at_fork(after_in_parent=lambda: threads.append(len(os.listdir('/proc/self/task'))))\n"
        "async def main():\n"
        "    server = ExperimentServer(ServiceConfig(state_dir=sys.argv[1], cache_dir=sys.argv[2]))\n"
        "    await server.start()\n"
        "    client = ServiceClient(server.host, server.port)\n"
        "    chaos = {'target': 'chaos', 'points': [{'chaos_mode': 'none', 'chaos_attempts': 1,\n"
        "        'chaos_hang_s': 1.0, 'chaos_slow_s': 0.0, 'inner_target': 'serving',\n"
        "        'inner': {'num_requests': 20, 'request_rate': 2}, 'inner_seed': 7}]}\n"
        "    for seed in (1, 2):\n"
        "        for spec in ({'target': 'serving', 'grid': {'request_rate': [2, 4]},\n"
        "                      'base': {'num_requests': 20}}, chaos):\n"
        "            _, job = await client.post_json('/jobs', dict(spec, seed=seed))\n"
        "            events = await client.collect_events(f\"/jobs/{job['id']}/events\", timeout=60)\n"
        "            assert events[-1][0] == 'done', events[-1]\n"
        "    await server.stop()\n"
        "asyncio.run(main())\n"
        "print(threads)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "state"), str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    forks = json.loads(out)
    # One fork per job slot at start, and none after it.
    assert forks == [1] * ServiceConfig(state_dir=tmp_path).job_workers, forks


# ---------------------------------------------------------------------------
# kill the real server, restart, resume
# ---------------------------------------------------------------------------


def _serve_subprocess(state: Path, cache: Path) -> subprocess.Popen:
    (state / "server.json").unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--state-dir", str(state), "--cache-dir", str(cache),
            "--heartbeat", "0.3", "--metrics-interval", "0.1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _bound_port(state: Path, proc: subprocess.Popen, timeout: float = 20.0) -> int:
    info = state / "server.json"
    deadline = time.time() + timeout
    while time.time() < deadline:
        if info.is_file():
            return json.loads(info.read_text())["port"]
        if proc.poll() is not None:
            raise RuntimeError(f"server died: {proc.stderr.read().decode()}")
        time.sleep(0.05)
    raise RuntimeError("server never wrote server.json")


RESUME_GRID = [2, 3, 4, 5, 6, 7]
RESUME_BASE = {"num_requests": 2000, "prompt_mean": 256, "output_mean": 64}


def test_kill_and_resume_from_journal_and_cache(tmp_path):
    """The headline session invariant: SIGKILL the server mid-job,
    restart against the same state/cache dirs, and the job completes
    with zero recomputation of already-cached points and a report
    byte-identical to an uninterrupted run."""
    state, cache = tmp_path / "state", tmp_path / "cache"
    state.mkdir()
    spec = {
        "target": "serving",
        "grid": {"request_rate": RESUME_GRID},
        "base": RESUME_BASE,
        "seed": 9,
    }

    proc = _serve_subprocess(state, cache)
    try:
        port = _bound_port(state, proc)

        async def submit_and_watch() -> str:
            client = ServiceClient("127.0.0.1", port)
            await client.wait_healthy()
            _, job = await client.post_json("/jobs", spec)
            seen = 0
            async for event, _data in client.events(
                f"/jobs/{job['id']}/events", stop_on_terminal=False
            ):
                if event == "progress":
                    seen += 1
                    if seen >= 2:
                        break
            return job["id"]

        job_id = asyncio.run(asyncio.wait_for(submit_and_watch(), timeout=60))
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

    cached_before_restart = sum(1 for _ in cache.glob("??/*.json"))
    assert cached_before_restart >= 2  # the observed progress is durable

    proc = _serve_subprocess(state, cache)
    try:
        port = _bound_port(state, proc)

        async def resume_and_fetch() -> tuple[dict, bytes]:
            client = ServiceClient("127.0.0.1", port)
            await client.wait_healthy()
            events = await client.collect_events(f"/jobs/{job_id}/events", timeout=90)
            assert events[-1][0] == "done"
            _, detail = await client.get_json(f"/jobs/{job_id}")
            _, _, report = await client.request("GET", f"/jobs/{job_id}/report")
            return detail, report

        detail, report = asyncio.run(asyncio.wait_for(resume_and_fetch(), timeout=120))
    finally:
        proc.terminate()
        proc.wait()

    # Resume recomputed nothing that was already cached...
    assert detail["state"] == "done" and detail["resumed"] is True
    assert detail["cache_hits"] == cached_before_restart
    assert detail["evaluated"] == len(RESUME_GRID) - cached_before_restart
    # ...and the report is byte-identical to an uninterrupted run.
    direct = run_sweep(
        SweepSpec(
            target="serving",
            points=grid(request_rate=RESUME_GRID),
            base=RESUME_BASE,
            seed=9,
        ),
        cache=None,
    )
    assert report == direct.to_report_json().encode()


def _telemetry_spec() -> dict:
    """A windowed, SLO-monitored, fault-injected serving job: one decode
    node dies at t=3s and rejoins at t=6s."""
    return {
        "target": "serving",
        "grid": {"request_rate": [8]},
        "base": {
            **SERVING_BASE,
            "num_requests": 120,
            "mode": "disaggregated",
            "prompt_mean": 256,
            "output_mean": 64,
            "window_s": 2.0,
            "slo": ["burn>2@0.9"],
            "faults": {
                "events": [{"time": 3.0, "kind": "node", "target": "decode", "mttr": 3.0}]
            },
        },
        "seed": 17,
    }


def test_metrics_exposition_and_self_telemetry(tmp_path):
    from repro.obs import parse_openmetrics

    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        await asyncio.sleep(0.15)  # let the telemetry pump tick
        status, headers, text = await client.request("GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("application/openmetrics-text")
        families = parse_openmetrics(text.decode())
        # Server self-telemetry families.
        for family in (
            "service_loop_lag_s",
            "service_queue_depth",
            "service_workers_utilization",
            "service_cache_hit_ratio",
            "service_journal_fsync_s",
            "service_points_settled",
        ):
            assert family in families, family
        assert families["service_points_settled"]["samples"][0]["value"] == 1
        # The job's registry rides along, labeled.
        progress = families["sweep_progress"]["samples"]
        assert progress[0]["labels"] == {"job": job["id"]}
        # Two scrapes are monotone on counters (http requests grew).
        first = families["service_http_requests"]["samples"][0]["value"]
        _, _, text2 = await client.request("GET", "/metrics")
        second = parse_openmetrics(text2.decode())
        assert second["service_http_requests"]["samples"][0]["value"] > first
        # The legacy JSON snapshot stays available behind ?format=json.
        status, snap = await client.get_json("/metrics?format=json")
        assert status == 200 and set(snap) == {"server"}  # legacy shape
        assert snap["server"]["service.points.settled"] == 1
        assert 0.0 <= snap["server"]["service.workers.utilization"] <= 1.0
        assert isinstance(snap["server"]["service.journal.fsync_s"], dict)

    asyncio.run(_with_server(_config(tmp_path, telemetry_interval_s=0.05), body))


def test_alert_frames_ride_the_stream_and_replay(tmp_path):
    async def body(server, client):
        _, job = await client.post_json("/jobs", _telemetry_spec())
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=60)
        alerts = [d for e, d in events if e == "alert"]
        states = [a["state"] for a in alerts]
        assert "fire" in states and "resolve" in states
        fire = next(a for a in alerts if a["state"] == "fire")
        assert fire["rule"] == "burn>2@0.9"
        assert fire["during_fault"] and fire["fault_target"] == "decode"
        assert fire["job"] == job["id"] and fire["index"] == 0
        # Alert frames are critical: a late subscriber replays them.
        replayed = await client.collect_events(f"/jobs/{job['id']}/events", timeout=5)
        assert [d for e, d in replayed if e == "alert"] == alerts

    asyncio.run(_with_server(_config(tmp_path), body))


def test_report_windows_section_is_opt_in(tmp_path):
    from repro.obs import merge_window_rollups

    async def body(server, client):
        spec = _telemetry_spec()
        spec["grid"] = {"request_rate": [6, 8]}
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=60)
        # Default report: the verbatim artifact, no merged section.
        status, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        assert status == 200
        doc = json.loads(report)
        assert "windows" not in doc
        assert doc["points"][0]["result"]["windows"]  # per-point rollups ride
        # ?windows=1 derives the cross-point merge on demand.
        status, _, with_windows = await client.request(
            "GET", f"/jobs/{job['id']}/report?windows=1"
        )
        assert status == 200
        merged_doc = json.loads(with_windows)
        section = merged_doc["windows"]
        assert section["points"] == 2
        expected = merge_window_rollups(
            [p["result"]["windows"] for p in doc["points"]]
        )
        assert section["merged"] == json.loads(json.dumps(expected))
        assert len(section["summaries"]) == len(expected)
        # Everything but the added section is unchanged.
        merged_doc.pop("windows")
        assert merged_doc == doc

    asyncio.run(_with_server(_config(tmp_path), body))


def test_dash_page_embeds_jobs(tmp_path):
    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}

    async def body(server, client):
        status, headers, page = await client.request("GET", "/dash")
        assert status == 200 and headers["content-type"].startswith("text/html")
        html = page.decode()
        assert "no jobs yet" in html and "EventSource" in html
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        _, _, page = await client.request("GET", "/dash")
        html = page.decode()
        assert job["id"] in html  # embedded snapshot covers terminal jobs

    asyncio.run(_with_server(_config(tmp_path), body))


def test_telemetry_payload_validation(tmp_path):
    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}
    bad = [
        ({"window_s": -1.0}, "window_s must be positive"),
        ({"window_s": True}, "serving 'window_s' must be float | None, got True"),
        # NaN is not canonical JSON: refused before the builder runs.
        ({"window_s": math.nan}, "JSON-serializable"),
        ({"slo": ["burn>2@0.9"]}, "slo_rules require window_s"),
        ({"window_s": 2.0, "slo": ["garbage"]}, "bad SLO rule 'garbage'"),
        ({"window_s": 2.0, "slo": []}, "serving 'slo' must be a non-empty list of rules"),
    ]

    async def body(server, client):
        for extra, message in bad:
            status, payload = await client.post_json(
                "/jobs", {**spec, "base": {**SERVING_BASE, **extra}}
            )
            assert status == 400, extra
            assert payload["error"].startswith("serving point {") and message in payload["error"]
        # The job-level spelling is gone: scenario keys live in ``base``.
        for key, value in (("window_s", 2.0), ("slo", ["burn>2@0.9"])):
            status, payload = await client.post_json("/jobs", {**spec, key: value})
            assert status == 400 and f"unknown job spec keys: ['{key}']" in payload["error"]
        # A well-formed pair is accepted.
        status, job = await client.post_json(
            "/jobs", {**spec, "base": {**SERVING_BASE, "window_s": 2.0, "slo": ["burn>2@0.9"]}}
        )
        assert status == 202
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["state"] == "done" and detail["errors"] == 0

    asyncio.run(_with_server(_config(tmp_path), body))


def test_non_finite_and_bool_numbers_rejected(tmp_path):
    """``nan <= 0`` is false and ``True`` is an int, so both used to pass
    validation: a NaN deadline never fired and ``seed: true`` keyed a
    cache entry apart from ``seed: 1``.  Python's JSON reader accepts
    ``NaN`` and ``Infinity`` literals, so the posted bodies carry them."""
    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}
    bad = [
        ("deadline_s", math.nan),
        ("deadline_s", math.inf),
        ("timeout_s", math.nan),
        ("window_s", math.nan),
        ("window_s", math.inf),
        ("seed", True),
    ]

    async def body(server, client):
        for key, value in bad:
            status, payload = await client.post_json("/jobs", {**spec, key: value})
            assert status == 400, (key, value)
            assert key in payload["error"], (key, value)
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []

    asyncio.run(_with_server(_config(tmp_path), body))


def test_points_the_builder_rejects_get_400_at_submit(tmp_path):
    """Each point is dry-built at submit, so a job that could only fail
    per point is refused with the scenario builder's message."""
    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}
    bad = [
        # A bare string axis is one point whose value is the string.
        ({**spec, "grid": {"request_rate": "abc"}}, "'request_rate' must be float"),
        ({**spec, "grid": {"nosuchkey": [1, 2]}}, "unknown serving sweep keys: ['nosuchkey']"),
        ({**spec, "base": {**SERVING_BASE, "num_requests": "many"}}, "'num_requests' must be int"),
    ]

    async def body(server, client):
        for payload, message in bad:
            status, reply = await client.post_json("/jobs", payload)
            assert status == 400, payload
            assert reply["error"].startswith("serving point {"), reply
            assert message in reply["error"], reply
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []
        status, _ = await client.post_json("/jobs", spec)
        assert status == 202

    asyncio.run(_with_server(_config(tmp_path), body))


def test_a_bad_base_key_is_named_in_the_400(tmp_path):
    """The failing key sits in ``base``, not in the point, so the message
    appends the base after the reason."""
    recovery = {"retry_budget": True}
    spec = {
        "target": "serving",
        "grid": {"request_rate": [2]},
        "base": {**SERVING_BASE, "recovery": recovery},
    }

    async def body(server, client):
        status, reply = await client.post_json("/jobs", spec)
        assert status == 400, reply
        error = reply["error"]
        assert error.startswith("serving point {'request_rate': 2}: "), reply
        assert "serving 'retry_budget' must be int, got True" in error, reply
        assert error.endswith(f" (base: {spec['base']})"), reply
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []

    asyncio.run(_with_server(_config(tmp_path), body))


def test_self_sending_flowsim_shift_gets_400_at_submit(tmp_path):
    """A shift of ``num_leaves * hosts_per_leaf`` routes every host to
    itself; the flowsim point check refuses it before any fork."""
    spec = {
        "target": "flowsim",
        "grid": {"shifts": [1, 4]},
        "base": {"num_leaves": 2, "hosts_per_leaf": 2},
    }

    async def body(server, client):
        status, reply = await client.post_json("/jobs", spec)
        assert status == 400, reply
        assert reply["error"].startswith("flowsim point {'shifts': 4}: "), reply
        assert "must be below num_leaves * hosts_per_leaf = 4" in reply["error"], reply
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []

    asyncio.run(_with_server(_config(tmp_path), body))


#: Serving values of the wrong type, each once accepted by the builder:
#: ``"false"`` turned MTP on, ``20.5`` requests failed with a TypeError
#: after a fork, and ``2.5`` GPUs ran.
MISTYPED_SERVING = [
    ("mtp", "false"),
    ("record_requests", "no"),
    ("num_requests", 20.5),
    ("num_requests", True),
    ("request_rate", True),
    ("window_s", True),
    ("prefill_gpus", 2.5),
    ("block_tokens", 16.5),
    ("max_concurrent_per_gpu", 1.5),
    ("kv_blocks_per_gpu", 64.5),
    ("mtp_acceptance", True),
    ("gpu_cost_per_hour", -1),
]


@pytest.mark.parametrize("key, value", MISTYPED_SERVING)
def test_mistyped_serving_values_are_refused_at_build_and_submit(tmp_path, key, value):
    from repro.sweep.targets import dry_build

    config = {**SERVING_BASE, key: value}
    with pytest.raises(ValueError, match=f"serving '{key}' must be"):
        dry_build("serving", config)
    spec = {"target": "serving", "points": [{}], "base": config}

    async def body(server, client):
        status, reply = await client.post_json("/jobs", spec)
        assert status == 400, reply
        assert f"serving '{key}' must be" in reply["error"], reply
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []

    asyncio.run(_with_server(_config(tmp_path, job_workers=1), body))


def test_submit_check_reads_no_file_and_routes_no_flows(tmp_path, monkeypatch):
    """The submit check runs on the server's event loop, so it must stay
    cheap and touch nothing: a point's ``faults`` string (which the
    schedule loader would read as a file path) or list gets a 400, and a
    flowsim point with huge counts is checked without building its
    fabric, which only the run does."""
    import repro.network

    def no_fabric(*args, **kwargs):
        raise RuntimeError("fabric built")

    monkeypatch.setattr(repro.network, "two_layer_fat_tree", no_fabric)
    monkeypatch.setattr(repro.network, "shifted_ring_flows", no_fabric)
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"events": [{"time": 1.0, "kind": "gpu"}]}))
    serving = {"target": "serving", "base": SERVING_BASE}
    huge = {"num_leaves": 1000, "hosts_per_leaf": 1000, "shifts": 100}
    not_a_schedule = "'faults' must be a FaultSchedule JSON object"
    bad = [
        ({**serving, "points": [{"faults": str(schedule)}]}, not_a_schedule),
        ({**serving, "points": [{"faults": str(tmp_path / "missing.json")}]}, not_a_schedule),
        ({**serving, "points": [{"faults": [1]}]}, not_a_schedule),
        ({**serving, "points": [{"recovery": [1]}]}, "'recovery' must be an object"),
        (
            {**serving, "points": [{"recovery": {"retry_budget": True}}]},
            "serving 'retry_budget' must be int, got True",
        ),
        (
            {**serving, "points": [{"recovery": {"retry_budget": 2.5}}]},
            "serving 'retry_budget' must be int, got 2.5",
        ),
        (
            {**serving, "points": [{"recovery": {"degraded_queue_limit": 1e308}}]},
            "serving 'degraded_queue_limit' must be int",
        ),
        ({"target": "training", "points": [{"faults": str(schedule)}]}, not_a_schedule),
        ({"target": "flowsim", "points": [{**huge, "sim_mode": "bogus"}]}, "'sim_mode'"),
        ({"target": "flowsim", "points": [{**huge, "shifts": 0}]}, "'shifts'"),
    ]

    async def body(server, client):
        for payload, message in bad:
            status, reply = await client.post_json("/jobs", payload)
            assert status == 400, payload
            assert message in reply["error"], reply
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []
        # A well-formed huge point is accepted; its fabric is built by the run.
        status, job = await client.post_json("/jobs", {"target": "flowsim", "points": [huge]})
        assert status == 202
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["errors"] == 1

    asyncio.run(_with_server(_config(tmp_path), body))


def test_oversized_jobs_get_400_before_any_point_is_built(tmp_path, monkeypatch):
    """A job's size is checked from its axis lengths, so a million-point
    grid is refused with its count and never materialized."""
    import repro.service.jobs

    def no_grid(**axes):
        raise RuntimeError("grid built")

    monkeypatch.setattr(repro.service.jobs, "grid", no_grid)
    axis = list(range(100))
    cube = {"request_rate": axis, "num_requests": axis, "seed": axis}
    just_over = {"request_rate": list(range(100)), "num_requests": list(range(100))}

    async def body(server, client):
        for payload, count in [
            ({"target": "serving", "grid": cube}, "1000000"),
            ({"target": "serving", "grid": just_over, "points": [{}]}, "10001"),
        ]:
            status, reply = await client.post_json("/jobs", payload)
            assert status == 400, payload
            assert f"at most 10000 points; this one has {count}" in reply["error"], reply
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []

    asyncio.run(_with_server(_config(tmp_path), body))
    monkeypatch.undo()
    full = {"target": "svc-sleepy", "grid": {"x": list(range(10_000))}}
    assert len(JobSpec.from_payload(full).points) == 10_000
    with pytest.raises(ValueError, match="this one has 10001"):
        JobSpec.from_payload({**full, "points": [{"x": -1}]})


def test_training_points_with_bad_numbers_get_400_at_submit(tmp_path):
    """The training builder checks its numbers, so a point that could
    only fail at run time is refused with the builder's message."""
    from repro.sweep.targets import dry_build

    positive = "must be a positive finite number"
    bad = [
        ({"work_s": "x"}, f"training 'work_s' {positive}, got 'x'"),
        ({"work_s": True}, f"training 'work_s' {positive}, got True"),
        ({"interval_s": -1}, f"training 'interval_s' {positive}, got -1"),
        ({"checkpoint_s": -0.5}, "training 'checkpoint_s' must be a non-negative finite number"),
        ({"restart_s": "later"}, "training 'restart_s' must be a non-negative finite number"),
        ({"mtbf_s": "soon"}, f"training 'mtbf_s' {positive}, got 'soon'"),
        ({"mtbf_s": 0}, f"training 'mtbf_s' {positive}, got 0"),
    ]
    # NaN is not canonical JSON, so a POST carrying it is refused before
    # any builder runs; the builder refuses it on its own too.
    with pytest.raises(ValueError, match=f"'work_s' {positive}, got nan"):
        dry_build("training", {"work_s": math.nan})

    async def body(server, client):
        for point, message in [*bad, ({"work_s": math.nan}, "JSON-serializable")]:
            status, reply = await client.post_json(
                "/jobs", {"target": "training", "points": [point]}
            )
            assert status == 400, point
            assert message in reply["error"], reply
        status, listing = await client.get_json("/jobs")
        assert listing["jobs"] == []
        point = {"work_s": 3600, "interval_s": 600.0, "checkpoint_s": 0, "mtbf_s": None}
        status, _ = await client.post_json("/jobs", {"target": "training", "points": [point]})
        assert status == 202

    asyncio.run(_with_server(_config(tmp_path), body))


def test_restart_lists_finished_jobs(tmp_path):
    """Terminal jobs survive a restart: listed, artifact-served, and
    their SSE stream replays to an immediate terminal event."""
    config = _config(tmp_path)
    spec = {"target": "serving", "grid": {"request_rate": [5]}, "base": SERVING_BASE}
    job_box = {}

    async def first(server, client):
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        job_box["id"] = job["id"]

    async def second(server, client):
        status, listing = await client.get_json("/jobs")
        assert [j["id"] for j in listing["jobs"]] == [job_box["id"]]
        assert listing["jobs"][0]["state"] == "done"
        status, _, report = await client.request(
            "GET", f"/jobs/{job_box['id']}/report"
        )
        assert status == 200 and json.loads(report)["target"] == "serving"
        events = await client.collect_events(f"/jobs/{job_box['id']}/events", timeout=5)
        assert events[-1][0] == "done"
        # New jobs on the restarted server get fresh ids.
        _, job2 = await client.post_json("/jobs", spec)
        assert job2["id"] != job_box["id"]
        await client.collect_events(f"/jobs/{job2['id']}/events", timeout=30)

    asyncio.run(_with_server(config, first))
    asyncio.run(_with_server(config, second))
