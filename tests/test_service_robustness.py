"""Robustness machinery of the experiment service.

Covers graceful drain (503 + Retry-After, journaled ``drain`` record,
byte-identical resume), per-job deadlines, the hung-job watchdog, the
per-target circuit breaker, bounded SSE replay history, the client's
bounded 429 retry, journal crash-truncation at every byte offset,
evaluation off the server's process, and supervised (chaos-hardened)
job execution end to end.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosPolicy, chaos_spec, reference_spec
from repro.service import (
    CircuitBreaker,
    CircuitOpen,
    EventBroker,
    ExperimentServer,
    JobManager,
    JobSpec,
    ServiceClient,
    ServiceConfig,
    StateStore,
)
from repro.sweep import SupervisorPolicy, SweepSpec, register_target, run_sweep


@register_target("robust-sleepy")
def _sleepy(config: dict, seed: int) -> dict:
    time.sleep(config.get("sleep_s", 0.1))
    return {"x": config.get("x", 0), "seed": seed}


@register_target("robust-doomed")
def _doomed(config: dict, seed: int) -> dict:
    raise RuntimeError("this target never works")


@register_target("robust-pid")
def _pid(config: dict, seed: int) -> dict:
    return {"x": config["x"], "pid": os.getpid()}


@register_target("robust-inner")
def _robust_inner(config: dict, seed: int) -> dict:
    return {"y": config["y"] * 3, "seed": seed}


def _config(tmp_path: Path, **overrides) -> ServiceConfig:
    defaults = dict(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        heartbeat_s=0.2,
        metrics_interval_s=0.05,
        watchdog_interval_s=0.05,
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


async def _wait_for(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(interval)


def _journal_kinds(state_dir: Path, job_id: str) -> list[str]:
    path = state_dir / "jobs" / f"{job_id}.jsonl"
    return [json.loads(line)["kind"] for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# JobSpec robustness knobs
# ---------------------------------------------------------------------------


def test_jobspec_accepts_and_journals_robustness_knobs():
    payload = {
        "target": "robust-sleepy",
        "points": [{"x": 1}],
        "deadline_s": 30.0,
        "timeout_s": 5.0,
        "max_attempts": 3,
    }
    spec = JobSpec.from_payload(payload)
    assert (spec.deadline_s, spec.timeout_s, spec.max_attempts) == (30.0, 5.0, 3)
    assert JobSpec.from_payload(spec.to_payload()) == spec
    policy = spec.supervisor_policy()
    assert policy == SupervisorPolicy(timeout_s=5.0, max_attempts=3)
    # Defaults keep execution unsupervised.
    plain = JobSpec.from_payload({"target": "robust-sleepy", "points": [{"x": 1}]})
    assert plain.supervisor_policy() is None


@pytest.mark.parametrize(
    "bad",
    [
        {"deadline_s": 0},
        {"deadline_s": "soon"},
        {"timeout_s": -1},
        {"timeout_s": True},
        {"max_attempts": 0},
        {"max_attempts": 1.5},
    ],
)
def test_jobspec_rejects_bad_robustness_values(bad):
    payload = {"target": "robust-sleepy", "points": [{"x": 1}], **bad}
    with pytest.raises(ValueError):
        JobSpec.from_payload(payload)


def test_jobspec_resolves_lazily_registered_chaos_target():
    spec = JobSpec.from_payload(
        {
            "target": "chaos",
            "points": [
                {
                    "chaos_mode": "none",
                    "chaos_attempts": 1,
                    "chaos_hang_s": 1.0,
                    "chaos_slow_s": 0.0,
                    "inner_target": "robust-sleepy",
                    "inner": {"x": 1, "sleep_s": 0.0},
                    "inner_seed": 7,
                }
            ],
        }
    )
    assert spec.target == "chaos"


#: JSON leaves as ``json.loads`` can produce them (NaN and infinities too).
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 2**64) | st.floats()
    | st.text(max_size=6) | st.sampled_from(("colocated", "event", "kill", "serving", "none"))
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
#: Mostly plausible values, so many points get past type checks.
_VALUES = st.integers(0, 64) | st.floats(0.0, 100.0) | _JSON
#: Config keys the built-in targets read, so points reach their builders.
_CONFIG_KEYS = (
    "request_rate", "num_requests", "prompt_mean", "output_mean", "mode", "mtp",
    "window_s", "slo", "faults", "recovery", "num_leaves", "hosts_per_leaf",
    "num_spines", "shifts", "size_bytes", "sim_mode", "work_s", "interval_s",
    "checkpoint_s", "mtbf_s", "chaos_mode", "chaos_attempts", "inner_target",
    "inner", "inner_seed", "objective", "space", "target", "x",
)
_CONFIGS = st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=4), _VALUES, max_size=4)
#: Well-formed payloads whose values may still be wrong; a bare
#: ``_JSON`` document covers the malformed rest.
_JOB_PAYLOADS = st.fixed_dictionaries(
    {"target": st.sampled_from(("serving", "flowsim", "training", "chaos", "optimize", "nope"))},
    optional={
        "grid": st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.lists(_VALUES, max_size=3) | _VALUES, max_size=2),
        "points": st.lists(_CONFIGS, min_size=1, max_size=3),
        "base": _CONFIGS,
        "seed": _VALUES,
        "workers": _VALUES,
        "name": st.text(max_size=4) | _JSON,
        "faults": st.fixed_dictionaries({}, optional={"events": st.lists(_CONFIGS, max_size=2), "seed": _VALUES}),
        "recovery": _CONFIGS,
        "window_s": _VALUES,
        "slo": st.lists(_CONFIGS, min_size=1, max_size=2),
        "deadline_s": _VALUES,
        "timeout_s": _VALUES,
        "max_attempts": _VALUES,
    },
)


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(_JOB_PAYLOADS | _JSON)
def test_jobspec_fuzz_ends_in_a_spec_or_a_value_error(payload):
    try:
        spec = JobSpec.from_payload(payload)
    except ValueError:
        return
    assert isinstance(spec, JobSpec) and spec.points


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


def test_breaker_trips_cools_down_and_half_open_probes():
    now = {"t": 0.0}
    breaker = CircuitBreaker(threshold=3, cooldown_s=10.0, clock=lambda: now["t"])
    for _ in range(2):
        breaker.record_failure("serving")
    breaker.admit("serving")  # two failures: still closed
    breaker.record_failure("serving")
    assert breaker.state_of("serving") == "open"
    with pytest.raises(CircuitOpen) as excinfo:
        breaker.admit("serving")
    assert 0 < excinfo.value.retry_after <= 10.0
    # Cooldown elapses: exactly one probe is admitted.
    now["t"] = 11.0
    breaker.admit("serving")
    assert breaker.state_of("serving") == "half_open"
    with pytest.raises(CircuitOpen):
        breaker.admit("serving")  # probe in flight
    # Probe failure re-opens for a fresh cooldown...
    breaker.record_failure("serving")
    assert breaker.state_of("serving") == "open"
    with pytest.raises(CircuitOpen):
        breaker.admit("serving")
    # ...and a successful probe closes it fully.
    now["t"] = 22.0
    breaker.admit("serving")
    breaker.record_success("serving")
    assert breaker.state_of("serving") == "closed"
    breaker.admit("serving")
    # Other targets were never affected.
    breaker.admit("flowsim")
    assert breaker.describe() == {}


def test_breaker_rejects_doomed_target_after_consecutive_failures(tmp_path):
    config = _config(tmp_path, breaker_threshold=2, breaker_cooldown_s=60.0)
    spec = {"target": "robust-doomed", "points": [{"x": 1}], "seed": 1}

    async def body(server, client):
        await client.wait_healthy()
        for _ in range(2):
            status, job = await client.post_json("/jobs", spec)
            assert status == 202
            events = await client.collect_events(
                f"/jobs/{job['id']}/events", timeout=30
            )
            # Every point errored -> the job counts as a breaker failure.
            assert events[-1][0] == "done" and events[-1][1]["errors"] == 1
        status, headers, body_bytes = await client.request("POST", "/jobs", spec)
        assert status == 503
        assert "retry-after" in headers
        assert b"circuit breaker open" in body_bytes
        _, health = await client.get_json("/healthz")
        assert health["breakers"]["robust-doomed"]["state"] == "open"
        # A healthy target is unaffected by the open breaker.
        ok = {"target": "robust-sleepy", "points": [{"x": 1, "sleep_s": 0.0}]}
        status, job = await client.post_json("/jobs", ok)
        assert status == 202
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)

    asyncio.run(_with_server(config, body))


# ---------------------------------------------------------------------------
# Deadlines and the hung-job watchdog
# ---------------------------------------------------------------------------


def test_job_deadline_interrupts_at_point_boundary(tmp_path):
    config = _config(tmp_path)
    spec = {
        "target": "robust-sleepy",
        "points": [{"x": i, "sleep_s": 0.15} for i in range(20)],
        "deadline_s": 0.4,
        "seed": 1,
    }

    async def body(server, client):
        await client.wait_healthy()
        status, job = await client.post_json("/jobs", spec)
        assert status == 202
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert events[-1][0] == "failed"
        assert any(event == "deadline" for event, _ in events)
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["error"].startswith("JobDeadlineExceeded")
        assert 0 < detail["done"] < 20  # stopped at a boundary, not the end
        kinds = _journal_kinds(config.state_dir, job["id"])
        assert "deadline" in kinds
        snapshot = server.metrics.snapshot()
        assert snapshot["service.jobs.deadline_exceeded"] == 1

    asyncio.run(_with_server(config, body))


def test_job_deadline_kills_a_running_point(tmp_path):
    """A job's points run in a forked worker, so a blown deadline kills
    the point that is running instead of waiting for it to end."""
    config = _config(tmp_path)
    spec = {
        "target": "robust-sleepy",
        "points": [{"x": 0, "sleep_s": 5.0}],
        "deadline_s": 0.3,
        "seed": 1,
    }

    async def body(server, client):
        await client.wait_healthy()
        started = time.monotonic()
        status, job = await client.post_json("/jobs", spec)
        assert status == 202
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert time.monotonic() - started < 2.0
        assert events[-1][0] == "failed"
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["error"].startswith("JobDeadlineExceeded")
        assert detail["done"] == 0

    asyncio.run(_with_server(config, body))


def test_hung_watchdog_flags_and_clears(tmp_path):
    config = _config(tmp_path, hung_after_s=0.2)
    spec = {
        "target": "robust-sleepy",
        "points": [{"x": 0, "sleep_s": 0.6}, {"x": 1, "sleep_s": 0.0}],
        "seed": 1,
    }

    async def body(server, client):
        await client.wait_healthy()
        status, job = await client.post_json("/jobs", spec)
        assert status == 202
        # The long first point stalls progress past hung_after_s.
        await _wait_for(lambda: server.manager.jobs[job["id"]].hung, timeout=10)
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail.get("hung") is True
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert any(event == "hung" for event, _ in events)
        assert events[-1][0] == "done"  # it was slow, not dead
        # Progress cleared the flag before the job finished.
        assert "hung" not in server.manager.jobs[job["id"]].describe()
        assert "hung" in _journal_kinds(config.state_dir, job["id"])
        assert server.metrics.snapshot()["service.jobs.hung_detected"] >= 1

    asyncio.run(_with_server(config, body))


def test_hung_gauge_counts_live_jobs_only(tmp_path):
    """A hung job that is then cancelled leaves the ``service.jobs.hung``
    gauge on the next watchdog tick; its summary keeps the flag."""
    config = _config(tmp_path, hung_after_s=0.2)
    spec = {"target": "robust-sleepy", "points": [{"x": 0, "sleep_s": 30.0}], "seed": 1}

    async def body(server, client):
        def hung_gauge() -> float:
            return server.metrics.snapshot().get("service.jobs.hung", 0.0)

        await client.wait_healthy()
        _, job = await client.post_json("/jobs", spec)
        await _wait_for(lambda: hung_gauge() == 1, timeout=10)
        status, _ = await client.delete_json(f"/jobs/{job['id']}")
        assert status == 200
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert events[-1][0] == "cancelled"
        await _wait_for(lambda: hung_gauge() == 0, timeout=2)
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["state"] == "cancelled" and detail["hung"] is True

    asyncio.run(_with_server(config, body))


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


def test_drain_interrupts_journals_and_rejects(tmp_path):
    config = _config(tmp_path, job_workers=1, drain_grace_s=10.0)
    running = {
        "target": "robust-sleepy",
        "points": [{"x": i, "sleep_s": 0.1} for i in range(30)],
        "seed": 1,
    }
    queued = {"target": "robust-sleepy", "points": [{"x": 99}], "seed": 2}

    async def body(server, client):
        await client.wait_healthy()
        _, first = await client.post_json("/jobs", running)
        _, second = await client.post_json("/jobs", queued)
        await _wait_for(
            lambda: server.manager.jobs[first["id"]].done_points >= 2, timeout=15
        )
        settled = await server.drain()
        assert settled is True
        job = server.manager.jobs[first["id"]]
        assert job.state == "interrupted" and 0 < job.done_points < 30
        assert "drain" in _journal_kinds(config.state_dir, first["id"])
        assert "drain" in _journal_kinds(config.state_dir, second["id"])
        # Draining servers advertise it and refuse new work with 503.
        _, health = await client.get_json("/healthz")
        assert health["draining"] is True
        status, headers, _ = await client.request("POST", "/jobs", queued)
        assert status == 503 and "retry-after" in headers
        assert server.metrics.snapshot()["service.jobs.drained"] == 1

    asyncio.run(_with_server(config, body))


def test_drained_jobs_resume_byte_identically(tmp_path):
    """Drain mid-job, restart over the same state/cache dirs: the job
    completes recomputing only unevaluated points, and the report is
    byte-identical to an undrained run."""
    points = [{"x": i, "sleep_s": 0.05} for i in range(8)]
    spec = {"target": "robust-sleepy", "points": points, "seed": 4}
    config = _config(tmp_path, job_workers=1)

    async def drain_mid_job(server, client):
        await client.wait_healthy()
        _, job = await client.post_json("/jobs", spec)
        await _wait_for(
            lambda: server.manager.jobs[job["id"]].done_points >= 2, timeout=15
        )
        await server.drain()
        drained = server.manager.jobs[job["id"]]
        assert drained.state == "interrupted"
        return job["id"], drained.done_points

    async def run_first():
        server = ExperimentServer(config)
        await server.start()
        try:
            return await drain_mid_job(server, ServiceClient(server.host, server.port))
        finally:
            await server.stop()

    job_id, done_before = asyncio.run(run_first())
    assert 0 < done_before < len(points)

    async def resume(server, client):
        await client.wait_healthy()
        job = server.manager.jobs[job_id]
        assert job.resumed is True
        await _wait_for(lambda: job.terminal, timeout=30)
        assert job.state == "done"
        # Every pre-drain point came back as a cache hit.
        assert job.cache_hits == done_before
        assert job.evaluated == len(points) - done_before

    asyncio.run(_with_server(_config(tmp_path, job_workers=1), resume))
    artifact = (config.state_dir / "artifacts" / f"{job_id}.report.json").read_text()
    direct = run_sweep(SweepSpec(target="robust-sleepy", points=points, seed=4))
    assert artifact == direct.to_report_json()


# ---------------------------------------------------------------------------
# Client 429 retry budget
# ---------------------------------------------------------------------------


def test_client_post_retries_429_within_budget():
    """A stub server 429s twice with Retry-After: 0.05, then accepts."""
    hits = []

    async def scenario():
        async def handle(reader, writer):
            await reader.readuntil(b"\r\n\r\n")  # headers; body is ignored
            hits.append(1)
            if len(hits) <= 2:
                body = b'{"error": "busy"}'
                head = (
                    b"HTTP/1.1 429 Too Many Requests\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Retry-After: 0.05\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
                )
            else:
                body = b'{"id": "j0001"}'
                head = (
                    b"HTTP/1.1 202 Accepted\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
                )
            writer.write(head + body)
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            client = ServiceClient("127.0.0.1", port)
            # Budget covers both hinted waits: the POST succeeds.
            status, payload = await client.post_json(
                "/jobs", {"x": 1}, retry_budget_s=1.0
            )
            assert (status, payload["id"], len(hits)) == (202, "j0001", 3)
            # Zero budget (the default): the 429 surfaces immediately.
            hits.clear()
            status, payload = await client.post_json("/jobs", {"x": 1})
            assert status == 429 and len(hits) == 1
            # A budget smaller than the hint refuses to wait at all.
            hits.clear()
            status, _ = await client.post_json(
                "/jobs", {"x": 1}, retry_budget_s=0.01
            )
            assert status == 429 and len(hits) == 1

    asyncio.run(asyncio.wait_for(scenario(), timeout=15))


# ---------------------------------------------------------------------------
# Journal crash-truncation, atomic writes, bounded replay
# ---------------------------------------------------------------------------


def test_journal_truncated_at_every_byte_offset_never_raises(tmp_path):
    """Kill an append at any byte: load() keeps every fully-written
    record and loses at most the one being written."""
    store = StateStore(tmp_path / "state")
    records = [
        {"kind": "submit", "spec": {"target": "t", "points": [{"x": 1}]}},
        {"kind": "status", "state": "running"},
        {"kind": "point", "index": 0, "key": "ab" * 8, "cached": False},
        {"kind": "drain", "done": 1, "total": 4},
        {"kind": "status", "state": "done"},
    ]
    for record in records:
        store.append("j0001", record)
    blob = store.journal_path("j0001").read_bytes()

    # Line-end offsets tell us how many records each prefix preserves.
    # A record survives when its newline made it to disk — or when the
    # cut landed exactly on the newline, leaving complete JSON behind
    # (a strict prefix of a JSON object never parses, so nothing
    # partially-written ever sneaks through).
    ends = [i + 1 for i, b in enumerate(blob) if b == 0x0A]
    for offset in range(len(blob) + 1):
        crash_dir = tmp_path / "crash"
        crashed = StateStore(crash_dir)
        crashed.journal_path("j0001").write_bytes(blob[:offset])
        loaded = crashed.load()  # must never raise
        expected = sum(1 for end in ends if end <= offset)
        if offset + 1 in ends:
            expected += 1
        got = len(loaded.get("j0001", []))
        assert got == expected, f"offset {offset}: {got} != {expected}"
        assert loaded.get("j0001", records[:0]) == records[:expected]
        crashed.journal_path("j0001").unlink()


def test_journal_lines_not_utf8_or_nested_too_deep_are_skipped(tmp_path):
    store = StateStore(tmp_path / "state")
    store.append("j0001", {"kind": "submit", "spec": {}})
    with open(store.journal_path("j0001"), "ab") as handle:
        handle.write(b'{"kind": "\xff\xfe"}\n')  # not UTF-8
        handle.write(b"[" * 100_000 + b"\n")
    store.append("j0001", {"kind": "status", "state": "done"})
    assert store.load() == {
        "j0001": [{"kind": "submit", "spec": {}}, {"kind": "status", "state": "done"}]
    }


def _manager(state_dir: Path) -> JobManager:
    """A job manager over ``state_dir`` that never forks: the tests call
    ``_restore`` directly instead of ``start``."""
    return JobManager(state=StateStore(state_dir), cache=None)


@pytest.mark.parametrize(
    "corrupt",
    [
        {"points": [1, 2]},
        {"max_attempts": "x"},
        {"target": "nope"},
    ],
    ids=["int-points", "str-max-attempts", "unknown-target"],
)
def test_restore_skips_an_invalid_journaled_spec(tmp_path, corrupt):
    """A journaled spec gets the submission check: an invalid one is
    skipped at restart, not resumed to fail after a fork."""
    store = StateStore(tmp_path / "state")
    good = JobSpec.from_payload({"target": "robust-sleepy", "points": [{"x": 1}]})
    store.append("j0001", {"kind": "submit", "spec": good.to_payload()})
    store.append("j0002", {"kind": "submit", "spec": {**good.to_payload(), **corrupt}})
    manager = _manager(tmp_path / "state")
    manager._restore()
    assert list(manager.jobs) == ["j0001"]
    assert manager.jobs["j0001"].spec == good
    assert manager.jobs["j0001"].state == "queued"


def test_skipped_journal_still_claims_its_id(tmp_path):
    """A new submission never reuses the id of a skipped journal, so a
    second restart brings the new job back instead of the stale spec."""
    store = StateStore(tmp_path / "state")
    good = JobSpec.from_payload({"target": "robust-sleepy", "points": [{"x": 1}]})
    store.append("j0001", {"kind": "submit", "spec": good.to_payload()})
    store.append("j0002", {"kind": "submit", "spec": {**good.to_payload(), "target": "nope"}})
    manager = _manager(tmp_path / "state")
    manager._restore()
    assert manager.submit(good).id == "j0003"
    restarted = _manager(tmp_path / "state")
    restarted._restore()
    assert list(restarted.jobs) == ["j0001", "j0003"]
    assert restarted.jobs["j0003"].spec == good
    assert restarted.jobs["j0003"].state == "queued"


_SPEC_VALUES = {
    "target": st.sampled_from(["robust-sleepy", "nope", 3, None]),
    "points": st.sampled_from([[{"x": 1}], [{"x": 1}, {"x": 2}], [1, 2], [], "x", None]),
    "base": st.sampled_from([{}, {"sleep_s": 0.0}, [], "x"]),
    "seed": st.sampled_from([0, 7, -1, "x", 1.5, True]),
    "workers": st.sampled_from([1, 2, 99, 0, "x"]),
    "max_attempts": st.sampled_from([1, 3, 0, "x", None]),
    "deadline_s": st.sampled_from([None, 5.0, 0, float("nan"), "x"]),
}

_journal_record = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("submit")},
        optional={"spec": st.fixed_dictionaries({}, optional=_SPEC_VALUES)},
    ),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["status", "summary", "resume", "point"])},
        optional={
            "state": st.sampled_from(["running", "done", "failed", "cancelled", ["x"]]),
            "done": st.integers(0, 5),
            "error": st.sampled_from([None, "boom"]),
        },
    ),
).map(lambda record: json.dumps(record).encode())

_journal_line = st.one_of(
    _journal_record,
    st.binary(max_size=60).map(lambda b: b.replace(b"\n", b"")),
    st.integers(1, 50_000).map(lambda n: b"[" * n),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(_journal_line, max_size=6))
def test_fuzzed_journal_loads_and_restores_or_skips(tmp_path, lines):
    """Any journal bytes: ``load()`` never raises, and ``_restore()``
    restores a job only with a spec that passes the submission check."""
    state_dir = tmp_path / "state"
    store = StateStore(state_dir)
    store.journal_path("j0001").write_bytes(b"\n".join(lines))
    journals = store.load()
    manager = _manager(state_dir)
    manager._restore()
    for job_id, records in journals.items():
        submit = next((r for r in records if r.get("kind") == "submit"), None)
        try:
            valid = submit is not None and bool(JobSpec.from_payload(submit.get("spec")))
        except ValueError:
            valid = False
        assert (job_id in manager.jobs) == valid
    assert set(manager.jobs) <= set(journals)
    for job in manager.live.values():  # a finished job keeps no spec
        assert JobSpec.from_payload(job.spec.to_payload()) == job.spec
    store.journal_path("j0001").unlink()


def test_server_info_survives_rewrite(tmp_path):
    store = StateStore(tmp_path / "state")
    path = store.write_server_info("127.0.0.1", 1234)
    first = json.loads(path.read_text())
    assert (first["host"], first["port"]) == ("127.0.0.1", 1234)
    store.write_server_info("127.0.0.1", 5678)
    assert json.loads(path.read_text())["port"] == 5678


def test_event_broker_bounded_replay_with_truncated_marker():
    broker = EventBroker(buffer=8, history_limit=5)
    for i in range(8):
        broker.publish("progress", {"index": i})
    replay, queue = broker.subscribe()
    assert replay[0] == ("truncated", {"trimmed": 3, "kept": 5})
    assert [data["index"] for _, data in replay[1:]] == [3, 4, 5, 6, 7]
    broker.unsubscribe(queue)
    # Under the cap there is no marker.
    small = EventBroker(buffer=8, history_limit=5)
    small.publish("progress", {"index": 0})
    replay, queue = small.subscribe()
    assert replay == [("progress", {"index": 0})]


# ---------------------------------------------------------------------------
# Evaluation off the server's process
# ---------------------------------------------------------------------------


def test_single_worker_job_evaluates_outside_the_server(tmp_path):
    """Even a ``workers: 1`` job with no policy evaluates in a forked
    worker, and its report matches an in-process sweep byte for byte."""
    points = [{"x": i} for i in range(3)]
    spec = {"target": "robust-pid", "points": points, "workers": 1, "seed": 5}
    reports = []

    async def body(server, client):
        await client.wait_healthy()
        status, job = await client.post_json("/jobs", spec)
        assert status == 202
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert events[-1][0] == "done"
        _, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        reports.append(json.loads(report))

    asyncio.run(_with_server(_config(tmp_path), body))
    (report,) = reports
    pids = {point["result"]["pid"] for point in report["points"]}
    assert len(pids) == 1 and os.getpid() not in pids
    worker = pids.pop()
    inline = run_sweep(SweepSpec("robust-pid", points=points, seed=5)).report_payload()
    for point in inline["points"]:
        point["result"]["pid"] = worker
    assert report == inline


# ---------------------------------------------------------------------------
# Supervised (chaos-hardened) jobs end to end
# ---------------------------------------------------------------------------


def test_supervised_chaos_job_through_the_service(tmp_path):
    """A chaos grid submitted as a service job — points kill, hang,
    raise, and dawdle — still ends 'done' with a report whose results
    match a chaos-free reference run exactly."""
    inner = [{"y": i} for i in range(6)]
    spec = chaos_spec(
        "robust-inner",
        inner,
        seed=33,
        policy=ChaosPolicy(rate=0.8, slow_s=0.05, attempts=1),
    )
    payload = {
        "target": "chaos",
        "points": [dict(p) for p in spec.points],
        "seed": 33,
        "timeout_s": 1.0,
        "max_attempts": 3,
        "workers": 4,
    }
    config = _config(tmp_path)

    async def body(server, client):
        await client.wait_healthy()
        status, job = await client.post_json("/jobs", payload)
        assert status == 202
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=60)
        assert events[-1][0] == "done" and events[-1][1]["errors"] == 0
        _, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        served = json.loads(report)
        reference = run_sweep(reference_spec(spec), workers=2)
        for point, ref in zip(served["points"], reference.points):
            assert point["result"] == ref.result

    asyncio.run(_with_server(config, body))
