"""Supervised sweep execution and the deterministic self-chaos harness.

The headline invariant: a grid whose points SIGKILL their own worker,
hang past ``timeout_s``, raise, or run slow completes without wedging,
and its final report is byte-identical at ``workers=1`` and
``workers=4`` and — for every non-quarantined point — identical to the
same grid run chaos-free.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import (
    CHAOS_MODES,
    ChaosPolicy,
    assert_chaos_invariant,
    chaos_points,
    chaos_spec,
    reference_spec,
)
from repro.sweep import (
    PointQuarantined,
    SupervisorPolicy,
    SweepCache,
    SweepInterrupted,
    SweepSpec,
    current_attempt,
    register_target,
    retry_delay_s,
    run_sweep,
)

FAST_POLICY = SupervisorPolicy(
    timeout_s=2.0, max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05
)


@register_target("chaos-test-flaky")
def _flaky(config: dict, seed: int) -> dict:
    """Misbehaves per config on early attempts, then computes honestly."""
    if current_attempt() <= config.get("fail_attempts", 0):
        mode = config.get("mode", "raise")
        if mode == "raise":
            raise RuntimeError("injected")
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(600)
    return {"doubled": config["x"] * 2, "seed": seed}


def _points(*specs: tuple[str, int]) -> list[dict]:
    return [
        {"x": i, "mode": mode, "fail_attempts": fails}
        for i, (mode, fails) in enumerate(specs)
    ]


# ---------------------------------------------------------------------------
# SupervisorPolicy / retry scheduling
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisorPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        SupervisorPolicy(backoff_base_s=-1.0)


def test_retry_delay_deterministic_and_bounded():
    policy = SupervisorPolicy(backoff_base_s=0.1, backoff_cap_s=1.0)
    delays = [retry_delay_s(policy, 1234, attempt) for attempt in (2, 3, 4, 5, 6)]
    # Pure function of (policy, point seed, attempt).
    assert delays == [retry_delay_s(policy, 1234, a) for a in (2, 3, 4, 5, 6)]
    # Jitter keeps every delay within [base/2, cap].
    assert all(0.05 <= d <= 1.0 for d in delays)
    # A different point spreads differently (content-derived jitter).
    assert delays != [retry_delay_s(policy, 99, a) for a in (2, 3, 4, 5, 6)]


def test_current_attempt_defaults_to_one():
    assert current_attempt() == 1


# ---------------------------------------------------------------------------
# Supervised execution: recovery, quarantine, determinism
# ---------------------------------------------------------------------------


def test_supervisor_recovers_raise_kill_and_hang():
    spec = SweepSpec(
        target="chaos-test-flaky",
        points=_points(("raise", 1), ("kill", 1), ("hang", 1), ("raise", 0)),
        seed=5,
    )
    policy = SupervisorPolicy(
        timeout_s=0.5, max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05
    )
    result = run_sweep(spec, workers=4, strict=False, supervise=policy)
    assert result.errors == 0
    assert [p.result["doubled"] for p in result.points] == [0, 2, 4, 6]


def test_supervised_report_worker_count_independent():
    spec = SweepSpec(
        target="chaos-test-flaky",
        points=_points(("raise", 1), ("kill", 1), ("raise", 99), ("raise", 0)),
        seed=5,
    )
    serial = run_sweep(spec, workers=1, strict=False, supervise=FAST_POLICY)
    parallel = run_sweep(spec, workers=4, strict=False, supervise=FAST_POLICY)
    assert serial.to_report_json() == parallel.to_report_json()


def test_quarantine_record_structure_and_no_cache(tmp_path):
    spec = SweepSpec(
        target="chaos-test-flaky", points=_points(("raise", 99)), seed=5
    )
    cache = SweepCache(tmp_path / "cache")
    result = run_sweep(
        spec, workers=1, strict=False, supervise=FAST_POLICY, cache=cache
    )
    (point,) = result.points
    assert point.result is None
    assert point.error["type"] == "PointQuarantined"
    assert point.error["attempts"] == FAST_POLICY.max_attempts
    assert [f["type"] for f in point.error["failures"]] == ["RuntimeError"] * 3
    assert [f["attempt"] for f in point.error["failures"]] == [1, 2, 3]
    # Poison never lands in the cache: a re-run retries it.
    assert len(cache) == 0


def test_strict_supervised_raises_point_quarantined():
    spec = SweepSpec(
        target="chaos-test-flaky", points=_points(("kill", 99)), seed=5
    )
    with pytest.raises(PointQuarantined) as excinfo:
        run_sweep(spec, workers=1, strict=True, supervise=FAST_POLICY)
    assert excinfo.value.record["type"] == "PointQuarantined"
    assert {f["type"] for f in excinfo.value.record["failures"]} == {"WorkerDied"}


def test_timeout_failures_are_recorded_as_point_timeout():
    spec = SweepSpec(
        target="chaos-test-flaky", points=_points(("hang", 99)), seed=5
    )
    policy = SupervisorPolicy(
        timeout_s=0.2, max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.02
    )
    result = run_sweep(spec, workers=1, strict=False, supervise=policy)
    (point,) = result.points
    assert {f["type"] for f in point.error["failures"]} == {"PointTimeout"}


def test_supervisor_metrics_counters():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    spec = SweepSpec(
        target="chaos-test-flaky",
        points=_points(("raise", 1), ("kill", 99)),
        seed=5,
    )
    run_sweep(
        spec, workers=2, strict=False, supervise=FAST_POLICY, metrics=registry
    )
    snapshot = registry.snapshot()
    assert snapshot["sweep.retries"] >= 1
    assert snapshot["sweep.worker_deaths"] >= 1
    assert snapshot["sweep.quarantined"] == 1


def test_supervised_interrupt_leaves_no_orphans():
    spec = SweepSpec(
        target="chaos-test-flaky",
        points=_points(("hang", 99), ("hang", 99)),
        seed=5,
    )
    ticks = {"n": 0}

    def interrupt() -> bool:
        ticks["n"] += 1
        return ticks["n"] > 5

    with pytest.raises(SweepInterrupted):
        run_sweep(
            spec,
            workers=2,
            strict=False,
            supervise=SupervisorPolicy(timeout_s=60.0, max_attempts=1),
            interrupt=interrupt,
        )
    children = subprocess.run(
        ["ps", "--ppid", str(os.getpid()), "-o", "comm="],
        capture_output=True,
        text=True,
    ).stdout.split()
    assert children == ["ps"]  # only the ps probe itself


def test_supervised_cache_resume(tmp_path):
    """Interrupting a supervised sweep loses nothing already settled."""
    cache = SweepCache(tmp_path / "cache")
    spec = SweepSpec(
        target="chaos-test-flaky",
        points=_points(("raise", 0), ("raise", 0), ("raise", 0)),
        seed=5,
    )
    cold = run_sweep(spec, workers=1, strict=False, supervise=FAST_POLICY, cache=cache)
    assert cold.evaluated == 3 and len(cache) == 3
    warm = run_sweep(spec, workers=1, strict=False, supervise=FAST_POLICY, cache=cache)
    assert warm.evaluated == 0 and warm.cache_hits == 3
    assert cold.to_report_json() == warm.to_report_json()


# ---------------------------------------------------------------------------
# The chaos harness
# ---------------------------------------------------------------------------


@register_target("chaos-test-inner")
def _inner(config: dict, seed: int) -> dict:
    return {"y": config["y"] * 10, "seed": seed}


INNER_CONFIGS = [{"y": i} for i in range(8)]


def test_chaos_assignment_is_seeded_and_deterministic():
    policy = ChaosPolicy(rate=0.5)
    once = chaos_points("chaos-test-inner", INNER_CONFIGS, seed=7, policy=policy)
    again = chaos_points("chaos-test-inner", INNER_CONFIGS, seed=7, policy=policy)
    assert once == again
    other = chaos_points("chaos-test-inner", INNER_CONFIGS, seed=8, policy=policy)
    assert [p["chaos_mode"] for p in once] != [p["chaos_mode"] for p in other]
    assert all(p["chaos_mode"] in CHAOS_MODES for p in once)
    # rate=1 sabotages everything; rate=0 nothing.
    all_on = chaos_points(
        "chaos-test-inner", INNER_CONFIGS, seed=7, policy=ChaosPolicy(rate=1.0)
    )
    assert all(p["chaos_mode"] != "none" for p in all_on)
    all_off = chaos_points(
        "chaos-test-inner", INNER_CONFIGS, seed=7, policy=ChaosPolicy(rate=0.0)
    )
    assert all(p["chaos_mode"] == "none" for p in all_off)


def test_chaos_policy_validation():
    with pytest.raises(ValueError):
        ChaosPolicy(modes=("none",))
    with pytest.raises(ValueError):
        ChaosPolicy(rate=1.5)
    with pytest.raises(ValueError):
        ChaosPolicy(attempts=0)


def test_reference_spec_unwraps_the_inner_grid():
    spec = chaos_spec(
        "chaos-test-inner", INNER_CONFIGS, seed=7, policy=ChaosPolicy()
    )
    ref = reference_spec(spec)
    assert ref.target == "chaos-test-inner"
    assert list(ref.points) == INNER_CONFIGS
    assert ref.seed == spec.seed
    with pytest.raises(ValueError):
        reference_spec(ref)  # not a chaos spec


def test_chaos_invariant_kill_hang_raise_slow():
    """The acceptance-criteria invariant, on a fast synthetic target."""
    spec = chaos_spec(
        "chaos-test-inner",
        INNER_CONFIGS,
        seed=21,
        policy=ChaosPolicy(rate=0.8, slow_s=0.05, attempts=1),
    )
    modes = {p["chaos_mode"] for p in spec.points}
    assert len(modes) >= 3  # the seed exercises a real mix
    policy = SupervisorPolicy(
        timeout_s=1.0, max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05
    )
    parallel = run_sweep(spec, workers=4, strict=False, supervise=policy)
    serial = run_sweep(spec, workers=1, strict=False, supervise=policy)
    assert parallel.to_report_json() == serial.to_report_json()
    assert parallel.errors == 0  # attempts=1 < max_attempts: all converged
    reference = run_sweep(reference_spec(spec), workers=2)
    assert_chaos_invariant(parallel, reference)
    assert_chaos_invariant(serial, reference)


def test_chaos_poison_points_quarantine_cleanly():
    """Sabotage beyond max_attempts: hostile points quarantine, honest
    points still match the reference exactly."""
    spec = chaos_spec(
        "chaos-test-inner",
        INNER_CONFIGS,
        seed=21,
        policy=ChaosPolicy(rate=0.5, attempts=99, modes=("kill", "raise")),
    )
    policy = SupervisorPolicy(
        timeout_s=1.0, max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.02
    )
    result = run_sweep(spec, workers=4, strict=False, supervise=policy)
    sabotaged = sum(1 for p in spec.points if p["chaos_mode"] != "none")
    assert result.errors == sabotaged > 0
    assert all(
        p.error["type"] == "PointQuarantined"
        for p in result.points
        if p.error is not None
    )
    reference = run_sweep(reference_spec(spec), workers=2)
    assert_chaos_invariant(result, reference)  # skips quarantined points


def test_chaos_invariant_detects_divergence():
    spec = chaos_spec(
        "chaos-test-inner", INNER_CONFIGS[:2], seed=3, policy=ChaosPolicy(rate=0.0)
    )
    result = run_sweep(
        spec, workers=1, strict=False, supervise=SupervisorPolicy(timeout_s=5.0)
    )
    reference = run_sweep(reference_spec(spec), workers=1)
    tampered = reference.points[0]
    object.__setattr__(tampered, "result", {"y": -1, "seed": tampered.seed})
    with pytest.raises(AssertionError):
        assert_chaos_invariant(result, reference)


def test_chaos_target_resolves_lazily():
    """Naming 'chaos' without importing repro.chaos works (CLI/service)."""
    from repro.sweep.targets import get_target

    assert callable(get_target("chaos"))


def test_cli_sweep_survives_a_self_killing_point_at_one_worker():
    # Unsupervised, at --workers 1: the kill point costs only itself.  In
    # a subprocess, so a point run on the sweep's own interpreter fails
    # this test (exit -9) rather than killing the test run.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--target", "chaos",
         "--grid", "chaos_mode=kill,none", "--set", "chaos_attempts=1",
         "--set", "chaos_hang_s=0", "--set", "chaos_slow_s=0",
         "--set", "inner_target=training", "--set", 'inner={"work_s":3600.0}',
         "--set", "inner_seed=1", "--no-cache", "--keep-going", "--workers", "1", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, (run.returncode, run.stderr)
    killed, clean = json.loads(run.stdout)["points"]
    assert killed["result"] is None and killed["error"]["type"] == "PointQuarantined"
    assert [f["type"] for f in killed["error"]["failures"]] == ["WorkerDied"]
    assert clean["result"] is not None and "error" not in clean
