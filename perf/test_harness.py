"""Tests of the benchmark harness itself.

Run from the repository root with ``python -m pytest perf -q``.  Every
workload runs at ``--scale smoke`` through the same ``perf/run.py`` the
benchmark uses, untraced and traced.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perf import hostspeed  # noqa: E402
from perf.layers import Hook, Profiler, _resolve, calibrate  # noqa: E402
from perf.workloads import WORKLOADS, Session  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    """``(workload, trace) -> (completed process, record)`` for every workload."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            record_path = ROOT / "perf" / "out" / "runs" / f"{workload}-smoke-seed3-trace{trace}.json"
            record = json.loads(record_path.read_text()) if proc.returncode in (0, 1) else None
            out[workload, trace] = (proc, record)
    return out


def test_metric_names_follow_the_rule():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert [name for name in names if not NAME.fullmatch(name)] == []


def test_benchmark_workloads_are_the_harness_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_passes(smoke_runs, workload, trace):
    proc, record = smoke_runs[workload, trace]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert all(check["ok"] for check in record["result"]["checks"])
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        assert last["metrics"][spec["name"]]["unit"] == spec["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_benchmark_lists_exactly_the_metrics_the_harness_emits(smoke_runs):
    end_to_end = {name for (_, trace), (_, record) in smoke_runs.items() if not trace
                  for name in ["setup_s", *record["result"]["end_to_end"]]}
    per_layer = {name for (_, trace), (_, record) in smoke_runs.items() if trace
                 for name in record["result"]["per_layer"]}
    assert end_to_end == {m["name"] for m in BENCH["end_to_end"]}
    assert per_layer == {m["name"] for m in BENCH["per_layer"]}


def test_traced_runs_account_for_their_wall_time(smoke_runs):
    for (workload, trace), (_, record) in smoke_runs.items():
        coverage = record["result"].get("trace", {}).get("coverage") if trace else None
        if coverage is not None:
            assert abs(coverage - 1) <= 0.05, (workload, coverage)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_rep_restores_every_patched_attribute(workload, tmp_path):
    from repro.obs import Tracer

    wl = WORKLOADS[workload](3, tmp_path, "smoke")
    try:
        targets = [_resolve(hook.target) for hook in wl.hooks]
        originals = [vars(owner)[attr] for owner, attr in targets]
        session = Session(Profiler(), Tracer(), time.perf_counter())
        with session.profiler.installed(wl.hooks):
            assert all(vars(owner)[attr] is not original
                       for (owner, attr), original in zip(targets, originals))
            wl.rep(session)
        assert all(vars(owner)[attr] is original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        wl.close()


def test_install_restores_on_error():
    from repro.serving.calqueue import CalendarQueue

    original = vars(CalendarQueue)["push"]
    hooks = (Hook("q", "repro.serving.calqueue:CalendarQueue.push"),
             Hook("bad", "repro.serving.calqueue:CalendarQueue.width"))
    with pytest.raises(TypeError):
        with Profiler().installed(hooks):
            pass
    assert vars(CalendarQueue)["push"] is original


def test_self_times_partition_the_root():
    prof = Profiler()

    def leaf():
        time.sleep(0.002)

    wrapped_leaf = prof.wrap("leaf", leaf)

    def root():
        for _ in range(3):
            wrapped_leaf()

    prof.wrap("root", root)()
    layers = prof.layers
    assert layers["leaf"].calls == 3 and layers["root"].child_calls == 3
    assert layers["root"].self_ns + layers["leaf"].self_ns == layers["root"].total_ns
    assert calibrate(calls=2_000, rounds=1)["per_call_ns"] > 0


def test_host_speed_reference_restores_affinity_and_scales():
    allowed = os.sched_getaffinity(0)
    for processes in (1, 2):
        assert hostspeed.reference(processes) > 0
        assert os.sched_getaffinity(0) == allowed
    # At full speed a time is unchanged; at half speed it halves.
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(1.5, ref, ref) == pytest.approx(1.5)
    assert hostspeed.scale(1.5, 2 * ref, 2 * ref) == pytest.approx(0.75)


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("serve-stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
