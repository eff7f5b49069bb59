"""CLI: ``repro trace`` and ``serve-sim --json``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def test_trace_serving_writes_valid_deterministic_chrome_trace(tmp_path, capsys):
    paths = [tmp_path / "a.trace.json", tmp_path / "b.trace.json"]
    for path in paths:
        assert main(["trace", "--scenario", "serving", "--smoke", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    events = json.loads(paths[0].read_text())
    assert isinstance(events, list) and events
    for event in events:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
    assert any(e["ph"] == "X" for e in events)
    out = capsys.readouterr().out
    assert "span" in out and "metrics" in out
    assert "chrome://tracing" in out


@pytest.mark.parametrize("scenario", ["network", "training"])
def test_trace_other_scenarios_smoke(scenario, tmp_path, capsys):
    path = tmp_path / f"{scenario}.trace.json"
    assert main(["trace", "--scenario", scenario, "--smoke", "--out", str(path)]) == 0
    events = json.loads(path.read_text())
    assert any(e["ph"] == "X" for e in events)
    assert scenario in capsys.readouterr().out


@pytest.mark.parametrize("extra", [[], ["--seed", "5"], ["--faults", "mtbf:4:2"]])
def test_trace_and_serve_sim_build_equal_serving_configs(extra, tmp_path, monkeypatch):
    import repro.serving

    built = []

    class Capture(repro.serving.ServingSimulator):
        def __init__(self, config, **kwargs):
            built.append(config)
            super().__init__(config, **kwargs)

    monkeypatch.setattr(repro.serving, "ServingSimulator", Capture)
    assert main(["serve-sim", "--smoke", *extra]) == 0
    out = str(tmp_path / "serving.trace.json")
    assert main(["trace", "--scenario", "serving", "--smoke", "--out", out, *extra]) == 0
    serve_sim, trace = built
    assert serve_sim == trace
    assert serve_sim.mode == "disaggregated" and serve_sim.workload.num_requests == 40


def test_trace_network_smoke_matches_flowsim_target_default(tmp_path, capsys):
    from repro.sweep import get_target

    record = get_target("flowsim")({}, 0)
    out = str(tmp_path / "network.trace.json")
    assert main(["trace", "--scenario", "network", "--smoke", "--out", out]) == 0
    headline = capsys.readouterr().out.splitlines()[0]
    assert headline == (
        f"network: {record['flows']} flows over FT2, "
        f"makespan {record['makespan_ms']:.2f} ms"
    )


def test_trace_network_refuses_an_unknown_fault_target_in_one_line(tmp_path):
    """A link fault between two hosts no cable joins exits 1 with one
    line naming it, before any flow runs; it used to end in a bare
    ``KeyError`` traceback at the repair instant."""
    faults = tmp_path / "faults.json"
    faults.write_text(
        json.dumps({"events": [{"time": 1e-4, "kind": "link", "target": "h0|h1", "mttr": 1e-3}]})
    )
    out = tmp_path / "network.trace.json"
    argv = [
        sys.executable, "-m", "repro", "trace", "--scenario", "network", "--smoke",
        "--faults", str(faults), "--out", str(out),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["link fault target 'h0|h1' is not a link of FT2"]
    assert not out.exists()


def test_trace_training_faults_match_training_scenario(tmp_path, capsys):
    from repro.faults import parse_faults_arg
    from repro.reliability import optimal_checkpoint_interval
    from repro.sweep.targets import training_scenario
    from repro.training import simulate_checkpointed_training

    work = 4 * 3600.0
    schedule = parse_faults_arg(
        "mtbf:7200", horizon=3 * work, seed=0, kind="step", targets=("trainer",)
    )
    flat = {
        "work_s": work,
        "interval_s": optimal_checkpoint_interval(60.0, 7200.0),
        "checkpoint_s": 60.0,
        "restart_s": 300.0,
        "faults": json.loads(schedule.to_json()),
    }
    positional, keywords = training_scenario(flat, 0)
    report = simulate_checkpointed_training(*positional, **keywords)
    assert report.failures > 0
    out = str(tmp_path / "training.trace.json")
    argv = ["trace", "--scenario", "training", "--smoke", "--faults", "mtbf:7200", "--out", out]
    assert main(argv) == 0
    headline = capsys.readouterr().out.splitlines()[0]
    assert headline == (
        f"training: checkpointed goodput sim, {report.failures} failures, "
        f"{report.checkpoints} checkpoints, goodput {report.goodput:.1%} "
        f"(work 4 h, interval {flat['interval_s']:.0f} s)"
    )


def test_serve_sim_smoke_ignores_requests_for_progress(capsys):
    # --smoke runs 40 requests whatever --requests says, so no progress.
    assert main(["serve-sim", "--smoke", "--requests", "20000"]) == 0
    captured = capsys.readouterr()
    assert "completed 40" in captured.out
    assert captured.err == ""


def test_serve_sim_slo_without_window_exits_with_message():
    with pytest.raises(SystemExit, match="slo_rules require window_s"):
        main(["serve-sim", "--smoke", "--slo", "tpot_p99<0.05"])


def test_trace_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["trace", "--scenario", "quantum"])


def test_serve_sim_json_is_machine_readable(capsys):
    assert main(["serve-sim", "--smoke", "--json", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completed"] == 40
    assert set(report["ttft"]) == {"mean", "p50", "p95", "p99", "max"}
    assert report["throughput_tokens_per_s"] > 0
    # Traces serialize as JSON arrays of [time, value] pairs.
    assert isinstance(report["queue_depth_trace"], list)
    assert len(report["queue_depth_trace"][0]) == 2


def test_serve_sim_json_matches_table_run(capsys):
    assert main(["serve-sim", "--smoke", "--json", "--seed", "3"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["serve-sim", "--smoke", "--json", "--seed", "3"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
