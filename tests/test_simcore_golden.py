"""Golden determinism pins for the discrete-event simulation core.

The perf work on :mod:`repro.serving` and :mod:`repro.network.flowsim`
(identity-keyed requests, incremental aggregates, incremental max-min)
is only allowed to change *how fast* the simulators run, never *what*
they compute.  These tests pin that contract bit-for-bit:

* The **full** seeded :class:`repro.serving.SimReport` — every field,
  including the complete queue-depth and KV-occupancy traces, not just
  percentiles — is serialized to JSON and compared against a golden
  file generated before the optimizations landed.  ``json.dumps`` uses
  ``repr`` for floats, so the comparison is exact to the last bit.
* The Chrome trace file of the same runs is pinned by SHA-256, so span
  timings, ordering and counter samples are byte-identical too.

Two scenarios cover the interesting code paths: a *colocated* run with
a deliberately tight KV pool (preemption + recompute + MTP) and a
*disaggregated* run (KV transfer, separate pools, bursty arrivals).
A third, *streaming*, runs the default report mode on a colocated pool
without MTP (the due calendar, with preemption) long enough that the
decimated channel traces halve four times past ``STREAM_TRACE_POINTS``;
it pins the report, the two traces by SHA-256 and each channel series'
sample count and keep-stride.

Flowsim's event engine is pinned the same way, by SHA-256 of
repr-exact JSON, on two 4 x 8 fat-tree all-to-alls: a *leaf-local*
pattern with seeded sizes (many independent components, one re-solve
per completion) and a *shifted ring* over shifts 1..7 (one coupled
component whose re-solves resume near their last round).  Each pins the
completion times, the initial rates and the
``network.link_utilization.*`` series sampled at every re-solve.  The
Chrome trace of ``repro trace --scenario network --smoke`` is pinned
too, with and without a link-fault timeline.

Regenerate (only when an intentional behavior change lands) with::

    PYTHONPATH=src python tests/test_simcore_golden.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.faults import FaultSchedule
from repro.network import Flow, FlowSimulator, shifted_ring_flows, two_layer_fat_tree
from repro.obs import Tracer
from repro.serving import (
    MTPConfig,
    ServingSimulator,
    SimConfig,
    StepCostModel,
    WorkloadSpec,
)
from repro.serving.report import report_asdict

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def _colocated_config() -> SimConfig:
    # Tight KV pool: forces preemption/recompute; MTP exercises the
    # draft-acceptance RNG stream; bursty arrivals exercise queueing.
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=12.0,
            num_requests=160,
            prompt_mean=384,
            prompt_cv=0.6,
            output_mean=96,
            output_cv=0.6,
            arrival="bursty",
        ),
        costs=StepCostModel(mtp=MTPConfig(enabled=True)),
        mode="colocated",
        prefill_gpus=1,
        decode_gpus=3,
        kv_blocks_per_gpu=24,
        seed=7,
        record_requests=True,
    )


def _disaggregated_config() -> SimConfig:
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=8.0,
            num_requests=160,
            prompt_mean=512,
            prompt_cv=0.5,
            output_mean=128,
            output_cv=0.5,
        ),
        mode="disaggregated",
        prefill_gpus=2,
        decode_gpus=6,
        seed=3,
        record_requests=True,
    )


SCENARIOS = {
    "colocated": _colocated_config,
    "disaggregated": _disaggregated_config,
}


def _run(name: str, trace_path: Path, config: SimConfig | None = None) -> dict:
    """Run one scenario with tracing on; return the pinnable payload."""
    tracer = Tracer()
    simulator = ServingSimulator(
        SCENARIOS[name]() if config is None else config, tracer=tracer
    )
    report = simulator.run()
    tracer.write(str(trace_path))
    # report_asdict drops the always-None degradation key of fault-free
    # runs, so the payload shape matches the pre-fault-engine goldens.
    return {
        "report": report_asdict(report),
        "dropped": list(simulator.fold.dropped),
        "decode_batch_profile": _batch_profile(simulator.fold),
        "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "trace_events": len(tracer.events),
    }


def _batch_profile(fold) -> list:
    """``[batch, steps, mean step seconds]`` rows in batch order."""
    return [
        [batch, count, total / count]
        for batch, (count, total) in sorted(fold.batch_profile.items())
    ]


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"simreport_{name}.json"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simreport_matches_golden(name: str, tmp_path: Path) -> None:
    golden = json.loads(_golden_path(name).read_text())
    current = _run(name, tmp_path / f"{name}.trace.json")
    # Compare via canonical JSON so the diff on failure is readable and
    # float comparison is repr-exact (bit-identical round trip).
    assert json.dumps(current, sort_keys=True) == json.dumps(golden, sort_keys=True)


STREAMING_GOLDEN = GOLDEN_DIR / "simreport_streaming.json"


def _streaming_config() -> SimConfig:
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=8.0,
            num_requests=1500,
            prompt_mean=512,
            prompt_cv=0.5,
            output_mean=128,
            output_cv=0.6,
        ),
        mode="colocated",
        prefill_gpus=2,
        decode_gpus=6,
        kv_blocks_per_gpu=16,
        seed=11,
    )


def _run_streaming() -> dict:
    """Run the streaming scenario untraced; return its pins."""
    simulator = ServingSimulator(_streaming_config())
    report = report_asdict(simulator.run())
    traces = {key: report.pop(key) for key in ("queue_depth_trace", "kv_occupancy_trace")}
    fold = simulator.fold
    return {
        "report": report,
        "traces_sha256": {key: _sha256(trace) for key, trace in traces.items()},
        "series": {
            series.name: {
                "points": len(series.samples),
                "seen": series._seen,
                "stride": series._stride,
            }
            for series in (fold.queue_series, fold.kv_series)
        },
        "dropped": list(simulator.fold.dropped),
        "decode_batch_profile": _batch_profile(simulator.fold),
    }


def test_streaming_simreport_matches_golden() -> None:
    golden = json.loads(STREAMING_GOLDEN.read_text())
    assert json.dumps(_run_streaming(), sort_keys=True) == json.dumps(golden, sort_keys=True)
    # The pin covers decimation well past the point budget, and the
    # calendar's preemption path.
    assert all(series["stride"] >= 8 for series in golden["series"].values())
    assert golden["report"]["preemptions"] > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_null_fault_schedule_is_byte_identical(name: str, tmp_path: Path) -> None:
    """Faults *disabled* must mean exactly that: a config carrying an
    empty :class:`FaultSchedule` (and the default recovery policy) must
    reproduce the pre-fault-engine goldens bit-for-bit — SimReport JSON
    and trace SHA-256 both."""
    golden = json.loads(_golden_path(name).read_text())
    config = dataclasses.replace(SCENARIOS[name](), faults=FaultSchedule())
    current = _run(name, tmp_path / f"{name}.nullfaults.trace.json", config=config)
    assert json.dumps(current, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_goldens_exercise_interesting_paths(tmp_path: Path) -> None:
    """The pins are only meaningful if the scenarios hit the hot paths."""
    colo = _run("colocated", tmp_path / "c.trace.json")["report"]
    disagg = _run("disaggregated", tmp_path / "d.trace.json")["report"]
    assert colo["preemptions"] > 0  # preempt + recompute path
    assert colo["mtp_acceptance_measured"] > 0  # MTP draft RNG stream
    assert disagg["preemptions"] == 0
    assert disagg["completed"] == 160  # KV-transfer path end to end


# -- flowsim --------------------------------------------------------------


def _leaf_local_flows():
    topo = two_layer_fat_tree(4, 8, 4)
    rng = np.random.default_rng(0)
    flows = []
    for leaf in range(4):
        hosts = [f"h{leaf * 8 + i}" for i in range(8)]
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    size = float(rng.uniform(64e6, 512e6))
                    flows.append(Flow(src, dst, size, [src, f"FT2/leaf{leaf}", dst]))
    return topo, flows


def _shifted_ring_flows():
    topo = two_layer_fat_tree(4, 8, 4)
    return topo, shifted_ring_flows(topo, range(1, 8), 64e6)


FLOWSIM_SCENARIOS = {
    "leaf_local": _leaf_local_flows,
    "shifted_ring": _shifted_ring_flows,
}

#: ``repro trace`` argument lists whose trace files are pinned.
NETWORK_TRACES = {
    "smoke": ["--smoke"],
    "smoke_faults": ["--smoke", "--faults", "mtbf:0.02:0.01"],
}

FLOWSIM_GOLDEN = GOLDEN_DIR / "flowsim.json"


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _run_flowsim(name: str) -> dict:
    """Run one flowsim scenario in event mode; return its pins."""
    topo, flows = FLOWSIM_SCENARIOS[name]()
    sim = FlowSimulator(topo)
    result = sim.simulate(flows)
    n = len(flows)
    series = {
        key: sim.metrics.series(f"network.link_utilization.{key}").samples
        for key in ("mean", "max")
    }
    return {
        "flows": n,
        "makespan": result.makespan,
        "samples": len(series["mean"]),
        "completion_sha256": _sha256([result.completion[i] for i in range(n)]),
        "rates_sha256": _sha256([result.rates[i] for i in range(n)]),
        "utilization_sha256": _sha256(series),
    }


def _network_trace_sha256(name: str, tmp_path: Path) -> str:
    out = tmp_path / f"network_{name}.trace.json"
    assert main(["trace", "--scenario", "network", *NETWORK_TRACES[name], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(FLOWSIM_SCENARIOS))
def test_flowsim_matches_golden(name: str) -> None:
    golden = json.loads(FLOWSIM_GOLDEN.read_text())["scenarios"][name]
    assert _run_flowsim(name) == golden


@pytest.mark.parametrize("name", sorted(NETWORK_TRACES))
def test_network_trace_matches_golden(name: str, tmp_path: Path) -> None:
    golden = json.loads(FLOWSIM_GOLDEN.read_text())["network_trace_sha256"][name]
    assert _network_trace_sha256(name, tmp_path) == golden


def _regen() -> None:
    import contextlib
    import io
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SCENARIOS):
            payload = _run(name, Path(tmp) / f"{name}.trace.json")
            path = _golden_path(name)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
        STREAMING_GOLDEN.write_text(json.dumps(_run_streaming(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {STREAMING_GOLDEN}")
        with contextlib.redirect_stdout(io.StringIO()):
            payload = {
                "scenarios": {name: _run_flowsim(name) for name in sorted(FLOWSIM_SCENARIOS)},
                "network_trace_sha256": {
                    name: _network_trace_sha256(name, Path(tmp)) for name in sorted(NETWORK_TRACES)
                },
            }
        FLOWSIM_GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FLOWSIM_GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
