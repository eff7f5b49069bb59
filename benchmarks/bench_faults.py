"""Fault-injection ablation across the three discrete-event simulators.

Runs each simulator fault-free and under injected failures, recording
what the outage costs — completed/dropped/shed requests and goodput for
serving, stall and reroute makespans for the network, goodput versus
the Young-Daly closed form for checkpointed training.

Every number here is **deterministic** (seeded simulations, no
wall-clock measurements), so the committed ``BENCH_faults.json`` is an
exact behavioral baseline: ``--check`` re-runs the ablation and exits
nonzero on any drift — the CI fault-smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _report import compare, default_meta, print_table, write_json

from repro.faults import (
    FaultEvent,
    FaultSchedule,
    cluster_reroute,
    expand_plane_schedule,
)
from repro.network import Flow, FlowSimulator, build_mpft_cluster, pxn_path
from repro.reliability import goodput_fraction, optimal_checkpoint_interval
from repro.sweep import SweepSpec, run_sweep

SEED = 7

#: The serving scenario, as flat keys of the sweep engine's ``serving``
#: target.  The seed is pinned in the base config so every fault
#: variant replays the identical arrival stream.
_SERVING_BASE = {
    "request_rate": 10.0,
    "num_requests": 300,
    "prompt_mean": 512,
    "output_mean": 128,
    "arrival": "bursty",
    "mode": "colocated",
    "prefill_gpus": 2,
    "decode_gpus": 8,
    "kv_blocks_per_gpu": 40,
    "seed": SEED,
    "recovery": {"retry_budget": 2, "degraded_queue_limit": 24},
}


def _schedule_dict(schedule: FaultSchedule) -> dict:
    """JSON-able schedule form the sweep target reconstructs from."""
    return json.loads(schedule.to_json())


def _serving_record(record: dict) -> dict:
    out = {
        "completed": record["completed"],
        "goodput_rps": round(record["goodput_requests_per_s"], 6),
        "slo_attainment": round(record["slo_attainment"], 6),
    }
    d = record.get("degradation")
    if d is not None:
        out.update(
            dropped=d["dropped"],
            shed=d["shed"],
            retries=d["retries"],
            evicted=d["evicted"],
            unserved=d["unserved"],
            lost_tokens=d["lost_tokens"],
            accounted=d["accounted"],
        )
    return out


def run_serving() -> dict:
    """Fault-free vs single-node-failure vs MTBF-sampled serving,
    fanned out as one three-point sweep over the fault schedule."""
    node_fault = FaultSchedule(
        events=(FaultEvent(time=5.0, kind="node", target="pool", mttr=10.0),)
    )
    sampled = FaultSchedule.sampled(
        mtbf=15.0, horizon=40.0, seed=SEED, kind="gpu", targets=("pool",), mttr=5.0
    )
    variants = [
        ("fault_free", {}),
        ("node_failure", {"faults": _schedule_dict(node_fault)}),
        ("mtbf_sampled", {"faults": _schedule_dict(sampled)}),
    ]
    spec = SweepSpec(
        target="serving", points=[p for _, p in variants], base=_SERVING_BASE
    )
    result = run_sweep(spec, workers=2, cache=None)
    return {
        name: _serving_record(record)
        for (name, _), record in zip(variants, result.records())
    }


def run_network() -> dict:
    """Plane-outage ablation: stall vs reroute vs repair (§5.1.1)."""
    cluster = build_mpft_cluster(4)
    flows = [
        Flow(f"n0g{p}", f"n1g{p}", 1e9, pxn_path(cluster, f"n0g{p}", f"n1g{p}"), tag=f"p{p}")
        for p in range(4)
    ]
    sim = FlowSimulator(cluster.topology)
    base = sim.simulate(flows)

    def plane_outage(mttr: float) -> FaultSchedule:
        return expand_plane_schedule(
            cluster,
            FaultSchedule(
                events=(FaultEvent(time=0.001, kind="plane", target="0", mttr=mttr),)
            ),
        )

    permanent = plane_outage(float("inf"))
    stalled = sim.simulate(flows, faults=permanent)
    stall_report = sim.fault_report
    rerouted = sim.simulate(flows, faults=permanent, reroute=cluster_reroute(cluster))
    repaired = sim.simulate(flows, faults=plane_outage(0.02))
    return {
        "fault_free_ms": round(base.makespan * 1e3, 6),
        "stall_unfinished": len(stall_report.unfinished),
        "stall_survivor_ms": round(stalled.makespan * 1e3, 6),
        "reroute_ms": round(rerouted.makespan * 1e3, 6),
        "repair_ms": round(repaired.makespan * 1e3, 6),
    }


def run_training() -> dict:
    """Checkpoint-interval ablation against the Young-Daly optimum,
    as one sweep over ``interval_s`` on the ``training`` target."""
    mtbf, ckpt, restart = 7200.0, 60.0, 900.0
    optimal = optimal_checkpoint_interval(ckpt, mtbf)
    spec = SweepSpec(
        target="training",
        points=[{"interval_s": optimal}, {"interval_s": optimal / 2}, {"interval_s": optimal * 2}],
        base={
            "work_s": 100 * mtbf,
            "checkpoint_s": ckpt,
            "restart_s": restart,
            "mtbf_s": mtbf,
            "seed": 42,
        },
    )
    result = run_sweep(spec, workers=2, cache=None)
    at_optimal, at_half, at_double = (
        round(r["goodput"], 6) for r in result.records()
    )
    return {
        "predicted_optimal": round(goodput_fraction(ckpt, restart, mtbf, optimal), 6),
        "optimal_interval": at_optimal,
        "half_interval": at_half,
        "double_interval": at_double,
    }


def _rows(payload: dict) -> list[list[object]]:
    rows = []
    for sim, record in payload.items():
        if sim == "_meta":
            continue
        for key, value in record.items():
            if isinstance(value, dict):
                for sub, subval in value.items():
                    rows.append([sim, f"{key}.{sub}", subval])
            else:
                rows.append([sim, key, value])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    args = parser.parse_args(argv)

    current = {
        "serving": run_serving(),
        "network": run_network(),
        "training": run_training(),
    }
    print_table("fault-injection ablation", ["simulator", "metric", "value"], _rows(current))

    if args.check:
        path = Path(__file__).resolve().parent / "BENCH_faults.json"
        baseline = json.loads(path.read_text())
        drifts = compare(current, baseline)
        if drifts:
            print(f"\nfault-ablation drift vs {path.name}:")
            for message in drifts:
                print(f"  {message}")
            return 1
        print(f"\nexactly matches {path.name}")
        return 0

    write_json(
        "faults",
        current,
        meta=default_meta(
            serving=f"300 req @ 10/s bursty, colocated 2+8, kv 40/GPU, seed {SEED}",
            network="MPFT 4 nodes, 4x1GB pxn flows, plane-0 outage at t=1ms",
            training="mtbf 7200s, ckpt 60s, restart 900s, 720ks work, seed 42",
        ),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
