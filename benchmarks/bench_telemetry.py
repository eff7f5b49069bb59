"""Windowed telemetry + SLO monitor behavioral baseline.

Runs the PR's acceptance scenario — a seeded, fault-injected serving
simulation with windowed telemetry and a burn-rate SLO rule — and
records what the monitor saw: the per-window attainment timeline, the
full fire/resolve alert sequence, and the cross-point merge of two
sweep points' window rollups.

It also pins the *observation-only* invariant: the windowed run's
compact record, with the telemetry keys stripped, must be byte-identical
to an unmonitored run of the same seed — turning the monitor on cannot
perturb the simulation.

Everything here is deterministic (seeded simulations, no wall-clock
numbers), so the committed ``BENCH_telemetry.json`` is an exact
baseline: ``--check`` re-runs the scenario and exits nonzero on any
drift — the CI telemetry-smoke gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _report import check_parser, default_meta, gate, print_table

from repro.obs import merge_window_rollups, window_summaries
from repro.sweep import SweepSpec, run_sweep

SEED = 17

_BASE = {
    "request_rate": 8.0,
    "num_requests": 120,
    "prompt_mean": 256,
    "prompt_cv": 0.3,
    "output_mean": 64,
    "output_cv": 0.3,
    "mode": "disaggregated",
}

#: One decode node dies at t=3s, rejoins at t=6s.
_FAULTS = {"events": [{"time": 3.0, "kind": "node", "target": "decode", "mttr": 3.0}]}

_TELEMETRY = {"window_s": 2.0, "slo": ["burn>2@0.9"]}


def _sweep(points: list[dict], base: dict) -> list[dict]:
    spec = SweepSpec(target="serving", points=points, base=base, seed=SEED)
    return [r for r in run_sweep(spec, workers=2, cache=None).records()]


def run_scenario() -> dict:
    """The monitored outage: window attainments and the alert timeline."""
    (record,) = _sweep(
        [{}], {**_BASE, **_TELEMETRY, "faults": _FAULTS}
    )
    summaries = window_summaries(record["windows"])
    attainments = [
        round(s["slo_attainment"], 6) if s["slo_attainment"] is not None else None
        for s in summaries
    ]
    return {
        "windows": len(summaries),
        "attainment_timeline": attainments,
        "alerts": [
            {
                "state": a["state"],
                "time": a["time"],
                "window": a["window"],
                "during_fault": a["during_fault"],
            }
            for a in record["alerts"]
        ],
        "fired": sum(1 for a in record["alerts"] if a["state"] == "fire"),
        "resolved": sum(1 for a in record["alerts"] if a["state"] == "resolve"),
    }


def run_zero_overhead() -> dict:
    """Telemetry must observe, never perturb: for the same SimConfig
    seed, the monitored run's compact record minus its telemetry keys
    equals the unmonitored record, byte for byte.

    (Compared on direct simulator runs, not through the sweep engine —
    the engine folds the whole config into each point's derived seed, so
    adding telemetry keys there legitimately changes the arrival
    stream.)"""
    from repro.faults import FaultSchedule
    from repro.serving import ServingSimulator, SimConfig, WorkloadSpec, compact_record

    workload_keys = ("request_rate", "num_requests", "prompt_mean", "prompt_cv",
                     "output_mean", "output_cv")
    workload = WorkloadSpec(**{k: _BASE[k] for k in workload_keys})

    def record(**telemetry) -> dict:
        cfg = SimConfig(
            workload=workload,
            mode=_BASE["mode"],
            seed=SEED,
            faults=FaultSchedule.from_json(_FAULTS),
            **telemetry,
        )
        return compact_record(ServingSimulator(cfg).run())

    plain = record()
    monitored = record(window_s=_TELEMETRY["window_s"],
                       slo_rules=tuple(_TELEMETRY["slo"]))
    stripped = {k: v for k, v in monitored.items() if k not in ("windows", "alerts")}
    identical = json.dumps(stripped, sort_keys=True) == json.dumps(plain, sort_keys=True)
    return {"identical": identical}


def run_merge() -> dict:
    """Two sweep points' rollups merged via Histogram.merge: counters
    add exactly and the pooled p99 comes from the combined buckets."""
    records = _sweep(
        [{"request_rate": 6.0}, {"request_rate": 8.0}], {**_BASE, **_TELEMETRY}
    )
    merged = merge_window_rollups([r["windows"] for r in records])
    summaries = window_summaries(merged)
    finished = sum(s.get("finished", 0) for s in summaries)
    per_point = sum(
        s.get("finished", 0)
        for r in records
        for s in window_summaries(r["windows"])
    )
    ttft_p99 = max(s.get("ttft_p99", 0.0) for s in summaries)
    return {
        "points": len(records),
        "merged_windows": len(merged),
        "finished_total": finished,
        "counters_add_exactly": finished == per_point,
        "worst_window_ttft_p99_s": round(ttft_p99, 6),
    }


def _rows(payload: dict) -> list[list[object]]:
    rows = []
    for section, record in payload.items():
        if section == "_meta":
            continue
        for key, value in record.items():
            if isinstance(value, list):
                value = json.dumps(value)
            rows.append([section, key, value])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = check_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)

    current = {
        "scenario": run_scenario(),
        "zero_overhead": run_zero_overhead(),
        "merge": run_merge(),
    }
    print_table("telemetry / SLO baseline", ["section", "metric", "value"], _rows(current))

    if not current["zero_overhead"]["identical"]:
        print("\nFATAL: windowed telemetry perturbed the simulation")
        return 1
    if not (current["scenario"]["fired"] and current["scenario"]["resolved"]):
        print("\nFATAL: the outage scenario must fire and resolve an alert")
        return 1

    return gate(
        "telemetry",
        current,
        default_meta(
            scenario=(
                f"120 req @ 8/s disaggregated, decode node down 3-6s, "
                f"2s windows, burn>2@0.9, seed {SEED}"
            ),
        ),
        args.check,
    )


if __name__ == "__main__":
    sys.exit(main())
