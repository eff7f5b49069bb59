"""Ablation: request-level serving simulation (§2.3.1–§2.3.3).

Three axes, all at equal hardware (8 GPUs):

* colocated vs disaggregated prefill/decode — §2.3.1's argument is
  that decode requests queueing behind prefill bursts inflate tail
  latency; the simulator shows it as a P99 TPOT gap.
* MTP speculative decoding on/off — §2.3.3's ~1.8x generation speedup
  shows up as a TPOT reduction at the measured acceptance rate.
* decode batch cap — the throughput/latency trade the closed-form
  frontier (bench_ablation_serving) predicts, now with queueing.

The four variants run through the :mod:`repro.sweep` engine as one
explicit point list over the registered ``serving`` target, fanned out
across processes (caching off: the benchmark measures the simulator).
The shared seed is pinned in the base config so every variant sees the
same arrival stream — the ablation discipline the engine's derived
per-point seeds would otherwise (correctly) break.

Results are recorded as ``BENCH_serving_sim.json`` via
:func:`_report.write_json`; the committed file is the baseline.  Every
leaf is deterministic (seeded simulations, no wall-clock numbers), so
``python -m benchmarks.bench_serving_sim --check`` re-runs the four
variants and exits nonzero on any drift from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _report import compare, default_meta, print_table, write_json

from repro.sweep import SweepSpec, run_sweep

#: Bursty traffic with prefill-heavy requests: the regime where
#: colocation hurts decode tails the most.  Flat keys of the sweep
#: engine's ``serving`` target (WorkloadSpec + SimConfig fields).
BASE = {
    "request_rate": 6.0,
    "num_requests": 150,
    "prompt_mean": 1024,
    "prompt_cv": 0.5,
    "output_mean": 128,
    "output_cv": 0.5,
    "arrival": "bursty",
    "prefill_gpus": 2,
    "decode_gpus": 6,
    "seed": 0,
}

VARIANTS = [
    ("colocated", {"mode": "colocated"}),
    ("disaggregated", {"mode": "disaggregated"}),
    ("disaggregated+mtp", {"mode": "disaggregated", "mtp": True}),
    ("disaggregated cap=2", {"mode": "disaggregated", "max_concurrent_per_gpu": 2}),
]

SPEC = SweepSpec(target="serving", points=[p for _, p in VARIANTS], base=BASE)


def _row(name: str, record: dict) -> list[object]:
    return [
        name,
        round(record["ttft_p50_ms"], 1),
        round(record["ttft_p99_ms"], 1),
        round(record["tpot_p50_ms"], 2),
        round(record["tpot_p99_ms"], 2),
        round(record["throughput_tokens_per_s"], 0),
        round(record["slo_attainment"], 3),
    ]


def run_ablation(workers: int) -> dict[str, dict]:
    """Each variant's compact record, by deployment name."""
    result = run_sweep(SPEC, workers=workers, cache=None)
    return dict(zip([name for name, _ in VARIANTS], result.records()))


def shape_checks(records: dict[str, dict]) -> list[tuple[str, bool]]:
    """The paper's qualitative claims, as (claim, holds) pairs."""
    colo, disagg = records["colocated"], records["disaggregated"]
    mtp = records["disaggregated+mtp"]
    capped = records["disaggregated cap=2"]
    return [
        # §2.3.1: at equal hardware, disaggregation cuts the decode tail —
        # prefill bursts no longer block decode steps.
        ("disaggregation cuts TPOT p99", disagg["tpot_p99_ms"] < colo["tpot_p99_ms"]),
        # The trade: the colocated pool throws 4x the compute at prefill,
        # so its TTFT is lower — disaggregation buys the decode tail with
        # prefill latency, which is why the pools must be sized to the mix.
        ("colocation has the lower TTFT p50", colo["ttft_p50_ms"] < disagg["ttft_p50_ms"]),
        # §2.3.3: MTP at ~85% acceptance beats 1-token decode despite the
        # draft overhead.
        ("MTP cuts TPOT p50 by 1.5x", mtp["tpot_p50_ms"] < disagg["tpot_p50_ms"] / 1.5),
        ("MTP acceptance above 0.7", mtp["mtp_acceptance_measured"] > 0.7),
        # A tight admission cap keeps per-step batches small (TPOT p50 no
        # worse) but queues requests at entry, inflating TTFT tails.
        ("cap=2 keeps TPOT p50", capped["tpot_p50_ms"] <= disagg["tpot_p50_ms"]),
        ("cap=2 inflates TTFT p99", capped["ttft_p99_ms"] > disagg["ttft_p99_ms"]),
        # Everyone finishes the workload.
        (
            "every variant completes the workload",
            all(r["completed"] == BASE["num_requests"] for r in records.values()),
        ),
    ]


def _print(records: dict[str, dict]) -> None:
    print_table(
        "Serving simulation: 150 bursty requests, 2 prefill + 6 decode GPUs",
        ["deployment", "TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "tok/s", "SLO"],
        [_row(name, record) for name, record in records.items()],
    )


def _write(records: dict[str, dict], workers: int) -> None:
    write_json(
        "serving_sim",
        records,
        meta=default_meta(
            workload="bursty 150 req @ 6/s, prompt~1024, output~128",
            gpus="2 prefill + 6 decode",
            seed=0,
            engine=f"repro.sweep, {workers} workers",
        ),
    )


def bench_serving_sim_ablation(benchmark):
    workers = min(4, os.cpu_count() or 1)
    records = benchmark(run_ablation, workers)
    _print(records)
    _write(records, workers)
    for claim, holds in shape_checks(records):
        assert holds, claim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    args = parser.parse_args(argv)

    workers = min(4, os.cpu_count() or 1)
    records = run_ablation(workers)
    _print(records)
    failed = [claim for claim, holds in shape_checks(records) if not holds]
    if failed:
        print(f"\nFATAL: the ablation lost its shape: {', '.join(failed)}")
        return 1

    if args.check:
        path = Path(__file__).resolve().parent / "BENCH_serving_sim.json"
        drifts = compare(records, json.loads(path.read_text()))
        if drifts:
            print(f"\nserving ablation drift vs {path.name}:")
            for message in drifts:
                print(f"  {message}")
            return 1
        print(f"\nexactly matches {path.name}")
        return 0

    _write(records, workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
