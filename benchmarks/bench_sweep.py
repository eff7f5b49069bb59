"""Scaling ablation of the sweep engine itself (1 vs N workers, cold
vs warm cache).

Two grids, each run cold-serial, cold-parallel (4 workers) and warm:

* **probe** — a bench-registered target whose evaluation cost is a
  calibrated fixed latency (0.25 s), modeling the blocking regime
  (remote/accelerator evaluation) where fan-out is pure win.  Because
  each point blocks rather than computes, its parallel speedup
  measures the *engine's* scheduling + cache machinery on any
  machine, including single-core CI: ideal is ``workers``x, and the
  committed speedup certifies the fan-out path works.
* **serving** — an 8-point grid on the real serving simulator
  (CPU-bound, so its parallel speedup tracks the machine's core
  count; it is recorded, not gated).

Both grids pin the engine's exact, machine-independent invariants:
serial and parallel runs serialize to **byte-identical** JSON, and a
warm re-run evaluates **zero** points while running >= 10x faster than
cold.  The wall times and speedups are printed and asserted against
those floors, never committed: ``BENCH_sweep.json`` holds only the
deterministic counts and flags, and ``--check`` re-runs everything,
re-asserts the floors and compares the payload exactly.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _report import check_parser, default_meta, gate, print_table

from repro.sweep import SweepCache, SweepSpec, grid, register_target, run_sweep

#: Calibrated per-point latency of the probe target (seconds).
PROBE_LATENCY = 0.25


@register_target("bench_probe")
def _probe_point(config: dict, seed: int) -> dict:
    """Block for a fixed latency, return a deterministic digest."""
    time.sleep(PROBE_LATENCY)
    digest = hashlib.sha256(f"{sorted(config.items())}|{seed}".encode()).hexdigest()
    return {"digest": digest[:16], "latency_s": PROBE_LATENCY}


PROBE_SPEC = SweepSpec(
    target="bench_probe",
    points=grid(alpha=[1, 2], beta=[1, 2], gamma=[1, 2]),  # 8 points
    seed=11,
)

#: The real-simulator grid: 8 serving points, seed pinned so every
#: variant replays the same arrival stream.
SERVING_SPEC = SweepSpec(
    target="serving",
    points=grid(
        request_rate=[8.0, 16.0],
        mode=["colocated", "disaggregated"],
        mtp=[False, True],
    ),
    base={
        "num_requests": 1500,
        "prompt_mean": 512,
        "output_mean": 128,
        "prefill_gpus": 2,
        "decode_gpus": 6,
        "seed": 3,
    },
)


def _three_runs(spec: SweepSpec, workers: int) -> tuple[dict, dict]:
    """Cold-serial / cold-parallel / warm, with the exact invariants.

    Returns the deterministic payload and the wall-clock timings.
    """
    with tempfile.TemporaryDirectory() as serial_dir, tempfile.TemporaryDirectory() as par_dir:
        serial = run_sweep(spec, workers=1, cache=SweepCache(serial_dir))
        parallel = run_sweep(spec, workers=workers, cache=SweepCache(par_dir))
        warm = run_sweep(spec, workers=workers, cache=SweepCache(par_dir))

    byte_identical = serial.to_json() == parallel.to_json()
    warm_speedup = parallel.wall_time / warm.wall_time
    assert byte_identical, f"{spec.target}: serial vs parallel output diverged"
    assert warm.evaluated == 0, f"{spec.target}: warm re-run recomputed points"
    assert warm.cache_hits == len(spec.points)
    assert warm.records() == parallel.records()
    assert warm_speedup >= 10, (
        f"{spec.target}: warm-cache speedup {warm_speedup:.1f}x below 10x"
    )
    exact = {
        "grid_points": len(spec.points),
        "warm_evaluated": warm.evaluated,
        "warm_cache_hits": warm.cache_hits,
        "byte_identical": byte_identical,
    }
    timed = {
        "serial_s": round(serial.wall_time, 3),
        "parallel_s": round(parallel.wall_time, 3),
        "parallel_speedup": round(serial.wall_time / parallel.wall_time, 2),
        "warm_s": round(warm.wall_time, 4),
        "warm_speedup": round(warm_speedup, 1),
    }
    return exact, timed


def run_ablation(workers: int) -> tuple[dict, dict]:
    """The deterministic payload and, per grid, its wall-clock timings."""
    probe, probe_timed = _three_runs(PROBE_SPEC, workers)
    serving, serving_timed = _three_runs(SERVING_SPEC, workers)
    # The probe's floor is the gate: blocking points must fan out.
    assert probe_timed["parallel_speedup"] > 1.5, (
        f"engine fan-out speedup {probe_timed['parallel_speedup']}x below 1.5x"
    )
    payload = {"workers": workers, "probe": probe, "serving": serving}
    return payload, {"probe": probe_timed, "serving": serving_timed}


def main(argv: list[str] | None = None) -> int:
    parser = check_parser(__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4, help="fan-out width")
    args = parser.parse_args(argv)

    payload, timings = run_ablation(args.workers)
    rows = [
        [section, k, v]
        for section in ("probe", "serving")
        for k, v in {**payload[section], **timings[section]}.items()
    ]
    print_table(
        f"sweep engine scaling, {payload['workers']} workers",
        ["grid", "metric", "value"],
        rows,
    )

    return gate(
        "sweep",
        payload,
        default_meta(
            probe=f"8-point fixed-latency target, {PROBE_LATENCY}s/point",
            serving="rate {8,16} x {colocated,disaggregated} x mtp {off,on}, 1500 req/point, seed 3",
        ),
        args.check,
    )


if __name__ == "__main__":
    sys.exit(main())
