"""Chaos drill: supervised execution under seeded process-level faults.

Three sections, all gated on exact invariants rather than wall-clock:

* **overhead** — a clean 10-point grid run plain (one forked worker,
  no policy) and supervised (the same, ``timeout_s`` armed).  The
  reports must be byte-identical: supervision is an execution detail,
  never an output change.  The overhead ratio is printed but not
  gated (it tracks the machine's fork and pipe round-trip cost).
* **chaos** — the same grid wrapped in :func:`repro.chaos.chaos_spec`
  (seeded sabotage: worker kills, hangs the supervisor must time out,
  raised :class:`~repro.chaos.ChaosError`, slow-downs).  Supervised
  retries recover every point: **zero** errors, the sabotage counts
  (kills/hangs/raises, hence retries and timeouts) are seed-pinned and
  machine-independent, the 1-worker and 4-worker reports are
  byte-identical, and :func:`repro.chaos.assert_chaos_invariant`
  certifies the report matches a chaos-free reference run exactly —
  the headline guarantee of the chaos harness.
* **poison** — a grid whose every point fails on every attempt.  Each
  is quarantined after ``max_attempts``; the quarantine records carry
  no pids or wall-clock, so the 1- and 4-worker reports are
  byte-identical too (failure handling is as deterministic as
  success).

``BENCH_chaos.json`` is the committed baseline and holds only the
seed-pinned fields; wall times are printed, never committed.
``--check`` re-runs everything, re-asserts the invariants, and
compares the payload exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _report import compare, default_meta, print_table, write_json

from repro.chaos import ChaosPolicy, assert_chaos_invariant, chaos_spec, reference_spec
from repro.obs import MetricsRegistry
from repro.sweep import (
    SupervisorPolicy,
    SweepCache,
    SweepSpec,
    grid,
    register_target,
    run_sweep,
)

#: Per-attempt kill budget for hung points (seconds).  Generous enough
#: that a loaded CI machine never times out an honest point, small
#: enough that the hang-mode points don't dominate the drill.
TIMEOUT_S = 2.0

POLICY = SupervisorPolicy(
    timeout_s=TIMEOUT_S, max_attempts=3, backoff_base_s=0.02, backoff_cap_s=0.1
)

CHAOS = ChaosPolicy(rate=0.7, attempts=1, hang_s=3600.0, slow_s=0.1)


@register_target("bench_chaos_inner")
def _inner_point(config: dict, seed: int) -> dict:
    """Cheap deterministic digest — the work being sabotaged."""
    digest = hashlib.sha256(f"{sorted(config.items())}|{seed}".encode()).hexdigest()
    return {"digest": digest[:16]}


@register_target("bench_chaos_poison")
def _poison_point(config: dict, seed: int) -> dict:
    raise RuntimeError(f"poison point {config.get('p')} (seed {seed})")


INNER_POINTS = grid(alpha=[1, 2, 3, 4, 5], beta=[1, 2])  # 10 points
INNER_SPEC = SweepSpec(target="bench_chaos_inner", points=INNER_POINTS, seed=17)


def _supervision_overhead() -> tuple[dict, dict]:
    plain = run_sweep(INNER_SPEC, workers=1)
    supervised = run_sweep(INNER_SPEC, workers=1, supervise=POLICY)
    byte_identical = plain.to_json() == supervised.to_json()
    assert byte_identical, "supervision changed the report"
    exact = {"grid_points": len(INNER_POINTS), "byte_identical": byte_identical}
    timed = {
        "plain_s": round(plain.wall_time, 4),
        "supervised_s": round(supervised.wall_time, 4),
        "overhead_x": round(supervised.wall_time / max(plain.wall_time, 1e-9), 1),
    }
    return exact, timed


def _chaos_drill(workers: int) -> tuple[dict, dict]:
    # Seed 15 draws all four sabotage modes over this grid — including
    # exactly one hang, so the drill provably exercises the timeout
    # path without hangs dominating its wall time.
    spec = chaos_spec("bench_chaos_inner", INNER_POINTS, seed=15, policy=CHAOS)
    sabotaged = sum(1 for p in spec.points if p["chaos_mode"] != "none")
    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory() as w4_dir, tempfile.TemporaryDirectory() as w1_dir:
        chaotic = run_sweep(
            spec,
            workers=workers,
            cache=SweepCache(w4_dir),
            supervise=POLICY,
            metrics=metrics,
        )
        serial = run_sweep(
            spec, workers=1, cache=SweepCache(w1_dir), supervise=POLICY
        )
    byte_identical = chaotic.to_json() == serial.to_json()
    assert byte_identical, "chaos report depends on worker count"
    errors = sum(1 for r in chaotic.records() if r and "error" in r)
    assert errors == 0, f"{errors} chaos points failed to recover"
    reference = run_sweep(reference_spec(spec), workers=workers)
    assert_chaos_invariant(chaotic, reference)
    snapshot = metrics.snapshot()
    exact = {
        "grid_points": len(spec.points),
        "sabotaged": sabotaged,
        "errors": errors,
        "retries": int(snapshot.get("sweep.retries", 0)),
        "timeouts": int(snapshot.get("sweep.timeouts", 0)),
        "worker_deaths": int(snapshot.get("sweep.worker_deaths", 0)),
        "byte_identical_workers": byte_identical,
        "invariant_holds": True,
    }
    timed = {
        "parallel_s": round(chaotic.wall_time, 3),
        "serial_s": round(serial.wall_time, 3),
    }
    return exact, timed


def _poison_quarantine(workers: int) -> dict:
    spec = SweepSpec(
        target="bench_chaos_poison", points=[{"p": i} for i in range(4)], seed=5
    )
    policy = SupervisorPolicy(
        timeout_s=TIMEOUT_S, max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.05
    )
    metrics = MetricsRegistry()
    parallel = run_sweep(
        spec, workers=workers, supervise=policy, strict=False, metrics=metrics
    )
    serial = run_sweep(spec, workers=1, supervise=policy, strict=False)
    byte_identical = parallel.to_json() == serial.to_json()
    assert byte_identical, "quarantine records depend on worker count"
    quarantined = int(metrics.snapshot().get("sweep.quarantined", 0))
    assert quarantined == len(spec.points), "not every poison point was quarantined"
    return {
        "grid_points": len(spec.points),
        "quarantined": quarantined,
        "byte_identical_workers": byte_identical,
    }


def _assert_no_orphans() -> None:
    """Every forked attempt worker must be dead once the drill ends —
    the supervisor's cleanup owns them, crashed or not."""
    import os
    import subprocess

    try:
        out = subprocess.run(
            ["ps", "--ppid", str(os.getpid()), "-o", "comm="],
            capture_output=True,
            text=True,
        ).stdout.split()
    except OSError:  # no procps on this host; the tests cover it
        return
    leftovers = [name for name in out if name != "ps"]
    assert not leftovers, f"orphaned worker processes: {leftovers}"


def run_drill(workers: int) -> tuple[dict, dict]:
    """The seed-pinned payload and, per section, its wall-clock timings."""
    overhead, overhead_timed = _supervision_overhead()
    chaos, chaos_timed = _chaos_drill(workers)
    payload = {
        "workers": workers,
        "overhead": overhead,
        "chaos": chaos,
        "poison": _poison_quarantine(workers),
    }
    _assert_no_orphans()
    return payload, {"overhead": overhead_timed, "chaos": chaos_timed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument("--workers", type=int, default=4, help="fan-out width")
    args = parser.parse_args(argv)

    payload, timings = run_drill(args.workers)
    rows = [
        [section, k, v]
        for section in ("overhead", "chaos", "poison")
        for k, v in {**payload[section], **timings.get(section, {})}.items()
    ]
    print_table(
        f"chaos drill, {payload['workers']} workers", ["section", "metric", "value"], rows
    )

    if args.check:
        path = Path(__file__).resolve().parent / "BENCH_chaos.json"
        baseline = json.loads(path.read_text())
        # Every committed field is seed-pinned: sabotage assignments,
        # retry/timeout/kill counts, and the byte-identity flags.
        drifts = compare(payload, baseline)
        if drifts:
            print(f"\nchaos-drill drift vs {path.name}:")
            for message in drifts:
                print(f"  {message}")
            return 1
        print(f"\nexactly matches {path.name}")
        return 0

    write_json(
        "chaos",
        payload,
        meta=default_meta(
            inner="10-point digest grid, seed 17",
            chaos=f"seed 15, rate {CHAOS.rate}, modes {'/'.join(CHAOS.modes)}, timeout {TIMEOUT_S}s, 3 attempts",
            poison="4 always-failing points, 2 attempts each",
        ),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
