"""The workload process: set up one workload, then measure it on cue.

``perf/run.py`` spawns this module several times per run and times each
spawn until set-up is done.  The protocol is one line each way:

* worker → ``READY <before> <after> <in_reference>`` once the workload's
  inputs are built: the host-speed reference before and after set-up,
  and the seconds those two references took;
* harness → ``go`` (measure) or ``quit`` (a set-up-only spawn);
* worker → one JSON line with the measurement.

Measurement repeats the workload's fixed unit of work until the next
rep would overrun ``--seconds``.  Every untraced rep sits between two
runs of the host-speed reference (:mod:`perf.hostspeed`), and
``wall_s`` is the median of the reps' scaled times.  With
``--trace 1`` untraced and traced reps alternate: untraced reps give the
overhead baseline, traced reps the per-layer accounting.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from .hostspeed import reference, scale
from .layers import LayerTotals, Profiler, calibrate, corrected_self_ns
from .workloads import WORKLOADS, Session, host_time

ORACLES = Path(__file__).with_name("oracles.json")

#: Inputs the oracle digests are pinned at.
PINNED_SEED = 0
PINNED_SCALE = "bench"


def pinned_checks(name: str, exact: dict, seed: int, scale: str) -> list[tuple[str, bool]]:
    """Compare outputs against ``oracles.json`` at the pinned inputs."""
    if seed != PINNED_SEED or scale != PINNED_SCALE or not ORACLES.exists():
        return []
    pins = json.loads(ORACLES.read_text()).get(name, {})
    return [(f"pinned {key}", exact.get(key) == value) for key, value in sorted(pins.items())]


def layer_report(traced, cal: dict) -> dict:
    """Raw and calibrated per-layer table, plus how much of the traced
    wall time the self times account for."""
    n = len(traced)
    merged: dict[tuple[str, str], LayerTotals] = {}
    for rep in traced:
        for phase, layers in rep.layers.items():
            for layer, t in layers.items():
                acc = merged.setdefault((phase, layer), LayerTotals())
                acc.total_ns += t.total_ns
                acc.self_ns += t.self_ns
                acc.calls += t.calls
                acc.child_calls += t.child_calls
    wall_ns = sum(rep.wall for rep in traced) * 1e9
    rows = [
        {
            "phase": phase,
            "layer": layer,
            "calls": t.calls / n,
            "total_s": t.total_ns / n / 1e9,
            "self_s": t.self_ns / n / 1e9,
            "self_corrected_s": corrected_self_ns(t, cal) / n / 1e9,
            "self_share": t.self_ns / wall_ns if wall_ns else 0.0,
        }
        for (phase, layer), t in sorted(merged.items(), key=lambda kv: -kv[1].self_ns)
    ]
    covered = sum(t.self_ns for t in merged.values())
    estimated = sum(t.self_ns - corrected_self_ns(t, cal) for t in merged.values())
    return {
        "rows": rows,
        "coverage": covered / wall_ns if merged and wall_ns else None,
        "calibration": cal,
        # What the calibration says the wrappers cost per rep; compare
        # with measured_overhead_s (traced minus untraced rep wall).
        "estimated_overhead_s": estimated / n / 1e9,
    }


def measure(workload, seconds: float, trace: bool, trace_path: Path) -> dict:
    """Run reps for ``seconds`` and summarize them (see module doc)."""
    session = None
    calibrations = []
    if trace:
        from repro.obs import Tracer

        session = Session(Profiler(), Tracer(), time.perf_counter())
        for pid, name in ((1, f"workload:{workload.name}"), (2, "sweep points"), (3, "service jobs")):
            session.tracer.process(pid, name)
    plain, traced, spent, scaled = [], [], [], []
    start = time.perf_counter()
    references = [reference(workload.processes)]
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            # The host's speed drifts, so calibrate next to each traced rep.
            calibrations.append(calibrate(rounds=3))
        t0 = time.perf_counter()
        if use_trace:
            with session.profiler.installed(workload.hooks):
                rep = workload.rep(session)
        else:
            rep = workload.rep(None)
        t1 = time.perf_counter()
        spent.append(t1 - t0)
        (traced if use_trace else plain).append(rep)
        references.append(reference(workload.processes))
        if not use_trace:
            scaled.append(scale(rep.wall, *references[-2:]))
        if session:
            label = "traced" if use_trace else "untraced"
            session.span(f"rep{len(spent) - 1} {label}", "rep", 1, 0, t0, t1)
        ready = plain and (traced or not trace)
        if ready and (t1 - start) + statistics.median(spent) > seconds:
            break
    workload.finish()

    reps = plain + traced
    failures = [f for rep in reps for f in rep.failures]
    checks = workload.checks(plain[0].exact)
    if workload.repeatable:
        checks.append(
            ("outputs identical across reps, traced and untraced",
             all(rep.exact == plain[0].exact for rep in reps))
        )
    checks += pinned_checks(workload.name, plain[0].exact, workload.seed, workload.scale)
    walls = [rep.wall for rep in plain]
    result = {
        "reps": {"untraced": walls, "untraced_scaled": scaled, "traced": [rep.wall for rep in traced],
                 "references": references},
        "attempted": sum(rep.ops for rep in reps) + len(checks),
        "failed": len(failures) + sum(not ok for _, ok in checks),
        "failures": failures[:20],
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "exact": plain[0].exact,
        "work": list(workload.work),
        "end_to_end": {"wall_s": statistics.median(scaled), "peak_rss_mb": workload.peak_rss_mb()},
    }
    if trace:
        cal = {key: statistics.median(c[key] for c in calibrations) for key in calibrations[0]}
        per_layer = workload.per_layer(plain, traced, cal)
        traced_wall = host_time(rep.wall for rep in traced)
        per_layer["trace.overhead_frac"] = traced_wall / host_time(walls) - 1
        result["per_layer"] = per_layer
        result["trace"] = layer_report(traced, cal)
        result["trace"]["measured_overhead_s"] = traced_wall - host_time(walls)
        session.tracer.write(trace_path)
        result["trace"]["spans"] = str(trace_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr  # nothing the library prints may corrupt the protocol
    cls = WORKLOADS[args.workload]
    # The host-speed reference runs here, on the vCPU that does the
    # set-up; the harness subtracts its time from the set-up time.
    start = time.perf_counter()
    before = reference(cls.setup_processes)
    in_reference = time.perf_counter() - start
    workload = cls(args.seed, Path(args.workdir), args.scale)
    start = time.perf_counter()
    after = reference(cls.setup_processes)
    in_reference += time.perf_counter() - start
    try:
        protocol.write(f"READY {before!r} {after!r} {in_reference!r}\n")
        protocol.flush()
        if sys.stdin.readline().strip() != "go":
            return 0
        result = measure(workload, args.seconds, bool(args.trace), Path(args.trace_out))
        protocol.write(json.dumps(result) + "\n")
        protocol.flush()
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
