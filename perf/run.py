"""One benchmark run of one workload.

Usage (from the repository root)::

    python3 perf/run.py --workload serve-stream --seed 0 --seconds 20 --trace 0

The workload process (``perf/worker.py``) is spawned ``SETUPS`` times;
each spawn is timed until its inputs are built, less the host-speed
reference (``perf/hostspeed.py``) it runs before and after set-up, and
``setup_s`` is the median of the scaled times.  The last spawn then
measures for ``--seconds``.  With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` its
per-layer metrics (layers a workload does not exercise read 0).

Every metric is printed with its unit, the full record (environment
block included) is written to ``perf/out/runs/``, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the run could
not be made (for example, without the ``repro`` sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # run as a script: make the perf package importable
    sys.path.insert(0, str(ROOT))

from perf import env as environment  # noqa: E402
from perf import hostspeed  # noqa: E402
from perf.workloads import with_pythonpath  # noqa: E402

OUT = ROOT / "perf" / "out"

#: Workload-process spawns per run; their set-up times summarize to setup_s.
SETUPS = 5

#: Whole-run budget in seconds: a run must end within 180 s.
BUDGET_S = 170.0


class RunFailed(RuntimeError):
    """The run could not be made (as opposed to producing wrong output)."""


def record_name(workload: str, scale: str, seed: int, trace: int) -> str:
    return f"{workload}-{scale}-seed{seed}-trace{trace}.json"


def _wait_ready(proc: subprocess.Popen, timeout: float) -> tuple[float, float, float]:
    """The worker's ``READY`` line: references before and after set-up,
    and the seconds they took (see ``perf/worker.py``)."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, timeout))
    fields = (proc.stdout.readline() if ready else "").split()
    if len(fields) != 4 or fields[0] != "READY":
        raise RunFailed("the workload process did not finish set-up")
    return tuple(map(float, fields[1:]))


def spawn_and_measure(args, workdir: Path, deadline: float) -> tuple[list[float], list[float], dict]:
    """Set the workload up ``SETUPS`` times; measure in the last spawn.

    Returns the raw and the scaled set-up times, and the measurement.
    """
    setups: list[float] = []
    scaled: list[float] = []
    for index in range(SETUPS):
        spawn_dir = workdir / f"spawn{index}"
        spawn_dir.mkdir(parents=True)
        command = [
            sys.executable, "-m", "perf.worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--workdir", str(spawn_dir),
            "--trace-out", str((OUT / f"{args.workload}.trace.json").relative_to(ROOT)),
        ]
        start = time.perf_counter()
        # Its own process group, so a kill also reaches the processes it
        # started (the service's server, sweep workers).
        proc = subprocess.Popen(
            command, cwd=ROOT, env=with_pythonpath(ROOT / "src", ROOT), start_new_session=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            before, after, in_reference = _wait_ready(proc, deadline - time.monotonic())
            setups.append(time.perf_counter() - start - in_reference)
            scaled.append(hostspeed.scale(setups[-1], before, after))
            last = index == SETUPS - 1
            stdout, _ = proc.communicate("go\n" if last else "quit\n",
                                         timeout=max(1.0, deadline - time.monotonic()))
        except (RunFailed, subprocess.TimeoutExpired):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RunFailed(f"the workload process exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed("the workload process printed no result")
    return setups, scaled, json.loads(lines[-1])


def select_metrics(bench: dict, trace: bool, values: dict) -> dict:
    """The run's metrics, named and unit-tagged as ``BENCHMARK.json`` lists them."""
    specs = bench["per_layer" if trace else "end_to_end"]
    names = {spec["name"] for spec in specs}
    unknown = sorted(set(values) - names)
    if unknown:
        raise RunFailed(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(names - set(values))
    if missing and not trace:
        raise RunFailed(f"end-to-end metrics not measured: {missing}")
    # A layer the workload never enters did no work: it reads 0.
    return {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in specs
    }


def print_report(args, metrics: dict, result: dict, setups: list[float]) -> None:
    print(f"== {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"{'traced' if args.trace else 'untraced'}  reps "
          f"{len(result['reps']['untraced'])}+{len(result['reps']['traced'])}")
    for name, metric in metrics.items():
        if args.trace and metric["value"] == 0.0:
            continue
        extra = ""
        if name == "setup_s":
            extra = f"   (scaled; raw median {statistics.median(setups):.4g} s)"
        if name == "wall_s":
            work, unit = result["work"]
            raw = statistics.median(result["reps"]["untraced"])
            extra = (f"   (scaled; raw median {raw:.4g} s; "
                     f"{work / metric['value']:,.1f} {unit}/s at {work:,} {unit})")
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{extra}")
    trace = result.get("trace")
    if trace and trace["rows"]:
        print("  layer self time per rep (raw / calibrated), share of traced wall:")
        for row in trace["rows"]:
            print(f"    {row['phase']:<10} {row['layer']:<34} {row['calls']:>11,.0f} calls "
                  f"{row['self_s']:>9.4f} s {row['self_corrected_s']:>9.4f} s "
                  f"{row['self_share']:>7.1%}")
        print(f"  self times cover {trace['coverage']:.1%} of traced wall; wrapper "
              f"{trace['calibration']['per_call_ns']:.0f} ns/call, estimated overhead "
              f"{trace['estimated_overhead_s']:.3f} s/rep vs measured "
              f"{trace['measured_overhead_s']:.3f} s/rep; spans {trace['spans']}")
    failed = [check["name"] for check in result["checks"] if not check["ok"]]
    print(f"  checks: {len(result['checks']) - len(failed)}/{len(result['checks'])} passed")
    for name in failed + result["failures"]:
        print(f"    FAILED {name}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="One benchmark run of one workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench",
                        help="smoke: tiny inputs for the harness tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left behind by a killed run
    workdir.mkdir(parents=True)
    try:
        env = environment.environment(ROOT, workdir)
        setups, scaled_setups, result = spawn_and_measure(args, workdir, deadline)
        values = (result["per_layer"] if args.trace
                  else {"setup_s": statistics.median(scaled_setups), **result["end_to_end"]})
        metrics = select_metrics(bench, bool(args.trace), values)
    except (RunFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perf: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = result["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "setup_s_samples": setups,
        "setup_s_scaled": scaled_setups,
        "metrics": metrics,
        "correct": correct,
        "result": result,
        "environment": environment.finish(env),
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / record_name(args.workload, args.scale, args.seed, args.trace)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(args, metrics, result, setups)
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
