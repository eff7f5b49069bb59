"""Run the benchmark over every workload and summarize the runs.

Usage (from the repository root)::

    PYTHONPATH=src python -m perf                        # each workload once
    PYTHONPATH=src python -m perf --repeat 10 --trace    # 10 seeds + a traced run
    PYTHONPATH=src python -m perf --workload serve-stream --seed 3
    PYTHONPATH=src python -m perf --selfcheck --repeat 10
    PYTHONPATH=src python -m perf --pin                  # re-pin the output oracles

Each run is ``perf/run.py`` in a fresh process, on seeds ``seed`` ..
``seed + repeat - 1``.  End-to-end metrics are summarized per workload
as median and quartiles with the sample count.  ``--selfcheck`` makes
two sets of those runs and reports, per metric and workload, each
set's relative spread (quartile distance over median) and whether the
second median stays within the metric's bound of the first; every
simulated count and digest must also be identical between the sets.
Summaries go to ``perf/out/results.json`` or ``perf/out/selfcheck.json``.
The exit code is non-zero when any run failed a check or the self-check
did not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from perf.run import ROOT, record_name

RUN = ROOT / "perf" / "run.py"
OUT = ROOT / "perf" / "out"
ORACLES = ROOT / "perf" / "oracles.json"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One ``perf/run.py`` run; its record, or ``None`` if it could not run."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode not in (0, 1):
        print(f"  {workload} seed {seed}: run failed (exit {proc.returncode})")
        return None
    record = json.loads((OUT / "runs" / record_name(workload, "bench", seed, int(trace))).read_text())
    record["stdout"] = proc.stdout
    shown = "  ".join(f"{name} {m['value']:.4g} {m['unit']}"
                      for name, m in record["metrics"].items() if not trace)
    verdict = "ok" if record["correct"] else "CHECK FAILED"
    print(f"  {workload} seed {seed}{' traced' if trace else ''}: {shown} [{verdict}]", flush=True)
    return record


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "rel_iqr": (q3 - q1) / median if median else 0.0}


def run_set(bench: dict, workloads: list[str], args) -> dict:
    """``repeat`` untraced runs per workload: records and per-metric summaries."""
    out = {}
    for workload in workloads:
        records = [run_once(workload, args.seed + i, bench["run_seconds"], False)
                   for i in range(args.repeat)]
        ok = [r for r in records if r is not None]
        summary = {
            spec["name"]: {"unit": spec["unit"],
                           **summarize([r["metrics"][spec["name"]]["value"] for r in ok])}
            for spec in bench["end_to_end"] if ok
        }
        out[workload] = {
            "summary": summary,
            "runs": [
                {"seed": r["seed"], "correct": r["correct"],
                 "metrics": {k: m["value"] for k, m in r["metrics"].items()},
                 "exact": r["result"]["exact"],
                 "loadavg": [r["environment"]["loadavg_start"], r["environment"]["loadavg_end"]]}
                for r in ok
            ],
            "complete": len(ok) == len(records) and all(r["correct"] for r in ok),
            "environment": ok[0]["environment"] if ok else None,
        }
    return out


def traced_runs(bench: dict, workloads: list[str], args) -> dict:
    out = {}
    for workload in workloads:
        record = run_once(workload, args.seed, bench["run_seconds"], True)
        if record is None:
            out[workload] = None
            continue
        print("\n".join(record["stdout"].splitlines()[:-1]))
        out[workload] = {
            "correct": record["correct"],
            "per_layer": {k: m["value"] for k, m in record["metrics"].items() if m["value"]},
            "layers": record["result"]["trace"],
        }
    return out


def print_summary(title: str, results: dict) -> None:
    print(f"\n{title}")
    for workload, entry in results.items():
        for name, s in entry["summary"].items():
            spread = f"  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['rel_iqr']:.1%}" if "q1" in s else ""
            print(f"  {workload:<15} {name:<12} median {s['median']:.4g} {s['unit']:<3}{spread}  n={s['n']}")


def selfcheck(bench: dict, a: dict, b: dict) -> tuple[dict, bool]:
    """Compare two sets of runs of the same code (see module doc)."""
    report, ok = {}, True
    bounds = {spec["name"]: spec for spec in bench["end_to_end"]}
    for workload in a:
        rows = {}
        for name, spec in bounds.items():
            sa, sb = a[workload]["summary"].get(name), b[workload]["summary"].get(name)
            if sa is None or sb is None:
                ok = False
                continue
            worse = (sb["median"] - sa["median"]) / sa["median"]
            if spec["better"] == "higher":
                worse = -worse
            spreads = [s.get("rel_iqr", 0.0) for s in (sa, sb)]
            row = {
                "bound": spec["bound"],
                "spread_a": spreads[0],
                "spread_b": spreads[1],
                "spread_ok": name == "setup_s" or max(spreads) <= spec["bound"],
                "spread_below_third": max(spreads) < spec["bound"] / 3,
                "second_worse_by": worse,
                "agree": worse <= spec["bound"],
            }
            ok = ok and row["spread_ok"] and row["agree"]
            rows[name] = row
        exact_a = {r["seed"]: r["exact"] for r in a[workload]["runs"]}
        exact_b = {r["seed"]: r["exact"] for r in b[workload]["runs"]}
        identical = exact_a == exact_b
        complete = a[workload]["complete"] and b[workload]["complete"]
        ok = ok and identical and complete
        report[workload] = {"metrics": rows, "exact_identical": identical, "all_correct": complete}
    return report, ok


def print_selfcheck(report: dict) -> None:
    print("\nself-check (spread = quartile distance / median; worse = second median vs first)")
    for workload, entry in report.items():
        print(f"  {workload}: outputs identical {entry['exact_identical']}, "
              f"all checks passed {entry['all_correct']}")
        for name, row in entry["metrics"].items():
            flag = "ok" if row["spread_ok"] and row["agree"] else "FAIL"
            print(f"    {name:<12} bound {row['bound']:.2f}  spread {row['spread_a']:.1%} / "
                  f"{row['spread_b']:.1%}  worse by {row['second_worse_by']:+.1%}  {flag}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perf", description="Run the benchmark.")
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, one seed each")
    parser.add_argument("--trace", action="store_true", help="also one traced run per workload")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--selfcheck", action="store_true", help="two sets of runs, compared")
    mode.add_argument("--pin", action="store_true", help="rewrite perf/oracles.json from seed 0")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    OUT.mkdir(parents=True, exist_ok=True)

    if args.pin:
        pins = json.loads(ORACLES.read_text()) if ORACLES.exists() else {}
        for workload in workloads:
            record = run_once(workload, 0, 1.0, False)
            if record is None:
                return 2
            pins[workload] = record["result"]["exact"]
        ORACLES.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        print(f"pinned {', '.join(workloads)} in {ORACLES.relative_to(ROOT)}")
        return 0

    if args.selfcheck:
        print("set A")
        a = run_set(bench, workloads, args)
        print("set B")
        b = run_set(bench, workloads, args)
        traced = traced_runs(bench, workloads, args) if args.trace else {}
        print_summary("set A", a)
        print_summary("set B", b)
        report, ok = selfcheck(bench, a, b)
        print_selfcheck(report)
        document = {"repeat": args.repeat, "seconds": bench["run_seconds"], "first_seed": args.seed,
                    "selfcheck": report, "ok": ok, "set_a": a, "set_b": b, "traced": traced}
        (OUT / "selfcheck.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"\nself-check {'holds' if ok else 'FAILED'}; details in perf/out/selfcheck.json")
        return 0 if ok else 1

    results = run_set(bench, workloads, args)
    traced = traced_runs(bench, workloads, args) if args.trace else {}
    print_summary(f"end-to-end metrics over {args.repeat} run(s) per workload", results)
    ok = all(entry["complete"] for entry in results.values()) and all(
        t is not None and t["correct"] for t in traced.values()
    )
    document = {"repeat": args.repeat, "seconds": bench["run_seconds"], "first_seed": args.seed,
                "results": results, "traced": traced, "ok": ok}
    (OUT / "results.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"\n{'all checks passed' if ok else 'SOME RUNS FAILED'}; details in perf/out/results.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
