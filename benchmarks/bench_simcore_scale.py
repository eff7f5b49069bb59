"""Million-request scale baseline for the streaming serving core.

The tentpole claim of the streaming rework is that simulation memory is
O(active requests + histogram buckets), not O(total requests): a
million-request run must fit in roughly the same footprint as a
hundred-thousand-request run.  This bench measures exactly that —
each scale runs in a **fresh subprocess** (``--measure``), because peak
RSS is a process-lifetime high-water mark and scenarios measured in one
process would alias each other's peaks.

Default run rewrites ``BENCH_simcore_scale.json`` with, per scale,
throughput (requests/s of sim wall-clock) and peak RSS, plus the
100k→1M RSS ratio — which must stay ≤ ``MAX_RSS_RATIO`` (2×, the
sublinear-memory acceptance gate) or the bench itself fails.

``--check`` is the CI memory gate: it re-runs only the 100k-request
streaming scenario and exits nonzero if its peak RSS exceeds the
committed ``check.max_peak_rss_bytes`` bound.  The bound is generous
(machine-independent headroom over the measured value); it exists to
catch reintroduced O(total-requests) state, not allocator noise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _report import default_meta, print_table, write_json

SCALES = (100_000, 1_000_000)
#: Acceptance gate: peak RSS may at most double from 100k → 1M requests.
MAX_RSS_RATIO = 2.0


def run_scale(num_requests: int) -> dict:
    """One streaming serving run at ``num_requests``; perf + RSS metrics.

    Only meaningful in a fresh process (see module docstring) — use
    :func:`measure_in_subprocess` unless you *are* the subprocess.
    """
    from repro.core.proc import peak_rss_bytes
    from repro.serving import ServingSimulator, SimConfig, WorkloadSpec

    config = SimConfig(
        workload=WorkloadSpec(request_rate=8.0, num_requests=num_requests),
        mode="disaggregated",
        prefill_gpus=2,
        decode_gpus=6,
        seed=0,
    )
    simulator = ServingSimulator(config)
    start = time.perf_counter()
    report = simulator.run()
    elapsed = time.perf_counter() - start
    return {
        "requests": num_requests,
        "completed": report.completed,
        "tokens_generated": report.tokens_generated,
        "sim_duration_s": report.duration,
        "elapsed_s": elapsed,
        "requests_per_s": report.completed / elapsed,
        "ttft_p99_ms": report.ttft.p99 * 1e3,
        "tpot_p99_ms": report.tpot.p99 * 1e3,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def measure_in_subprocess(num_requests: int) -> dict:
    """Run :func:`run_scale` in a fresh interpreter and parse its JSON."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(num_requests)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def _rows(scales: dict) -> list[list[object]]:
    rows = []
    for label, record in scales.items():
        for key in ("elapsed_s", "requests_per_s", "peak_rss_bytes"):
            rows.append([label, key, round(record[key], 3)])
    return rows


def _baseline_path() -> Path:
    return Path(__file__).resolve().parent / "BENCH_simcore_scale.json"


def _check() -> int:
    """CI memory gate: 100k streaming run under the committed RSS bound."""
    baseline = json.loads(_baseline_path().read_text())
    gate = baseline["check"]
    requests = int(gate["requests"])
    bound = int(gate["max_peak_rss_bytes"])
    record = measure_in_subprocess(requests)
    rss = record["peak_rss_bytes"]
    print(
        f"{requests} streaming requests: peak RSS "
        f"{rss / 1e6:.1f} MB (bound {bound / 1e6:.1f} MB), "
        f"{record['requests_per_s']:.0f} req/s"
    )
    if record["completed"] != requests:
        print(f"completed {record['completed']} != {requests}")
        return 1
    if rss > bound:
        print("peak RSS exceeds the committed bound: O(total-requests) "
              "state has crept back into the streaming path")
        return 1
    print("memory gate ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--measure",
        type=int,
        metavar="N",
        help="internal: run one N-request scenario and print JSON metrics",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the 100k memory gate against the committed baseline",
    )
    args = parser.parse_args(argv)

    if args.measure is not None:
        print(json.dumps(run_scale(args.measure)))
        return 0
    if args.check:
        return _check()

    scales = {str(n): measure_in_subprocess(n) for n in SCALES}
    print_table(
        "serving-core scale (streaming mode)", ["scale", "metric", "value"], _rows(scales)
    )
    small, large = (scales[str(n)] for n in SCALES)
    ratio = large["peak_rss_bytes"] / small["peak_rss_bytes"]
    print(f"\npeak RSS {SCALES[0]} -> {SCALES[1]} requests: {ratio:.2f}x")
    if ratio > MAX_RSS_RATIO:
        print(f"FAIL: RSS ratio {ratio:.2f} exceeds {MAX_RSS_RATIO}x — memory "
              "is not sublinear in request count")
        return 1
    # The committed gate bound: generous headroom over the measured 100k
    # footprint so machine variance never trips CI, while any return to
    # O(total-requests) state (hundreds of MB at 100k) still does.
    bound = 2 * small["peak_rss_bytes"]
    write_json(
        "simcore_scale",
        {
            "scales": scales,
            "rss_ratio": ratio,
            "check": {"requests": SCALES[0], "max_peak_rss_bytes": bound},
        },
        meta=default_meta(
            scenario="streaming disaggregated 2+6 @ 8 req/s (stable region), seed 0",
            isolation="one fresh subprocess per scale (RSS is a high-water mark)",
        ),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
