"""Perf baseline for the two discrete-event hot loops.

Times the simulation cores themselves — not the modeled systems — on
three fixed scenarios:

* serving: 8k requests through the disaggregated prefill/decode
  simulator (the §2.3.1 configuration at a saturating arrival rate);
* flowsim: node-limited EP dispatch traffic (§4.3) — all-to-all within
  every leaf of an 8-leaf fat-tree, 1920 flows in 8 independent
  sharing components, the shape the incremental solver exploits;
* flowsim_ring: the shifted-ring all-to-all (shifts 1..15) over the
  same 8 x 16 hosts and 8 spines — 1920 flows in one coupled
  component, where every completion re-solves the whole fabric and
  the resumed progressive filling carries the cost.

Default run rewrites ``BENCH_simcore_perf.json`` (the committed file is
the baseline).  ``--check`` instead re-runs every scenario and exits
nonzero on a regression — the CI perf-smoke gate (:func:`check`).  The
deterministic leaves (``requests``, ``sim_steps``, ``flows``,
``makespan_ms``) must match the baseline exactly; ``elapsed_s`` may not
exceed ``(1 + rtol)`` times its baseline, one-sided, so a faster host
or a speedup never trips it.  The default tolerance is deliberately
generous (0.9 ⇒ fail above 1.9x): the gate exists to catch
algorithmic regressions, not machine-to-machine noise.  The ``*_per_s``
throughputs only restate ``1 / elapsed_s`` and are not gated.
Behavioral exactness is pinned separately by
``tests/test_simcore_golden.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
from _report import compare, default_meta, print_table, write_json

from repro.network import Flow, FlowSimulator, shifted_ring_flows, two_layer_fat_tree
from repro.obs import MetricsRegistry
from repro.serving import ServingSimulator, SimConfig, WorkloadSpec

SERVING_REQUESTS = 8000
FLOWSIM_LEAVES = 8
FLOWSIM_HOSTS_PER_LEAF = 16
RING_SPINES = 8
RING_SHIFTS = range(1, 16)


def run_serving(num_requests: int = SERVING_REQUESTS) -> dict:
    """8k-request disaggregated serving run; returns perf metrics."""
    config = SimConfig(
        workload=WorkloadSpec(request_rate=40.0, num_requests=num_requests),
        mode="disaggregated",
        prefill_gpus=2,
        decode_gpus=6,
        seed=0,
    )
    metrics = MetricsRegistry()
    simulator = ServingSimulator(config, metrics=metrics)
    start = time.perf_counter()
    report = simulator.run()
    elapsed = time.perf_counter() - start
    steps = metrics.counter("serving.decode_steps").value
    steps += metrics.counter("serving.prefill_batches").value
    return {
        "requests": report.completed,
        "sim_steps": steps,
        "elapsed_s": elapsed,
        "requests_per_s": report.completed / elapsed,
        "steps_per_s": steps / elapsed,
    }


def run_flowsim(
    num_leaves: int = FLOWSIM_LEAVES, hosts_per_leaf: int = FLOWSIM_HOSTS_PER_LEAF
) -> dict:
    """Leaf-local all-to-all event simulation; returns perf metrics."""
    topo = two_layer_fat_tree(
        num_leaves=num_leaves, hosts_per_leaf=hosts_per_leaf, num_spines=4
    )
    rng = np.random.default_rng(0)
    flows = []
    for leaf in range(num_leaves):
        hosts = [f"h{leaf * hosts_per_leaf + i}" for i in range(hosts_per_leaf)]
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    flows.append(
                        Flow(
                            src,
                            dst,
                            float(rng.uniform(64e6, 512e6)),
                            [src, f"FT2/leaf{leaf}", dst],
                            tag=f"leaf{leaf}",
                        )
                    )
    return _time_flows(topo, flows)


def run_flowsim_ring(
    num_leaves: int = FLOWSIM_LEAVES, hosts_per_leaf: int = FLOWSIM_HOSTS_PER_LEAF
) -> dict:
    """Shifted-ring all-to-all, one coupled component; returns perf metrics."""
    topo = two_layer_fat_tree(
        num_leaves=num_leaves, hosts_per_leaf=hosts_per_leaf, num_spines=RING_SPINES
    )
    return _time_flows(topo, shifted_ring_flows(topo, RING_SHIFTS, 64e6))


def _time_flows(topo, flows: list[Flow]) -> dict:
    """One event-mode simulation of ``flows``, timed."""
    simulator = FlowSimulator(topo)
    start = time.perf_counter()
    result = simulator.simulate(flows)
    elapsed = time.perf_counter() - start
    return {
        "flows": len(flows),
        "elapsed_s": elapsed,
        "flows_per_s": len(flows) / elapsed,
        "makespan_ms": result.makespan * 1e3,
    }


def check(current: dict, baseline: dict, rtol: float) -> list[str]:
    """Drift messages of ``current`` against ``baseline``; empty passes.

    Deterministic leaves compare exactly, ``elapsed_s`` fails only above
    ``(1 + rtol)`` x its baseline, and ``*_per_s`` leaves are skipped.
    """
    exact = {
        core: {
            key: value
            for key, value in record.items()
            if key != "elapsed_s" and not key.endswith("_per_s")
        }
        for core, record in baseline.items()
        if core != "_meta"
    }
    drifts = compare(current, exact, rtol=0.0)
    for core in exact:
        elapsed, base = current[core]["elapsed_s"], baseline[core]["elapsed_s"]
        if elapsed > (1 + rtol) * base:
            drifts.append(
                f"{core}.elapsed_s: {elapsed:g} s is over {1 + rtol:g}x "
                f"the baseline {base:g} s"
            )
    return drifts


def _rows(payload: dict) -> list[list[object]]:
    rows = []
    for core, record in payload.items():
        if core == "_meta":
            continue
        for key, value in record.items():
            rows.append([core, key, round(value, 3)])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--rtol",
        type=float,
        default=0.9,
        help="allowed elapsed_s slowdown for --check: fail above (1 + rtol)x "
        "the baseline (default: 0.9)",
    )
    args = parser.parse_args(argv)

    current = {
        "serving": run_serving(),
        "flowsim": run_flowsim(),
        "flowsim_ring": run_flowsim_ring(),
    }
    print_table(
        "simulation-core performance", ["core", "metric", "value"], _rows(current)
    )

    if args.check:
        path = Path(__file__).resolve().parent / "BENCH_simcore_perf.json"
        baseline = json.loads(path.read_text())
        drifts = check(current, baseline, rtol=args.rtol)
        if drifts:
            print(f"\nperf regression vs {path.name} (rtol {args.rtol}):")
            for message in drifts:
                print(f"  {message}")
            return 1
        print(f"\nexact leaves match and elapsed within {1 + args.rtol:g}x of {path.name}")
        return 0

    write_json(
        "simcore_perf",
        current,
        meta=default_meta(
            serving=f"{SERVING_REQUESTS} req @ 40/s, disaggregated 2+6, seed 0",
            flowsim=(
                f"leaf-local all-to-all, {FLOWSIM_LEAVES} leaves x "
                f"{FLOWSIM_HOSTS_PER_LEAF} hosts, seed 0"
            ),
            flowsim_ring=(
                f"shifted ring, shifts {RING_SHIFTS.start}..{RING_SHIFTS.stop - 1}, "
                f"{FLOWSIM_LEAVES} leaves x {FLOWSIM_HOSTS_PER_LEAF} hosts, "
                f"{RING_SPINES} spines, 64 MB"
            ),
        ),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
