"""Co-design optimizer vs exhaustive grids: three paper rediscoveries.

Each scenario runs :func:`repro.optimize.run_search` *and* the
exhaustive grid at full fidelity, then gates three things: the search
frontier is **byte-identical** to the grid frontier, the search
trajectory is byte-identical at workers 1 vs 4 (with a warm re-search
evaluating zero points), and the search reached that frontier with a
fraction of the grid's evaluated **simulated seconds** (record-derived,
machine-independent):

* **sec23** (§2.3, the headline ≥10× gate) — colocated vs disaggregated
  prefill/decode × arrival rate × GPU split on the serving simulator,
  ``maximize goodput_tokens_per_s s.t. tpot_p99<=0.015``.  Rediscovers
  the disaggregation crossover: colocated serving falls off the SLO at
  a low arrival rate while a rebalanced disaggregated split sustains
  4× higher rates.
* **sec43** (§4.3) — node-limited routing on the EP dispatch stage,
  ``minimize stage_time_s s.t. score_retention>=0.995``.  Rediscovers
  the paper's cap of M=4 nodes per token: the cheapest dispatch that
  keeps ≳99.5% of unrestricted routing's affinity mass.
* **sec51** (§5.1) — topology cost search over fat-tree variants,
  ``pareto(min:cost_per_endpoint_kusd, max:endpoints)`` at ≥16 384
  endpoints.  Rediscovers MPFT: it stays on the cost/scale frontier
  while the three-layer fat tree is dominated (≈0.6× MPFT's per-
  endpoint cost advantage).

A final section micro-benches :meth:`SweepCache.get_many` (the batched
probe behind every search rung) against per-key ``get`` on warm hits
and on an all-miss frontier probe.

``BENCH_optimize.json`` is the committed baseline and holds only
deterministic fields (simulated seconds are pure functions of the
records); wall times and the ``get_many`` timings are printed, never
committed.  ``--check`` re-runs everything, re-asserts every gate, and
compares the payload exactly.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
from _report import check_parser, default_meta, gate, print_table

from repro.optimize import (
    FidelityLadder,
    SearchSpec,
    frontier_of,
    parse_objective,
    register_ladder,
    run_search,
)
from repro.sweep import SweepCache, SweepSpec, get_target, grid, register_target, run_sweep

# --------------------------------------------------------------- targets


@register_target("bench_sec23_serving")
def _sec23_target(config: dict, seed: int) -> dict:
    """Serving simulator with a coupled GPU split axis ("P+D")."""
    cfg = dict(config)
    prefill, decode = (int(x) for x in cfg.pop("gpu_split").split("+"))
    cfg.update(prefill_gpus=prefill, decode_gpus=decode)
    return get_target("serving")(cfg, seed)


register_ladder(
    "bench_sec23_serving",
    FidelityLadder(key="num_requests", rungs=(250, 2000, 8000), cost="duration_s"),
)


@register_target("bench_sec43_dispatch")
def _sec43_target(config: dict, seed: int) -> dict:
    """EP dispatch under node-limited routing on the 8-node MPFT cluster.

    ``score_retention`` is the affinity mass the limited top-k keeps
    relative to unrestricted top-k on the *same* score draws;
    ``stage_time_s`` is the simulated fabric time of the dispatch
    all-to-all (the fidelity cost).
    """
    from repro.comm.ep import EPConfig, EPDeployment, run_ep_stage
    from repro.model.routing import node_limited_topk, topk_routing
    from repro.network import build_mpft_cluster

    cfg = dict(config)
    cfg.pop("seed", None)
    max_groups = int(cfg.pop("max_groups"))
    tokens = int(cfg.pop("tokens"))
    if cfg:
        raise ValueError(f"unknown sec43 keys: {sorted(cfg)}")
    cluster = build_mpft_cluster(8)
    deployment = EPDeployment(
        cluster,
        EPConfig(
            num_routed_experts=256,
            experts_per_token=8,
            # max_groups == num nodes means unrestricted routing.
            max_nodes_per_token=max_groups if max_groups < 8 else 0,
        ),
    )
    decisions = deployment.route_tokens(tokens, np.random.default_rng(seed))
    replay = np.random.default_rng(seed)  # same draws, scored both ways
    row = np.arange(tokens)[:, None]
    kept = 0.0
    free = 0.0
    for _ in cluster.gpus():
        scores = replay.uniform(size=(tokens, 256))
        if max_groups < 8:
            limited = node_limited_topk(scores, 8, num_groups=8, max_groups=max_groups)
        else:
            limited = topk_routing(scores, 8)
        kept += float(scores[row, limited.expert_ids].sum())
        free += float(scores[row, topk_routing(scores, 8).expert_ids].sum())
    stage = run_ep_stage(deployment, decisions, "dispatch")
    return {
        "stage_time_s": stage.time,
        "score_retention": kept / free,
        "ib_gbytes_per_gpu": stage.ib_bytes_per_gpu / 1e9,
    }


register_ladder(
    "bench_sec43_dispatch",
    FidelityLadder(key="tokens", rungs=(128, 512, 2048), cost="stage_time_s"),
)


@register_target("bench_sec51_topology")
def _sec51_target(config: dict, seed: int) -> dict:
    """Closed-form Table-3 cost model of one topology variant."""
    del seed  # deterministic closed form
    from repro.network import (
        CostModel,
        DragonflyParams,
        dragonfly_spec,
        ft2_spec,
        ft3_spec,
        mpft_spec,
        slimfly_spec,
    )

    cfg = dict(config)
    cfg.pop("seed", None)
    cfg.pop("fidelity", None)  # single-rung ladder key: no knob to turn
    family, _, scale = cfg.pop("variant").partition(":")
    scale = int(scale)
    if cfg:
        raise ValueError(f"unknown sec51 keys: {sorted(cfg)}")
    spec = {
        "ft2": lambda: ft2_spec(scale),
        "mpft": lambda: mpft_spec(scale),
        "ft3": lambda: ft3_spec(scale),
        "sf": lambda: slimfly_spec(scale),
        "df": lambda: dragonfly_spec(DragonflyParams.balanced(scale, g=511)),
    }[family]()
    model = CostModel()
    return {
        "name": spec.name,
        "endpoints": spec.endpoints,
        "cost_musd": model.total(spec) / 1e6,
        "cost_per_endpoint_kusd": model.per_endpoint(spec) / 1e3,
    }


# ------------------------------------------------------------- scenarios

SEC23_SPACE = {
    "mode": ["colocated", "disaggregated"],
    "request_rate": [4, 8, 12, 16, 20, 24, 28, 32],
    "gpu_split": ["2+6", "3+5", "4+4"],
}
SEC23_BASE = {"prompt_mean": 512, "output_mean": 128, "gpu_cost_per_hour": 2.0}
SEC23_OBJECTIVE = "maximize goodput_tokens_per_s s.t. tpot_p99<=0.015"

SEC43_SPACE = {"max_groups": [1, 2, 3, 4, 6, 8]}
SEC43_OBJECTIVE = "minimize stage_time_s s.t. score_retention>=0.995"

SEC51_SPACE = {
    "variant": [
        "ft2:32", "ft2:48", "ft2:64",
        "mpft:32", "mpft:48", "mpft:64",
        "ft3:32", "ft3:48", "ft3:64",
        "sf:28", "df:64",
    ]
}
SEC51_OBJECTIVE = (
    "pareto(min:cost_per_endpoint_kusd, max:endpoints) s.t. endpoints>=16384"
)
SEC51_LADDER = FidelityLadder(key="fidelity", rungs=(1,), cost="1")


def _run_scenario(spec: SearchSpec, workers: int) -> dict:
    """Search (serial, parallel, warm) + exhaustive grid, fully gated."""
    objective = parse_objective(spec.objective)
    ladder = spec.resolved_ladder()
    with tempfile.TemporaryDirectory() as serial_dir, tempfile.TemporaryDirectory() as par_dir:
        serial = run_search(spec, workers=1, cache=SweepCache(serial_dir))
        cache = SweepCache(par_dir)
        parallel = run_search(spec, workers=workers, cache=cache)
        warm = run_search(spec, workers=workers, cache=cache)

        byte_identical = serial.to_json() == parallel.to_json()
        assert byte_identical, f"{spec.target}: workers 1 vs {workers} diverged"
        assert warm.evaluated == 0, f"{spec.target}: warm re-search recomputed points"
        assert warm.to_report_json() == parallel.to_report_json()

        # Exhaustive grid at the ladder's top fidelity, sharing the
        # search's cache (its top-rung points come back warm — exactly
        # the cross-tool reuse content addressing buys).
        grid_spec = SweepSpec(
            target=spec.target,
            points=grid(**spec.space, **{ladder.key: ladder.rungs[-1]}),
            base=spec.base,
            seed=spec.seed,
            version=spec.version,
        )
        full = run_sweep(grid_spec, workers=workers, cache=cache)

    grid_points = full.report_payload()["points"]
    grid_frontier = frontier_of(objective, grid_points)
    frontier_identical = json.dumps(grid_frontier, sort_keys=True) == json.dumps(
        list(parallel.frontier), sort_keys=True
    )
    assert frontier_identical, f"{spec.target}: search vs grid frontier diverged"

    grid_sim = sum(
        ladder.point_cost(p["result"], p["config"]) for p in grid_points
    )
    ratio = grid_sim / parallel.sim_seconds if parallel.sim_seconds else float("inf")
    return {
        "search": parallel,
        "grid_points": grid_points,
        "summary": {
            "space_points": parallel.grid_points,
            "evaluations": len(parallel.trajectory),
            "rungs": [
                {k: v for k, v in r.items() if k != "sim_seconds"}
                for r in parallel.rungs
            ],
            "search_sim_seconds": round(parallel.sim_seconds, 6),
            "grid_sim_seconds": round(grid_sim, 6),
            "sim_ratio": round(ratio, 2),
            "byte_identical": byte_identical,
            "frontier_identical": frontier_identical,
            "warm_evaluated": warm.evaluated,
        },
        "timings": {
            "search_wall_s": round(parallel.wall_time, 2),
            "grid_wall_s": round(full.wall_time, 2),
        },
    }


def _max_feasible_rate(objective, points, mode: str) -> float | None:
    rates = [
        p["config"]["request_rate"]
        for p in points
        if p["config"]["mode"] == mode
        and isinstance(p.get("result"), dict)
        and objective.feasible(p["result"], p["config"])
    ]
    return max(rates) if rates else None


def run_bench(workers: int) -> tuple[dict, dict]:
    """The deterministic payload and, per section, its wall-clock timings."""
    # -- §2.3: the headline ≥10× scenario --------------------------------
    sec23 = _run_scenario(
        SearchSpec(
            target="bench_sec23_serving",
            objective=SEC23_OBJECTIVE,
            space=SEC23_SPACE,
            base=SEC23_BASE,
            seed=3,
            eta=8,
        ),
        workers,
    )
    objective = parse_objective(SEC23_OBJECTIVE)
    winner = sec23["search"].frontier[0]
    colocated_max = _max_feasible_rate(objective, sec23["grid_points"], "colocated")
    disaggregated_max = _max_feasible_rate(
        objective, sec23["grid_points"], "disaggregated"
    )
    sec23["summary"].update(
        winner={k: winner["config"][k] for k in ("mode", "request_rate", "gpu_split")},
        winner_goodput_tokens_per_s=round(winner["metrics"]["goodput_tokens_per_s"], 1),
        colocated_max_feasible_rate=colocated_max,
        disaggregated_max_feasible_rate=disaggregated_max,
    )
    rediscovered_23 = (
        winner["config"]["mode"] == "disaggregated"
        and colocated_max is not None
        and disaggregated_max is not None
        and disaggregated_max > colocated_max
    )
    assert rediscovered_23, "sec23: disaggregation crossover not rediscovered"
    assert sec23["summary"]["sim_ratio"] >= 10, (
        f"sec23: sim-seconds ratio {sec23['summary']['sim_ratio']}x below 10x"
    )

    # -- §4.3: node-limited routing --------------------------------------
    sec43 = _run_scenario(
        SearchSpec(
            target="bench_sec43_dispatch",
            objective=SEC43_OBJECTIVE,
            space=SEC43_SPACE,
            seed=3,
            eta=3,
        ),
        workers,
    )
    winner43 = sec43["search"].frontier[0]
    by_groups = {
        p["config"]["max_groups"]: p["result"] for p in sec43["grid_points"]
    }
    dispatch_speedup = (
        by_groups[8]["stage_time_s"] / by_groups[4]["stage_time_s"]
    )
    sec43["summary"].update(
        winner_max_groups=winner43["config"]["max_groups"],
        winner_score_retention=round(winner43["record"]["score_retention"], 4),
        unrestricted_vs_m4_dispatch=round(dispatch_speedup, 2),
    )
    rediscovered_43 = winner43["config"]["max_groups"] == 4
    assert rediscovered_43, "sec43: paper's M=4 node cap not rediscovered"

    # -- §5.1: MPFT on the cost/scale frontier ---------------------------
    sec51 = _run_scenario(
        SearchSpec(
            target="bench_sec51_topology",
            objective=SEC51_OBJECTIVE,
            space=SEC51_SPACE,
            seed=0,
            eta=4,
            ladder=SEC51_LADDER,
        ),
        workers,
    )
    frontier_names = sorted(e["record"]["name"] for e in sec51["search"].frontier)
    by_name = {p["result"]["name"]: p["result"] for p in sec51["grid_points"]}
    mpft_vs_ft3 = (
        by_name["MPFT"]["cost_per_endpoint_kusd"]
        / by_name["FT3"]["cost_per_endpoint_kusd"]
    )
    sec51["summary"].update(
        frontier_names=frontier_names,
        mpft_vs_ft3_cost_per_endpoint=round(mpft_vs_ft3, 3),
    )
    rediscovered_51 = "MPFT" in frontier_names and "FT3" not in frontier_names
    assert rediscovered_51, "sec51: MPFT cost advantage over FT3 not rediscovered"

    # -- aggregate gates -------------------------------------------------
    search_sim = sum(
        s["summary"]["search_sim_seconds"] for s in (sec23, sec43, sec51)
    )
    grid_sim = sum(s["summary"]["grid_sim_seconds"] for s in (sec23, sec43, sec51))
    rediscoveries = sum((rediscovered_23, rediscovered_43, rediscovered_51))
    assert rediscoveries >= 2, f"only {rediscoveries} paper choices rediscovered"
    aggregate = {
        "search_sim_seconds": round(search_sim, 6),
        "grid_sim_seconds": round(grid_sim, 6),
        "sim_ratio": round(grid_sim / search_sim, 2),
        "rediscoveries": rediscoveries,
    }
    assert aggregate["sim_ratio"] >= 10, (
        f"aggregate sim-seconds ratio {aggregate['sim_ratio']}x below 10x"
    )

    get_many, get_many_timed = _bench_get_many()
    payload = {
        "workers": workers,
        "sec23": sec23["summary"],
        "sec43": sec43["summary"],
        "sec51": sec51["summary"],
        "aggregate": aggregate,
        "get_many": get_many,
    }
    timings = {
        "sec23": sec23["timings"],
        "sec43": sec43["timings"],
        "sec51": sec51["timings"],
        "get_many": get_many_timed,
    }
    return payload, timings


def _bench_get_many() -> tuple[dict, dict]:
    """Warm-hit and all-miss probes: per-key ``get`` vs ``get_many``."""
    spec = SweepSpec(
        target="bench_sec51_topology",
        points=grid(variant=SEC51_SPACE["variant"], fidelity=1),
        seed=0,
    )
    with tempfile.TemporaryDirectory() as root:
        run_sweep(spec, cache=SweepCache(root))
        warm_keys = [spec.key(c) for c in spec.configs()] * 40  # 440 warm probes
        miss_keys = [f"{i:064x}" for i in range(4096)]  # content-addressed shape

        def timed(fn):
            start = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - start

        # One cache per side, built outside the timer: the timings compare
        # probing, not ``SweepCache`` construction.
        per_key, batched = SweepCache(root), SweepCache(root)
        per_key_warm, per_key_warm_s = timed(lambda: {k: per_key.get(k) for k in warm_keys})
        batched_warm, batched_warm_s = timed(lambda: batched.get_many(warm_keys))
        per_key_miss, per_key_miss_s = timed(lambda: {k: per_key.get(k) for k in miss_keys})
        batched_miss, batched_miss_s = timed(lambda: batched.get_many(miss_keys))

    assert batched_warm == per_key_warm and batched_miss == per_key_miss
    exact = {
        "warm_keys": len(warm_keys),
        "miss_keys": len(miss_keys),
        "identical_results": True,
    }
    timed = {
        "per_key_warm_s": round(per_key_warm_s, 4),
        "batched_warm_s": round(batched_warm_s, 4),
        "per_key_miss_s": round(per_key_miss_s, 4),
        "batched_miss_s": round(batched_miss_s, 4),
        "miss_speedup": round(per_key_miss_s / batched_miss_s, 1)
        if batched_miss_s
        else float("inf"),
    }
    return exact, timed


def main(argv: list[str] | None = None) -> int:
    parser = check_parser(__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4, help="fan-out width")
    args = parser.parse_args(argv)

    payload, timings = run_bench(args.workers)
    rows = [
        [section, k, v]
        for section in ("sec23", "sec43", "sec51", "aggregate", "get_many")
        for k, v in {**payload[section], **timings.get(section, {})}.items()
        if not isinstance(v, (list, dict))
    ]
    print_table(
        f"co-design optimizer vs exhaustive grids, {payload['workers']} workers",
        ["scenario", "metric", "value"],
        rows,
    )

    return gate(
        "optimize",
        payload,
        default_meta(
            sec23="mode x rate{4..32} x split{2+6,3+5,4+4}, ladder 250/2000/8000 req, eta 8, seed 3",
            sec43="max_groups{1,2,3,4,6,8}, ladder 128/512/2048 tokens, eta 3, seed 3",
            sec51="11 topology variants, single-rung cost model, seed 0",
        ),
        args.check,
    )


if __name__ == "__main__":
    sys.exit(main())
