"""Multi-fidelity successive halving + best-first frontier search.

:func:`run_search` finds the Pareto frontier of a declared config space
without evaluating the full grid at full fidelity:

1. **Rung 0 (cheap, wide)** — the initial population (the whole space,
   or a seeded subsample via ``SearchSpec.initial``) is evaluated at
   the ladder's cheapest fidelity.  When ``initial`` subsamples, a
   best-first expansion loop then repeatedly evaluates the ±1
   grid-neighbors of the current non-dominated set until no new
   neighbor appears (or the budget runs out) — the frontier grows
   toward promising regions instead of covering the grid uniformly.
2. **Promotion** — candidates are ranked by non-dominated fronts
   (feasible first, each front ordered by objective vector then
   canonical config), and the top ``ceil(n/eta)`` — *always including
   the entire first front*, so the surviving frontier is never
   truncated by the promotion quota — climb to the next rung.
3. **Repeat** until the top rung; the reported frontier is read
   exclusively from evaluations at the highest rung reached.

Every evaluation is routed through :func:`repro.sweep.run_sweep`, one
call per batch, and every batch that forks borrows from the one
:class:`repro.sweep.WorkerSet` the search owns, so a search forks its
workers once rather than once per batch.  The search inherits the
engine's guarantees wholesale: per-point
content-derived seeds and worker-count byte-identity (the trajectory
is a pure function of root seed + spec — pinned at workers 1 vs 4 by
``tests/test_optimize.py``), content-addressed caching (a re-search is
warm; an exhaustive grid run after a search reuses its top-rung
points), and supervised execution for hostile targets.

**Accounting is simulated seconds, not wall seconds.**  Each
evaluation's cost is the ladder's cost expression over the point's
record — a pure function of the result — so budget checks, the
per-rung accounting and the search-vs-grid ratio are identical whether
points were computed or cache-served, and :meth:`SearchResult.
report_payload` is byte-identical across cold, warm and resumed runs.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field

import repro

from ..core.rng import derive_seed
from ..obs.metrics import MetricsRegistry
from ..obs.summary import print_table
from ..obs.trace import NULL_TRACER, Tracer
from ..sweep import SweepCache, SweepSpec, WorkerSet, canonical_config, grid, run_sweep
from ..sweep.supervise import SupervisorPolicy
from .ladder import FidelityLadder, get_ladder
from .objective import Objective, parse_objective, pareto_front

__all__ = [
    "SearchResult",
    "SearchSpec",
    "frontier_of",
    "print_search_summary",
    "run_search",
]


@dataclass(frozen=True)
class SearchSpec:
    """One declared search: target, objective, space, fidelity plan.

    Attributes:
        target: Registered sweep target name.
        objective: Objective DSL text (:func:`parse_objective`).
        space: Named axes (``{"request_rate": [4, 8, 16], ...}``).
            Axis *names* are canonicalized (sorted) before grid
            enumeration, so two specs with the same content produce the
            same trajectory regardless of dict insertion order.  Axis
            *values* keep their declared order — neighbor expansion
            steps ±1 along it, so order values monotonically.
        base: Config shared by every point (never varied).
        seed: Root seed; per-point seeds derive from it content-wise.
        eta: Promotion divisor — ``ceil(n/eta)`` survive each rung.
        rungs: Keep only the last N ladder rungs (None = all).
        budget_s: Simulated-seconds budget; no new batch starts once
            spent (the batch in flight always completes).
        initial: Subsample size for the rung-0 population (None = the
            full space); triggers best-first neighbor expansion.
        ladder: Explicit fidelity ladder; defaults to the registered
            ladder of ``target`` (:func:`repro.optimize.get_ladder`).
        version: Package version baked into point cache keys.
        name: Optional label for reports.
    """

    target: str
    objective: str
    space: dict
    base: dict = field(default_factory=dict)
    seed: int = 0
    eta: int = 4
    rungs: int | None = None
    budget_s: float | None = None
    initial: int | None = None
    ladder: FidelityLadder | None = None
    version: str = repro.__version__
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.space:
            raise ValueError("a search needs at least one space axis")
        axes = {
            k: list(v) if isinstance(v, (list, tuple)) else [v]
            for k in sorted(self.space)
            for v in [self.space[k]]
        }
        if any(not values for values in axes.values()):
            raise ValueError("every space axis needs at least one value")
        object.__setattr__(self, "space", axes)
        object.__setattr__(self, "base", dict(self.base))
        if self.eta < 2:
            raise ValueError("eta must be >= 2")
        if self.initial is not None and self.initial < 1:
            raise ValueError("initial must be positive")

    def resolved_ladder(self) -> FidelityLadder:
        ladder = self.ladder if self.ladder is not None else get_ladder(self.target)
        ladder = ladder.truncated(self.rungs)
        if ladder.key in self.space or ladder.key in self.base:
            raise ValueError(
                f"fidelity key {ladder.key!r} cannot also be a search axis or base key"
            )
        return ladder


@dataclass(frozen=True)
class _Candidate:
    """One point's evaluation at one rung."""

    point: dict       # space-axis values only
    config: dict      # base + point + fidelity key (the sweep config)
    ckey: str         # canonical_config(point) — rung-independent identity
    seed: int
    key: str          # cache key at this rung
    record: dict
    values: tuple[float, ...] | None
    vector: tuple[float, ...] | None
    feasible: bool
    cost_s: float


def _rank(candidates: list[_Candidate]) -> list[_Candidate]:
    """Best-first deterministic order: non-dominated fronts of the
    feasible set (each front sorted by objective vector, then canonical
    config), then unscorable/infeasible candidates by canonical config."""
    feasible = [c for c in candidates if c.feasible and c.vector is not None]
    rest = sorted(
        (c for c in candidates if not (c.feasible and c.vector is not None)),
        key=lambda c: c.ckey,
    )
    order: list[_Candidate] = []
    pool = list(feasible)
    while pool:
        front_idx = set(pareto_front([c.vector for c in pool]))
        front = [c for i, c in enumerate(pool) if i in front_idx]
        order.extend(sorted(front, key=lambda c: (c.vector, c.ckey)))
        pool = [c for i, c in enumerate(pool) if i not in front_idx]
    return order + rest


def _first_front_size(candidates: list[_Candidate]) -> int:
    feasible = [c for c in candidates if c.feasible and c.vector is not None]
    return len(pareto_front([c.vector for c in feasible]))


def frontier_of(objective: Objective, points: list[dict]) -> list[dict]:
    """The non-dominated feasible frontier of payload-style points.

    ``points`` is the ``points`` list of a sweep/search payload (dicts
    with ``config``, ``seed`` and ``result``) — so the same helper
    computes a search's frontier and the frontier of an exhaustive
    grid's :meth:`~repro.sweep.SweepResult.report_payload`, making the
    two byte-comparable.  Entries are sorted by objective vector, then
    canonical config.
    """
    scored = []
    for p in points:
        record, config = p.get("result"), p["config"]
        if not isinstance(record, dict):
            continue
        if not objective.feasible(record, config):
            continue
        vector = objective.vector(record, config)
        if vector is None:
            continue
        scored.append((vector, p, objective.values(record, config)))
    front = pareto_front([vector for vector, _, _ in scored])
    entries = []
    for i in front:
        vector, p, values = scored[i]
        entries.append(
            (
                vector,
                canonical_config(p["config"]),
                {
                    "config": p["config"],
                    "seed": p["seed"],
                    "metrics": dict(zip(objective.metric_names(), values)),
                    "record": p["result"],
                },
            )
        )
    return [entry for _, _, entry in sorted(entries, key=lambda e: (e[0], e[1]))]


@dataclass(frozen=True)
class SearchResult:
    """Everything one search produced.

    Like :class:`~repro.sweep.SweepResult`, two documents:
    :meth:`payload` records cache provenance (``evaluated`` /
    ``cache_hits``), :meth:`report_payload` strips it — frontier,
    per-rung accounting and trajectory are pure functions of
    root seed + spec, byte-identical cold or warm and at any worker
    count.
    """

    target: str
    objective: str
    seed: int
    version: str
    eta: int
    ladder: dict
    space: dict
    rungs: tuple[dict, ...]
    trajectory: tuple[dict, ...]
    frontier: tuple[dict, ...]
    sim_seconds: float
    grid_points: int
    grid_sim_seconds: float
    stopped_early: bool
    evaluated: int
    cache_hits: int
    wall_time: float

    @property
    def speedup(self) -> float:
        """Estimated exhaustive-grid sim-seconds over search sim-seconds."""
        if self.sim_seconds <= 0.0:
            return math.inf if self.grid_sim_seconds > 0 else 1.0
        return self.grid_sim_seconds / self.sim_seconds

    def report_payload(self) -> dict:
        """The cache-independent search document (see class docstring)."""
        return {
            "target": self.target,
            "objective": self.objective,
            "seed": self.seed,
            "version": self.version,
            "eta": self.eta,
            "ladder": self.ladder,
            "space": self.space,
            "rungs": list(self.rungs),
            "trajectory": list(self.trajectory),
            "frontier": list(self.frontier),
            "sim_seconds": self.sim_seconds,
            "grid_points": self.grid_points,
            "grid_sim_seconds": self.grid_sim_seconds,
            "speedup": self.speedup,
            "stopped_early": self.stopped_early,
        }

    def payload(self) -> dict:
        """:meth:`report_payload` plus cache provenance counts."""
        return {
            **self.report_payload(),
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"

    def to_report_json(self) -> str:
        return json.dumps(self.report_payload(), indent=2, sort_keys=True) + "\n"


def run_search(
    spec: SearchSpec,
    *,
    workers: int = 1,
    cache: SweepCache | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    progress: bool = False,
    supervise: SupervisorPolicy | None = None,
) -> SearchResult:
    """Run one multi-fidelity search; see the module docstring.

    All keyword arguments are forwarded to the underlying
    :func:`repro.sweep.run_sweep` calls (one per batch per rung), so
    caching, tracing, metrics, progress lines and supervised execution
    behave exactly as they do for a plain sweep.  The batches share one
    worker set, closed when the search returns.
    """
    with WorkerSet() as worker_set:
        return _search(
            spec,
            workers=workers,
            cache=cache,
            tracer=tracer,
            metrics=metrics,
            progress=progress,
            supervise=supervise,
            worker_set=worker_set,
        )


def _search(
    spec: SearchSpec,
    *,
    workers: int,
    cache: SweepCache | None,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    progress: bool,
    supervise: SupervisorPolicy | None,
    worker_set: WorkerSet,
) -> SearchResult:
    tracer = NULL_TRACER if tracer is None else tracer
    objective = parse_objective(spec.objective)
    ladder = spec.resolved_ladder()
    axes = spec.space  # canonicalized by SearchSpec.__post_init__
    full = grid(**axes)
    ckeys_full = [canonical_config(p) for p in full]
    position = {ck: i for i, ck in enumerate(ckeys_full)}

    if spec.initial is not None and spec.initial < len(full):
        rng = random.Random(
            derive_seed(spec.seed, f"optimize/init/{len(full)}/{spec.initial}")
        )
        population = [full[i] for i in sorted(rng.sample(range(len(full)), spec.initial))]
    else:
        population = list(full)

    epoch = time.perf_counter()
    sim_seconds = 0.0
    evaluated = 0
    cache_hits = 0
    trajectory: list[dict] = []
    rung_infos: list[dict] = []
    stopped_early = False

    def over_budget() -> bool:
        return spec.budget_s is not None and sim_seconds >= spec.budget_s

    def evaluate_batch(rung: int, points: list[dict]) -> list[_Candidate]:
        nonlocal sim_seconds, evaluated, cache_hits
        fidelity = ladder.rungs[rung]
        sweep_spec = SweepSpec(
            target=spec.target,
            points=[{**p, ladder.key: fidelity} for p in points],
            base=spec.base,
            seed=spec.seed,
            version=spec.version,
            name=f"{spec.name or spec.target}:rung{rung}",
        )
        result = run_sweep(
            sweep_spec,
            workers=workers,
            cache=cache,
            tracer=tracer,
            metrics=metrics,
            progress=progress,
            supervise=supervise,
            worker_set=worker_set,
        )
        evaluated += result.evaluated
        cache_hits += result.cache_hits
        out = []
        for point, pr in zip(points, result.points):
            record = pr.result or {}
            cost = ladder.point_cost(record, pr.config)
            sim_seconds += cost
            values = objective.values(record, pr.config)
            candidate = _Candidate(
                point=point,
                config=pr.config,
                ckey=canonical_config(point),
                seed=pr.seed,
                key=pr.key,
                record=record,
                values=values,
                vector=objective.vector(record, pr.config),
                feasible=objective.feasible(record, pr.config),
                cost_s=cost,
            )
            out.append(candidate)
            trajectory.append(
                {
                    "rung": rung,
                    "config": pr.config,
                    "seed": pr.seed,
                    "key": pr.key,
                    "feasible": candidate.feasible,
                    "values": list(values) if values is not None else None,
                    "cost_s": cost,
                }
            )
        return out

    def neighbors_of(front: list[_Candidate], seen: set[str]) -> list[dict]:
        """±1 grid steps along every axis of every frontier candidate,
        in deterministic (frontier-rank, axis, direction) order."""
        out, out_keys = [], set()
        for candidate in front:
            for axis, values in axes.items():
                at = values.index(candidate.point[axis])
                for step in (-1, 1):
                    j = at + step
                    if not 0 <= j < len(values):
                        continue
                    neighbor = {**candidate.point, axis: values[j]}
                    ck = canonical_config(neighbor)
                    if ck in seen or ck in out_keys:
                        continue
                    out_keys.add(ck)
                    out.append(neighbor)
        return out

    # ---- rung 0: wide evaluation + best-first neighbor expansion ----
    by_ckey: dict[str, _Candidate] = {}
    batch = population
    batches = 0
    rung_cost_start = sim_seconds
    while batch:
        for candidate in evaluate_batch(0, batch):
            by_ckey[candidate.ckey] = candidate
        batches += 1
        if over_budget():
            stopped_early = len(by_ckey) < len(full)
            break
        ranked = _rank(list(by_ckey.values()))
        front = ranked[: max(1, _first_front_size(ranked))]
        batch = neighbors_of(front, seen=set(by_ckey))

    candidates = sorted(by_ckey.values(), key=lambda c: position[c.ckey])
    rung_infos.append(
        {
            "rung": 0,
            "fidelity": ladder.rungs[0],
            "candidates": len(candidates),
            "batches": batches,
            "sim_seconds": sim_seconds - rung_cost_start,
        }
    )
    tracer.instant(
        "rung[0]", "optimize", 0, 0, 0.0,
        args={"fidelity": ladder.rungs[0], "candidates": len(candidates)},
    )

    # ---- successive halving up the ladder ----
    top_rung = 0
    for rung in range(1, len(ladder.rungs)):
        ranked = _rank(candidates)
        keep = max(1, math.ceil(len(ranked) / spec.eta))
        keep = max(keep, _first_front_size(ranked))  # never truncate the front
        promoted = ranked[:keep]
        rung_infos[-1]["promoted"] = len(promoted)
        if over_budget():
            stopped_early = True
            break
        rung_cost_start = sim_seconds
        candidates = evaluate_batch(rung, [c.point for c in promoted])
        top_rung = rung
        rung_infos.append(
            {
                "rung": rung,
                "fidelity": ladder.rungs[rung],
                "candidates": len(candidates),
                "batches": 1,
                "sim_seconds": sim_seconds - rung_cost_start,
            }
        )
        tracer.instant(
            f"rung[{rung}]", "optimize", 0, 0, 0.0,
            args={"fidelity": ladder.rungs[rung], "candidates": len(candidates)},
        )

    # ---- frontier at the highest rung reached ----
    frontier = frontier_of(
        objective,
        [
            {"config": c.config, "seed": c.seed, "result": c.record}
            for c in candidates
        ],
    )

    # Exhaustive-grid estimate: the full space at top *ladder* fidelity,
    # priced at the mean observed cost per point at the highest rung
    # reached, linearly rescaled to top fidelity when the search stopped
    # below it.  Pure function of evaluated records — deterministic.
    mean_cost = (
        sum(c.cost_s for c in candidates) / len(candidates) if candidates else 0.0
    )
    scale = 1.0
    try:
        top_fid = float(ladder.rungs[-1])
        reached_fid = float(ladder.rungs[top_rung])
        if reached_fid > 0:
            scale = top_fid / reached_fid
    except (TypeError, ValueError):
        pass  # non-numeric fidelity values: no rescale
    grid_sim_seconds = mean_cost * scale * len(full)

    wall = time.perf_counter() - epoch
    if metrics is not None:
        metrics.counter("optimize.evaluations").inc(len(trajectory))
        metrics.counter("optimize.sim_seconds").inc(sim_seconds)
        metrics.counter("optimize.rungs").inc(len(rung_infos))
        metrics.counter("optimize.frontier_points").inc(len(frontier))

    return SearchResult(
        target=spec.target,
        objective=spec.objective,
        seed=spec.seed,
        version=spec.version,
        eta=spec.eta,
        ladder=ladder.asdict(),
        space={k: list(v) for k, v in axes.items()},
        rungs=tuple(rung_infos),
        trajectory=tuple(trajectory),
        frontier=tuple(frontier),
        sim_seconds=sim_seconds,
        grid_points=len(full),
        grid_sim_seconds=grid_sim_seconds,
        stopped_early=stopped_early,
        evaluated=evaluated,
        cache_hits=cache_hits,
        wall_time=wall,
    )


def print_search_summary(result: SearchResult) -> None:
    """Frontier + per-rung accounting through the shared table printer."""
    metric_names = list(result.frontier[0]["metrics"]) if result.frontier else []
    axis_names = list(result.space)
    rows = []
    for i, entry in enumerate(result.frontier):
        row: list[object] = [i]
        row.extend(entry["config"].get(k) for k in axis_names)
        row.extend(entry["metrics"][m] for m in metric_names)
        rows.append(row)
    print_table(
        f"search '{result.target}' frontier: {result.objective} "
        f"({result.sim_seconds:.1f} sim-s vs grid ~{result.grid_sim_seconds:.1f}, "
        f"~{result.speedup:.1f}x)",
        ["#", *axis_names, *metric_names],
        rows,
    )
    print_table(
        "rungs",
        ["rung", "fidelity", "candidates", "batches", "promoted", "sim_s"],
        [
            [
                r["rung"],
                r["fidelity"],
                r["candidates"],
                r["batches"],
                r.get("promoted", "-"),
                f"{r['sim_seconds']:.1f}",
            ]
            for r in result.rungs
        ],
    )
