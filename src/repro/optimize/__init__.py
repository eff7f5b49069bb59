"""Multi-fidelity co-design search over the sweep engine (ROADMAP 4).

The paper's co-design questions — node-limited routing (§4.3), MPFT vs
three-layer fat-tree (§5.1), colocated vs disaggregated serving (§2.3)
— are "find the best config" problems the repo previously answered by
exhaustive grids.  This package answers them with successive halving
over a fidelity ladder plus best-first frontier expansion, reaching the
same Pareto frontier with ~10× fewer *simulated seconds* (gated by
``benchmarks/bench_optimize.py``):

* :func:`parse_objective` — the objective DSL
  (``maximize goodput/cost s.t. tpot_p99<=0.05``,
  ``pareto(cost, goodput, slo_attainment)``);
* :class:`FidelityLadder` / :func:`register_ladder` — cheap→expensive
  rungs per target (serving: ``num_requests``; flowsim: ``shifts``;
  training: ``work_s``), each with a simulated-seconds cost expression;
* :class:`SearchSpec` / :func:`run_search` / :class:`SearchResult` —
  the engine; every evaluation goes through
  :func:`repro.sweep.run_sweep`, inheriting caching, derived seeds,
  worker-count byte-identity and supervision.

``repro optimize`` is the CLI face.  The module also registers an
``optimize`` *sweep target* (resolved lazily by name, like ``chaos``),
so a whole search can be submitted to the experiment service as a
job — journaled, resumable, progress over SSE — or even swept over
(e.g. one search per objective).
"""

from __future__ import annotations

from ..sweep import SweepCache, register_target
from ..sweep.targets import reject_unknown_keys, warm_inner
from .ladder import FidelityLadder, get_ladder, ladder_names, register_ladder
from .objective import (
    Constraint,
    Metric,
    MissingMetric,
    Objective,
    dominates,
    pareto_front,
    parse_objective,
)
from .search import (
    SearchResult,
    SearchSpec,
    frontier_of,
    print_search_summary,
    run_search,
)

__all__ = [
    "Constraint",
    "FidelityLadder",
    "Metric",
    "MissingMetric",
    "Objective",
    "SearchResult",
    "SearchSpec",
    "dominates",
    "frontier_of",
    "get_ladder",
    "ladder_names",
    "pareto_front",
    "parse_objective",
    "print_search_summary",
    "register_ladder",
    "run_search",
]


@register_target("optimize", warm=warm_inner("target"))
def _optimize_target(config: dict, seed: int) -> dict:
    """A whole search as one sweep point (service-submittable).

    Config keys mirror :class:`SearchSpec` (``target``, ``objective``,
    ``space``, optional ``base``/``eta``/``rungs``/``budget_s``/
    ``initial``/``ladder``), plus the execution-only keys ``workers``
    (inner fan-out, default 1) and ``cache_dir``/``no_cache``.  The
    root seed is the point's derived seed, and the returned document is
    :meth:`SearchResult.report_payload` — cache-independent, so the
    entry cached for an optimize point is byte-stable however the inner
    evaluations were obtained.
    """
    cfg = dict(config)
    cfg.pop("seed", None)  # already folded into the point seed
    ladder_cfg = cfg.pop("ladder", None)
    spec = SearchSpec(
        target=cfg.pop("target"),
        objective=cfg.pop("objective"),
        space=cfg.pop("space"),
        base=cfg.pop("base", {}),
        seed=seed,
        eta=int(cfg.pop("eta", 4)),
        rungs=cfg.pop("rungs", None),
        budget_s=cfg.pop("budget_s", None),
        initial=cfg.pop("initial", None),
        ladder=FidelityLadder(**ladder_cfg) if ladder_cfg else None,
    )
    workers = int(cfg.pop("workers", 1))
    cache = None if cfg.pop("no_cache", False) else SweepCache(cfg.pop("cache_dir", None))
    reject_unknown_keys("optimize", cfg)
    return run_search(spec, workers=workers, cache=cache).report_payload()
