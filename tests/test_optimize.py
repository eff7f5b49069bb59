"""The co-design optimizer (repro.optimize): DSL, ladders, search.

The engine guarantees the PR's acceptance criteria pin:

* a search's :meth:`SearchResult.to_report_json` — frontier, per-rung
  accounting, trajectory — is byte-identical at ``workers=1`` vs
  ``workers=4`` (the trajectory is a pure function of root seed +
  spec), and
* a warm re-search of an unchanged spec evaluates zero points while
  producing the identical report document.
"""

import json
import multiprocessing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.optimize import (
    FidelityLadder,
    MissingMetric,
    SearchSpec,
    dominates,
    frontier_of,
    get_ladder,
    pareto_front,
    parse_objective,
    register_ladder,
    run_search,
)
from repro.sweep import SweepCache, get_target, register_target

#: Evaluation counter shared with the forked workers that evaluate every
#: point: created at import, before any worker forks.
CALLS = multiprocessing.Value("i", 0)


def _quad_target(config: dict, seed: int) -> dict:
    """Deterministic synthetic landscape with a fidelity knob.

    Loss is a convex bowl around (3, 5) plus a bias that shrinks with
    fidelity ``n`` — low rungs rank roughly right, the top rung ranks
    exactly right.  ``steps`` doubles as the simulated-seconds cost.
    """
    with CALLS.get_lock():
        CALLS.value += 1
    x, y, n = config["x"], config["y"], config["n"]
    bias = 16.0 / n
    return {"loss": (x - 3) ** 2 + (y - 5) ** 2 + bias, "steps": float(n), "seed": seed}


register_target("test_quad", _quad_target)
register_ladder("test_quad", FidelityLadder(key="n", rungs=(4, 16, 64), cost="steps"))

SPACE = {"x": list(range(8)), "y": list(range(8))}


def _spec(**overrides) -> SearchSpec:
    kwargs = dict(
        target="test_quad", objective="minimize loss", space=SPACE, seed=7, eta=4
    )
    kwargs.update(overrides)
    return SearchSpec(**kwargs)


# ---------------------------------------------------------------- DSL


def test_scalar_objective_parses_direction_and_constraints():
    obj = parse_objective("maximize goodput/cost s.t. tpot_p99<=0.05, completed>=10")
    assert obj.scalar
    assert obj.metrics[0].maximize
    assert [c.text for c in obj.constraints] == ["tpot_p99<=0.05", "completed>=10"]
    record = {
        "goodput_tokens_per_s": 100.0,
        "cost_per_token": 2.0,
        "tpot_p99_ms": 40.0,
        "completed": 12,
    }
    assert obj.feasible(record, {})
    assert obj.values(record, {}) == (50.0,)
    assert obj.vector(record, {}) == (-50.0,)  # maximize → negated


def test_aliases_rescale_display_units():
    obj = parse_objective("minimize tpot_p99")
    # tpot_p99 resolves to tpot_p99_ms and rescales to seconds.
    assert obj.values({"tpot_p99_ms": 50.0}, {}) == (0.05,)


def test_pareto_objective_directions_and_prefixes():
    obj = parse_objective("pareto(cost, goodput, min:slo_attainment)")
    assert not obj.scalar
    assert [m.maximize for m in obj.metrics] == [False, True, False]


def test_constraint_can_reference_config_axes():
    obj = parse_objective("minimize loss s.t. x<=4")
    assert obj.feasible({"loss": 1.0}, {"x": 3})
    assert not obj.feasible({"loss": 1.0}, {"x": 5})


def test_missing_or_null_metric_means_infeasible_not_error():
    obj = parse_objective("maximize goodput s.t. tpot_p99<=0.05")
    assert obj.values({}, {}) is None
    assert not obj.feasible({}, {})
    # Null (e.g. cost_per_token of a zero-token run) behaves like absent.
    obj2 = parse_objective("minimize cost")
    assert obj2.values({"cost_per_token": None}, {}) is None


def test_expression_arithmetic_and_rejection():
    obj = parse_objective("maximize (a+b)*2 - c/4")
    assert obj.values({"a": 1.0, "b": 2.0, "c": 8.0}, {}) == (4.0,)
    with pytest.raises(ValueError):
        parse_objective("maximize __import__('os').system('true')")
    with pytest.raises(ValueError):
        parse_objective("minimize a**2")  # pow not in the whitelist
    with pytest.raises(ValueError):
        parse_objective("best loss")


def test_division_by_zero_is_unscorable():
    obj = parse_objective("maximize goodput/cost")
    with pytest.raises(MissingMetric):
        obj.metrics[0].expr.evaluate({"goodput": 1.0, "cost": 0.0}, {})


#: Fragments the DSL fuzz splices together, so most texts get past the
#: keyword and into the expression and constraint parsers.
_DSL_TOKENS = (
    "maximize ", "minimize ", "pareto(", ")", "(", ",", " s.t. ", "min:", "max:",
    "x", "goodput", "cost", "tpot_p99", "1", "0.5", "1e999", "1" + "0" * 400,
    "+", "-", "*", "/", "**", "<=", ">=", "<", ">", " and ", "[", "'", "\x00", "lambda",
)


@st.composite
def _objective_texts(draw) -> str:
    parts = draw(st.lists(st.one_of(st.sampled_from(_DSL_TOKENS), st.text(max_size=4)), max_size=12))
    if draw(st.booleans()):  # a run long enough to reach the parser's limits
        parts.insert(draw(st.integers(0, len(parts))),
                     draw(st.sampled_from(("-", "x+", "("))) * draw(st.sampled_from((10, 300, 5000))))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@example("maximize (")
@example("maximize x s.t. y <= 1 and")
@example("maximize " + "+".join(["x"] * 200_000))
@example("maximize " + "-" * 100_000 + "x")
@example("maximize " + "+".join(["x"] * 1_000))  # parses, but too deep to evaluate
@example("maximize 1" + "0" * 400)  # an int no float can hold
@example("maximize x\x00")
@given(_objective_texts())
def test_any_objective_text_parses_or_raises_value_error(text):
    try:
        obj = parse_objective(text)
    except ValueError:
        return
    # Whatever parses also scores without raising.
    record = {"x": 1.0, "y": 2.0, "goodput_tokens_per_s": 3.0, "cost_per_token": 0.0}
    obj.values(record, {})
    obj.feasible(record, {})


def test_cli_optimize_reports_a_bad_objective_as_a_bad_search_spec(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["optimize", "--target", "serving", "--objective", "maximize (",
              "--space", "request_rate=1,2", "--cache-dir", str(tmp_path)])
    assert str(excinfo.value).startswith("bad search spec: bad objective expression '('")


def test_dominates_and_pareto_front():
    assert dominates((1.0, 1.0), (2.0, 2.0))
    assert not dominates((1.0, 3.0), (2.0, 2.0))
    front = pareto_front([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (3.0, 3.0), None])
    assert front == [0, 1, 2]


# ------------------------------------------------------------- ladder


def test_builtin_ladders_registered():
    assert get_ladder("serving").key == "num_requests"
    assert get_ladder("flowsim").key == "shifts"
    assert get_ladder("training").key == "work_s"


def test_ladder_truncation_keeps_the_top_rungs():
    ladder = FidelityLadder(key="n", rungs=(1, 2, 3, 4), cost="1")
    assert ladder.truncated(2).rungs == (3, 4)
    assert ladder.truncated(None).rungs == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        ladder.truncated(0)
    with pytest.raises(KeyError):
        get_ladder("no_such_target")


def test_fidelity_key_cannot_be_a_search_axis():
    with pytest.raises(ValueError):
        _spec(space={"n": [1, 2], "x": [1]}).resolved_ladder()


# ------------------------------------------------------------- search


def test_search_finds_the_optimum_with_fewer_evaluations():
    result = run_search(_spec())
    assert result.frontier[0]["config"]["x"] == 3
    assert result.frontier[0]["config"]["y"] == 5
    assert result.frontier[0]["config"]["n"] == 64  # top fidelity
    # Successive halving: 64@4 + 16@16 + 4@64 sim-steps vs 64@64 grid.
    assert result.sim_seconds == 64 * 4 + 16 * 16 + 4 * 64
    assert result.grid_points == 64
    assert result.grid_sim_seconds == 64 * 64
    assert result.speedup > 5.0


def test_search_is_byte_identical_at_workers_1_vs_4(tmp_path):
    r1 = run_search(_spec(), workers=1, cache=SweepCache(tmp_path / "a"))
    r4 = run_search(_spec(), workers=4, cache=SweepCache(tmp_path / "b"))
    assert r1.to_report_json() == r4.to_report_json()
    assert r1.to_json() == r4.to_json()  # provenance counts match too (both cold)


def test_a_search_forks_its_workers_once_for_every_batch():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    result = run_search(_spec(initial=12), workers=2, metrics=registry)
    assert len(result.rungs) == 3 and result.rungs[0]["batches"] > 1
    # Every batch that forks borrows the search's two workers; a set per
    # batch would fork two for each.
    assert registry.snapshot()["sweep.workers_spawned"] == 2


def test_warm_research_evaluates_zero_points(tmp_path):
    cache = SweepCache(tmp_path)
    CALLS.value = 0
    cold = run_search(_spec(), cache=cache)
    assert CALLS.value == cold.evaluated > 0  # the counter sees the workers
    CALLS.value = 0
    warm = run_search(_spec(), cache=cache)
    assert CALLS.value == 0
    assert warm.evaluated == 0
    assert warm.cache_hits == len(warm.trajectory)
    assert warm.to_report_json() == cold.to_report_json()


def test_subsampled_search_expands_neighbors_to_the_optimum():
    result = run_search(_spec(initial=6))
    assert result.frontier[0]["config"]["x"] == 3
    assert result.frontier[0]["config"]["y"] == 5
    # Best-first expansion evaluated a fraction of the grid at rung 0.
    assert result.rungs[0]["candidates"] < 64
    assert result.rungs[0]["batches"] > 1


def test_budget_stops_new_batches():
    result = run_search(_spec(budget_s=100.0))
    assert result.stopped_early
    assert result.sim_seconds == 64 * 4  # the first rung-0 batch completes
    assert len(result.rungs) == 1
    # The frontier still reports from the highest rung reached.
    assert result.frontier[0]["config"]["n"] == 4


def test_pareto_search_frontier_is_nondominated_and_sorted(tmp_path):
    spec = _spec(objective="pareto(min:loss, min:x)")
    result = run_search(spec, cache=SweepCache(tmp_path))
    assert len(result.frontier) > 1
    vectors = [(e["metrics"]["loss"], e["metrics"]["x"]) for e in result.frontier]
    assert vectors == sorted(vectors)
    for i, a in enumerate(vectors):
        assert not any(dominates(b, a) for j, b in enumerate(vectors) if j != i)


def test_infeasible_everything_yields_empty_frontier():
    result = run_search(_spec(objective="minimize loss s.t. loss<=-1"))
    assert result.frontier == ()
    assert len(result.trajectory) > 0  # the search still ran


def test_frontier_of_matches_exhaustive_grid(tmp_path):
    """Search frontier == grid frontier, computed via the same helper."""
    from repro.sweep import SweepSpec, grid, run_sweep

    spec = _spec()
    search = run_search(spec, cache=SweepCache(tmp_path))
    grid_spec = SweepSpec(
        target="test_quad",
        points=grid(x=SPACE["x"], y=SPACE["y"], n=64),
        seed=7,
    )
    full = run_sweep(grid_spec, cache=SweepCache(tmp_path))
    objective = parse_objective(spec.objective)
    expected = frontier_of(objective, full.report_payload()["points"])
    assert json.dumps(list(search.frontier), sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_space_axis_order_is_canonicalized():
    a = run_search(SearchSpec(target="test_quad", objective="minimize loss",
                              space={"x": SPACE["x"], "y": SPACE["y"]}, seed=7))
    b = run_search(SearchSpec(target="test_quad", objective="minimize loss",
                              space={"y": SPACE["y"], "x": SPACE["x"]}, seed=7))
    assert a.to_report_json() == b.to_report_json()


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(target="t", objective="minimize loss", space={})
    with pytest.raises(ValueError):
        SearchSpec(target="t", objective="minimize loss", space={"x": []})
    with pytest.raises(ValueError):
        _spec(eta=1)
    with pytest.raises(ValueError):
        _spec(initial=0)


def test_optimize_counters(tmp_path):
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    result = run_search(_spec(), cache=SweepCache(tmp_path), metrics=metrics)
    assert metrics.counter("optimize.evaluations").value == len(result.trajectory)
    assert metrics.counter("optimize.sim_seconds").value == result.sim_seconds
    assert metrics.counter("sweep.points").value == len(result.trajectory)


# ------------------------------------------- optimize as a sweep target


def test_optimize_target_resolves_lazily_and_runs():
    fn = get_target("optimize")
    payload = fn(
        {
            "target": "test_quad",
            "objective": "minimize loss",
            "space": {"x": [2, 3, 4], "y": [4, 5, 6]},
            "no_cache": True,
        },
        seed=7,
    )
    assert payload["frontier"][0]["config"]["x"] == 3
    assert "evaluated" not in payload  # report_payload: cache-independent
    with pytest.raises(ValueError):
        fn({"target": "test_quad", "objective": "minimize loss",
            "space": {"x": [1]}, "bogus": 1, "no_cache": True}, seed=0)


def test_optimize_target_accepts_cache_dir_under_no_cache(tmp_path):
    """``no_cache`` wins over ``cache_dir``, as ``repro optimize --no-cache
    --cache-dir D`` does; the pair used to fail as an unknown key."""
    cache_dir = tmp_path / "cache"
    payload = get_target("optimize")(
        {
            "target": "test_quad",
            "objective": "minimize loss",
            "space": {"x": [2, 3, 4], "y": [4, 5, 6]},
            "no_cache": True,
            "cache_dir": str(cache_dir),
        },
        seed=7,
    )
    assert payload["frontier"][0]["config"]["x"] == 3
    assert not cache_dir.exists()


# --------------------------------------------------------------- CLI


def test_cli_optimize_json(tmp_path, capsys):
    from repro.cli import main

    rc = main(
        [
            "optimize",
            "--target", "test_quad",
            "--objective", "minimize loss",
            "--space", "x=2,3,4",
            "--space", "y=4,5,6",
            "--eta", "3",
            "--seed", "7",
            "--cache-dir", str(tmp_path),
            "--json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frontier"][0]["config"]["x"] == 3
    assert doc["speedup"] > 1.0
    assert doc["rungs"][0]["candidates"] == 9


def test_cli_optimize_table_and_errors(tmp_path, capsys):
    from repro.cli import main

    rc = main(
        [
            "optimize",
            "--target", "test_quad",
            "--objective", "minimize loss",
            "--space", "x=2,3,4",
            "--set", "y=5",
            "--no-cache",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "frontier" in out and "rungs" in out
    with pytest.raises(SystemExit):
        main(["optimize", "--target", "test_quad",
              "--objective", "minimize loss"])  # no --space
    with pytest.raises(SystemExit):
        main(["optimize", "--target", "test_quad", "--objective", "best loss",
              "--space", "x=1,2", "--no-cache"])  # bad DSL
    with pytest.raises(SystemExit):
        main(["optimize", "--target", "no_such_target",
              "--objective", "minimize loss", "--space", "x=1,2"])


def test_cli_optimize_refuses_a_bad_space_point_before_searching(tmp_path, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["optimize", "--target", "serving", "--objective", "minimize p99_ttft_s",
              "--space", "mode=colocated,bogus", "--space", "request_rate=2,4",
              "--cache-dir", str(tmp_path)])
    message = str(excinfo.value)
    assert message.startswith("bad search spec: serving point ")
    assert "'mode': 'bogus'" in message and "unknown mode 'bogus'" in message
    assert not list(tmp_path.rglob("*.json"))  # no point was evaluated
    assert capsys.readouterr().out == ""
