"""The parallel sweep engine (repro.sweep): grids, cache, determinism.

The two engine guarantees the PR's acceptance criteria pin:

* a multi-point sweep at ``workers=N>1`` serializes byte-identically
  to the same sweep at ``workers=1`` (per-point seeds derive from
  point *content*, never from scheduling), and
* a warm-cache re-run of an unchanged sweep evaluates zero points.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, Tracer
from repro.sweep import (
    SweepCache,
    SweepSpec,
    canonical_config,
    get_target,
    grid,
    point_key,
    register_target,
    run_sweep,
    target_names,
)

#: Evaluation counter for cache-behavior tests.  Every point runs in a
#: forked worker, so the count lives in shared memory created here, at
#: import, before any worker forks: each worker increments this value.
CALLS = multiprocessing.Value("i", 0)


def _counting_target(config: dict, seed: int) -> dict:
    with CALLS.get_lock():
        CALLS.value += 1
    return {"value": 2 * config["x"] + config.get("bias", 0), "seed": seed}


register_target("test_counting", _counting_target)

#: A fast serving scenario for the real-simulator tests.
SERVING_BASE = {"num_requests": 25, "output_mean": 32, "prompt_mean": 128}


def _counting_spec(**overrides) -> SweepSpec:
    defaults = dict(
        target="test_counting", points=grid(x=[1, 2, 3]), base={"bias": 1}, seed=5
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


# -- spec / grid ---------------------------------------------------------


def test_grid_is_the_cartesian_product_in_axis_order():
    points = grid(a=[1, 2], b=["x", "y"], c=9)
    assert points == [
        {"a": 1, "b": "x", "c": 9},
        {"a": 1, "b": "y", "c": 9},
        {"a": 2, "b": "x", "c": 9},
        {"a": 2, "b": "y", "c": 9},
    ]


def test_canonical_config_ignores_key_order_and_rejects_non_json():
    assert canonical_config({"a": 1, "b": 2}) == canonical_config({"b": 2, "a": 1})
    with pytest.raises(TypeError):
        canonical_config({"a": {1, 2}})


def test_point_key_changes_with_each_ingredient():
    base = point_key("t", {"x": 1}, 0, "1.0")
    assert point_key("t", {"x": 1}, 0, "1.0") == base
    assert point_key("t", {"x": 2}, 0, "1.0") != base
    assert point_key("t", {"x": 1}, 1, "1.0") != base
    assert point_key("t", {"x": 1}, 0, "1.1") != base
    assert point_key("u", {"x": 1}, 0, "1.0") != base


def test_empty_sweep_is_rejected():
    with pytest.raises(ValueError):
        SweepSpec(target="test_counting", points=[])


def test_builtin_targets_are_registered():
    assert {"serving", "flowsim", "training"} <= set(target_names())


# -- seed discipline -----------------------------------------------------


def test_point_seeds_depend_on_content_not_order():
    forward = _counting_spec()
    backward = _counting_spec(points=list(reversed(forward.points)))
    seeds_fwd = {canonical_config(c): forward.point_seed(c) for c in forward.configs()}
    seeds_bwd = {canonical_config(c): backward.point_seed(c) for c in backward.configs()}
    assert seeds_fwd == seeds_bwd
    assert len(set(seeds_fwd.values())) == len(seeds_fwd), "points must decorrelate"


def test_explicit_seed_in_config_wins():
    spec = _counting_spec(base={"bias": 1, "seed": 77})
    assert all(spec.point_seed(c) == 77 for c in spec.configs())


# -- cache behavior ------------------------------------------------------


def test_cache_hit_skips_evaluation_and_preserves_results(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    CALLS.value = 0
    cold = run_sweep(spec, cache=cache)
    assert CALLS.value == 3 and cold.evaluated == 3 and cold.cache_hits == 0
    warm = run_sweep(spec, cache=cache)
    assert CALLS.value == 3, "warm re-run must execute zero target evaluations"
    assert warm.evaluated == 0 and warm.cache_hits == 3
    assert warm.records() == cold.records()
    assert len(cache) == 3


def test_cache_misses_on_config_seed_and_version_change(tmp_path):
    cache = SweepCache(tmp_path)
    run_sweep(_counting_spec(), cache=cache)
    CALLS.value = 0
    # A changed config recomputes only the changed points...
    assert run_sweep(_counting_spec(base={"bias": 2}), cache=cache).evaluated == 3
    # ...a changed root seed recomputes (derived seeds moved)...
    assert run_sweep(_counting_spec(seed=6), cache=cache).evaluated == 3
    # ...and so does a version bump.
    assert run_sweep(_counting_spec(version="0.0.0-test"), cache=cache).evaluated == 3
    assert CALLS.value == 9


def test_incremental_rerun_recomputes_only_new_points(tmp_path):
    cache = SweepCache(tmp_path)
    run_sweep(_counting_spec(points=grid(x=[1, 2, 3])), cache=cache)
    CALLS.value = 0
    grown = run_sweep(_counting_spec(points=grid(x=[1, 2, 3, 4, 5])), cache=cache)
    assert grown.evaluated == 2 and grown.cache_hits == 3
    assert CALLS.value == 2
    assert [p.cached for p in grown.points] == [True, True, True, False, False]


def test_corrupted_cache_entry_is_recomputed_not_crashed(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec(points=[{"x": 4}])
    first = run_sweep(spec, cache=cache)
    path = cache.path_for(first.points[0].key)
    for garbage in ("not json {", json.dumps({"key": "wrong", "result": {}}), ""):
        path.write_text(garbage)
        CALLS.value = 0
        again = run_sweep(spec, cache=cache)
        assert CALLS.value == 1 and again.evaluated == 1
        assert again.records() == first.records()
        # The entry is repaired in place and serves the next run.
        assert cache.get(first.points[0].key) == first.points[0].result


def test_cache_shard_that_is_a_file_is_a_miss(tmp_path):
    cache = SweepCache(tmp_path)
    key, other = "cd" * 32, "ef" * 32
    (tmp_path / key[:2]).write_text("not a directory")
    assert cache.get(key) is None
    assert cache.get_many([key, other]) == {key: None, other: None}


def test_sweep_over_a_shard_that_is_a_file_finishes(tmp_path):
    spec = _counting_spec(points=[{"x": 4}])
    first = run_sweep(spec, cache=SweepCache(tmp_path / "clean"))
    key = first.points[0].key
    cache = SweepCache(tmp_path / "stray")
    shard = cache.path_for(key).parent
    shard.parent.mkdir()
    shard.write_text("not a directory")
    again = run_sweep(spec, cache=cache)
    assert again.evaluated == 1 and again.records() == first.records()
    # The stray file gave way to the shard directory and its entry.
    assert shard.is_dir() and cache.get(key) == first.points[0].result


_STORED = {"value": 7, "seed": 3}


@st.composite
def _entry_bytes(draw) -> bytes:
    """Random bytes, a truncated valid entry, or deep nesting."""
    valid = (
        json.dumps(
            {"key": "12" * 32, "target": "t", "config": {}, "seed": 3,
             "version": "0", "result": _STORED},
            indent=2, sort_keys=True,
        )
        + "\n"
    ).encode()
    kind = draw(st.sampled_from(["random", "truncated", "nested"]))
    if kind == "random":
        return draw(st.binary(max_size=300))
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid)))]
    opener = draw(st.sampled_from([b"[", b'{"a":', b'{"result":']))
    return opener * draw(st.integers(1, 50_000))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(blob=_entry_bytes())
@example(blob=b"[" * 100_000)  # past the parser's recursion limit
def test_cache_entry_bytes_fuzz_is_a_miss_or_the_stored_result(tmp_path, blob):
    """Whatever bytes an entry holds, both probes give a miss or the
    stored result, never an error."""
    cache = SweepCache(tmp_path)
    key = "12" * 32
    path = cache.path_for(key)
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(blob)
    assert cache.get(key) in (None, _STORED)
    assert cache.get_many([key])[key] in (None, _STORED)


def test_cache_entry_is_self_describing(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec(points=[{"x": 9}])
    result = run_sweep(spec, cache=cache)
    entry = json.loads(cache.path_for(result.points[0].key).read_text())
    assert entry["target"] == "test_counting"
    assert entry["config"] == {"bias": 1, "x": 9}
    assert entry["seed"] == result.points[0].seed
    assert entry["version"] == spec.version


# -- determinism across worker counts ------------------------------------


#: Four-point sweeps per built-in target (serving with MTP on).
ORDER_SWEEPS = {
    "serving": (
        grid(request_rate=[2.0, 6.0], mode=["colocated", "disaggregated"]),
        dict(SERVING_BASE, mtp=True),
    ),
    "flowsim": (
        grid(shifts=[1, 2], sim_mode=["event", "drain"]),
        {"num_leaves": 2, "hosts_per_leaf": 2, "num_spines": 2},
    ),
    "training": (
        grid(interval_s=[1800.0, 3600.0], mtbf_s=[4 * 3600.0, 12 * 3600.0]),
        {"work_s": 24 * 3600.0},
    ),
}


@pytest.mark.parametrize("target", sorted(ORDER_SWEEPS))
def test_worker_count_does_not_change_bytes(target):
    """Worker count and point order change no byte of a point's result."""
    points, base = ORDER_SWEEPS[target]
    spec = SweepSpec(target=target, points=points, base=base, seed=9)
    serial = run_sweep(spec, workers=1, cache=None)
    fanned = run_sweep(spec, workers=3, cache=None)
    assert serial.to_json() == fanned.to_json()
    assert fanned.evaluated == 4
    reversed_spec = SweepSpec(target=target, points=points[::-1], base=base, seed=9)
    reordered = run_sweep(reversed_spec, workers=2, cache=None)

    def by_key(result):
        return {p.key: json.dumps(p.result, sort_keys=True) for p in result.points}

    assert by_key(reordered) == by_key(serial)
    assert len(by_key(serial)) == 4


def test_custom_target_runs_in_worker_processes():
    # The target is resolved in the parent before the fork, so one
    # registered at test-module import runs in forked workers too.
    spec = _counting_spec(points=grid(x=[1, 2, 3, 4]))
    fanned = run_sweep(spec, workers=2, cache=None)
    assert [p.result["value"] for p in fanned.points] == [3, 5, 7, 9]


# -- target wiring -------------------------------------------------------


def test_serving_target_matches_direct_simulation():
    from repro.serving import ServingSimulator, SimConfig, WorkloadSpec, compact_record

    config = dict(SERVING_BASE, request_rate=3.0, mode="disaggregated", seed=4)
    [point] = run_sweep(
        SweepSpec(target="serving", points=[config]), cache=None
    ).points
    direct = compact_record(
        ServingSimulator(
            SimConfig(
                workload=WorkloadSpec(
                    request_rate=3.0, num_requests=25, output_mean=32, prompt_mean=128
                ),
                mode="disaggregated",
                seed=4,
            )
        ).run()
    )
    assert point.result == direct


def test_serving_target_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown serving sweep keys"):
        run_sweep(
            SweepSpec(target="serving", points=[{"no_such_knob": 1}]), cache=None
        )


#: A non-default value for every scalar field of WorkloadSpec,
#: SchedulerConfig and SimConfig — the serving target's flat schema.
SERVING_SCALARS = {
    "request_rate": 3.5,
    "num_requests": 17,
    "prompt_mean": 300,
    "prompt_cv": 0.2,
    "output_mean": 40,
    "output_cv": 0.1,
    "arrival": "bursty",
    "burst_fraction": 0.8,
    "burst_factor": 10.0,
    "max_concurrent_per_gpu": 32,
    "max_prefill_tokens": 4096,
    "max_prefill_requests": 8,
    "mode": "disaggregated",
    "prefill_gpus": 3,
    "decode_gpus": 5,
    "kv_blocks_per_gpu": 1000,
    "block_tokens": 32,
    "context_bucket": 256,
    "window_s": 2.0,
    "record_requests": True,
}


def test_serving_scenario_accepts_every_scalar_field():
    from dataclasses import fields

    from repro.serving import SchedulerConfig, SimConfig, WorkloadSpec
    from repro.sweep.targets import serving_scenario

    structured = {
        "workload", "costs", "scheduler", "slo", "seed", "faults", "recovery", "slo_rules"
    }
    owners = {
        "workload": WorkloadSpec(),
        "scheduler": SchedulerConfig(),
        None: SimConfig(),
    }
    scalars = {
        f.name: attr
        for attr, default in owners.items()
        for f in fields(default)
        if f.name not in structured
    }
    assert set(SERVING_SCALARS) == set(scalars)

    sim, economics = serving_scenario(SERVING_SCALARS, 9)
    assert sim.seed == 9 and economics == {}
    for key, value in SERVING_SCALARS.items():
        attr = scalars[key]
        built = sim if attr is None else getattr(sim, attr)
        assert getattr(owners[attr], key) != value, key  # a real override
        assert getattr(built, key) == value, key


def test_serving_scenario_maps_slo_to_slo_rules():
    from repro.obs import parse_slo_rules
    from repro.serving import SLO
    from repro.sweep.targets import serving_scenario

    rules = ["tpot_p99<0.05", "burn>2@0.9"]
    sim, _ = serving_scenario({"window_s": 5.0, "slo": rules}, 0)
    assert sim.slo_rules == parse_slo_rules(rules)
    assert sim.slo == SLO()


@pytest.mark.parametrize(
    "key, value",
    [
        ("workload", {}),
        ("costs", {}),
        ("scheduler", {}),
        ("slo_rules", ["tpot_p99<0.05"]),
        ("request_rte", 2.0),
    ],
)
def test_serving_scenario_rejects_structured_and_typo_keys(key, value):
    from repro.sweep.targets import serving_scenario

    with pytest.raises(ValueError, match=rf"unknown serving sweep keys: \['{key}'\]"):
        serving_scenario({key: value}, 0)


@pytest.mark.parametrize("target", ["flowsim", "training", "optimize"])
def test_builtin_targets_share_one_unknown_key_error(target):
    config = {"bogus": 1}
    if target == "optimize":
        config.update(
            target="serving", objective="maximize goodput",
            space={"request_rate": [2.0]}, no_cache=True,
        )
    with pytest.raises(ValueError, match=rf"unknown {target} sweep keys: \['bogus'\]"):
        get_target(target)(config, 0)


@pytest.mark.parametrize(
    "target, config",
    [
        ("serving", {"request_rate": "abc"}),
        ("serving", {"num_requests": "many"}),
        ("serving", {"faults": [1]}),
        ("serving", {"recovery": [1]}),
        ("flowsim", {"bogus": 1}),
        ("flowsim", {"num_leaves": "four"}),
        ("flowsim", {"shifts": 0}),
        ("flowsim", {"size_bytes": -1.0}),
        ("flowsim", {"sim_mode": "bogus"}),
        ("training", {"bogus": 1}),
        ("training", {"faults": {"events": [{"time": -3, "kind": "gpu"}]}}),
        ("training", {"faults": [1]}),
        ("flowsim", {"shifts": 16}),  # 4 leaves x 4 hosts: shift 16 sends h0 -> h0
        ("flowsim", {"num_leaves": 2, "hosts_per_leaf": 2, "shifts": 4}),
        ("serving", {"recovery": {"retry_budget": True}}),
        ("serving", {"recovery": {"retry_budget": 2.5}}),
        ("serving", {"recovery": {"degraded_queue_limit": 1e308}}),
        ("serving", {"recovery": {"retry_budgett": 2}}),
    ],
)
def test_dry_build_raises_value_error_for_bad_points(target, config):
    from repro.sweep.targets import dry_build

    with pytest.raises(ValueError):
        dry_build(target, config)


@pytest.mark.parametrize(
    "recovery, message",
    [
        ({"retry_budget": True}, "serving 'retry_budget' must be int, got True"),
        ({"retry_budget": 2.5}, "serving 'retry_budget' must be int, got 2.5"),
        ({"degraded_queue_limit": 1e308}, "serving 'degraded_queue_limit' must be int, got 1e+308"),
        ({"retry_budgett": 2}, "unknown serving recovery sweep keys: ['retry_budgett']"),
    ],
)
def test_recovery_values_are_checked_like_flat_keys(recovery, message):
    from repro.sweep.targets import serving_scenario

    with pytest.raises(ValueError) as excinfo:
        serving_scenario({"recovery": recovery}, 0)
    assert str(excinfo.value) == message


def test_valid_recovery_builds_its_policy():
    from repro.faults import RecoveryPolicy
    from repro.sweep.targets import serving_scenario

    recovery = {"retry_budget": 2, "degraded_queue_limit": 24}
    sim, _ = serving_scenario({"recovery": recovery}, 0)
    assert sim.recovery == RecoveryPolicy(retry_budget=2, degraded_queue_limit=24)
    assert serving_scenario({"recovery": {}}, 0)[0].recovery == RecoveryPolicy()


@pytest.mark.parametrize("target", ["serving", "training"])
def test_faults_path_strings_are_refused_unread(target, tmp_path):
    """``FaultSchedule.from_json`` reads a string as a file path; a point
    names its schedule as an object, so even a readable, valid schedule
    file is refused."""
    from repro.sweep.targets import dry_build

    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"events": [{"time": 1.0, "kind": "gpu"}]}))
    with pytest.raises(ValueError, match="'faults' must be a FaultSchedule JSON object"):
        dry_build(target, {"faults": str(path)})
    with pytest.raises(TypeError, match="'faults' must be a FaultSchedule JSON object"):
        get_target(target)({"faults": str(path)}, 0)


def test_flowsim_dry_build_checks_keys_without_building(monkeypatch):
    """A flowsim point's fabric and routed flows grow with its counts, so
    the submit check stops at the keys; the run builds them."""
    import repro.network
    from repro.sweep.targets import dry_build

    def no_fabric(*args, **kwargs):
        raise AssertionError("dry_build built the fabric")

    monkeypatch.setattr(repro.network, "two_layer_fat_tree", no_fabric)
    monkeypatch.setattr(repro.network, "shifted_ring_flows", no_fabric)
    dry_build("flowsim", {"num_leaves": 1000, "hosts_per_leaf": 1000, "shifts": 100})
    with pytest.raises(AssertionError, match="built the fabric"):
        get_target("flowsim")({"num_leaves": 2}, 0)


def test_dry_build_accepts_defaults_and_skips_other_targets():
    from repro.sweep.targets import dry_build

    for target in ("serving", "flowsim", "training"):
        dry_build(target, {"seed": 3})
    dry_build("svc-anything", {"bogus": 1})  # no pure builder: unchecked


#: Well-typed, in-range values for every serving flat key, small enough
#: that a run of at most 64 requests finishes in milliseconds.
_SERVING_VALUES = {
    "request_rate": st.integers(1, 16) | st.floats(0.5, 16.0),
    "num_requests": st.integers(1, 64),
    "prompt_mean": st.integers(1, 512),
    "prompt_cv": st.floats(0.0, 1.0),
    "output_mean": st.integers(1, 128),
    "output_cv": st.floats(0.0, 1.0),
    "arrival": st.sampled_from(["poisson", "bursty"]),
    "burst_fraction": st.floats(0.05, 0.95),
    "burst_factor": st.floats(1.5, 20.0),
    "max_concurrent_per_gpu": st.integers(1, 64),
    "max_prefill_tokens": st.integers(1, 8192),
    "max_prefill_requests": st.integers(1, 16),
    "mode": st.sampled_from(["colocated", "disaggregated"]),
    "prefill_gpus": st.integers(1, 4),
    "decode_gpus": st.integers(1, 8),
    "kv_blocks_per_gpu": st.none() | st.integers(1, 4096),
    "block_tokens": st.integers(1, 128),
    "context_bucket": st.integers(1, 1024),
    "window_s": st.none() | st.floats(0.5, 10.0),
    "record_requests": st.booleans(),
    "mtp": st.booleans(),
    "mtp_acceptance": st.floats(0.0, 1.0),
    "gpu_cost_per_hour": st.floats(0.0, 10.0),
}
#: JSON scalars of the wrong type for some key: a bool, a float where an
#: int is declared, a string, a null.
_WRONG_SCALARS = st.sampled_from([True, False, 2.5, "4", None])


def _mostly(good):
    """``good`` nine draws in ten, else a wrong-typed scalar, so about a
    third of the configs carry no wrong value and run."""
    return st.integers(0, 9).flatmap(lambda roll: _WRONG_SCALARS if roll == 0 else good)


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@example({"num_requests": 20.5})  # used to fail with a TypeError in the run
@given(
    st.fixed_dictionaries(
        # num_requests is always drawn, so no run falls back to 200.
        {"num_requests": _mostly(_SERVING_VALUES["num_requests"])},
        optional={
            key: _mostly(good)
            for key, good in _SERVING_VALUES.items()
            if key != "num_requests"
        },
    )
)
def test_a_serving_config_is_refused_by_its_build_or_runs(config):
    """The builder is the only point check, so whatever it accepts must
    run: a wrong-typed value is refused, never a crash after a fork."""
    from repro.sweep.targets import dry_build

    try:
        dry_build("serving", config)
    except ValueError:
        return
    record = get_target("serving")(config, 0)
    assert 0 <= record["completed"] <= config["num_requests"]


def test_unknown_target_raises():
    with pytest.raises(KeyError, match="unknown sweep target"):
        run_sweep(SweepSpec(target="no-such-target", points=[{"x": 1}]), cache=None)


# -- observability -------------------------------------------------------


def test_sweep_emits_spans_counters_and_progress(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    run_sweep(spec, cache=cache)

    tracer, metrics = Tracer(), MetricsRegistry()
    run_sweep(spec, cache=cache, tracer=tracer, metrics=metrics)
    hits = [e for e in tracer.events if e.get("ph") == "i"]
    assert len(hits) == 3, "every cached point records an instant"
    assert metrics.counter("sweep.points").value == 3
    assert metrics.counter("sweep.cache_hits").value == 3
    assert metrics.counter("sweep.evaluated").value == 0
    assert metrics.gauge("sweep.progress").value == 1.0

    tracer2 = Tracer()
    run_sweep(_counting_spec(seed=8), tracer=tracer2, cache=None)
    spans = [e for e in tracer2.events if e.get("ph") == "X"]
    assert len(spans) == 3, "every evaluated point records a span"


# -- CLI -----------------------------------------------------------------


def test_cli_sweep_json_document(tmp_path, capsys):
    from repro.cli import main

    argv = [
        "sweep", "--target", "test_counting",
        "--grid", "x=1,2", "--set", "bias=3",
        "--cache-dir", str(tmp_path), "--json",
    ]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert [p["config"] for p in cold["points"]] == [
        {"bias": 3, "x": 1}, {"bias": 3, "x": 2},
    ]
    assert [p["result"]["value"] for p in cold["points"]] == [5, 7]
    assert cold["evaluated"] == 2 and cold["cache_hits"] == 0
    assert "windows" not in cold  # no point carried windows

    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["cache_hits"] == 2 and warm["evaluated"] == 0
    assert [p["result"] for p in warm["points"]] == [p["result"] for p in cold["points"]]


def test_cli_sweep_table_output(tmp_path, capsys):
    from repro.cli import main

    assert (
        main(
            ["sweep", "--target", "test_counting", "--grid", "x=1,2",
             "--cache-dir", str(tmp_path)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "sweep 'test_counting'" in out
    assert "evaluated 2" in out


def test_cli_sweep_refuses_a_bad_point_before_any_fork(tmp_path, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--target", "serving", "--grid", "mode=colocated,bogus",
              "--cache-dir", str(tmp_path)])
    message = str(excinfo.value)
    assert message.startswith("bad sweep spec: serving point {'mode': 'bogus'}: ")
    assert "unknown mode 'bogus'" in message
    assert not list(tmp_path.iterdir())  # the good point was not run either
    assert capsys.readouterr().out == ""


def test_cli_sweep_names_a_bad_set_key_in_the_message(tmp_path, capsys):
    """The failing key comes from ``--set``, so the point alone does not
    show it: the message appends the base after the reason."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--target", "serving", "--grid", "request_rate=2",
              "--set", 'recovery={"retry_budget": true}', "--cache-dir", str(tmp_path)])
    message = str(excinfo.value)
    assert message == (
        "bad sweep spec: serving point {'request_rate': 2}: "
        "serving 'retry_budget' must be int, got True "
        "(base: {'recovery': {'retry_budget': True}})"
    )
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().out == ""


def test_cli_sweep_refuses_a_self_sending_flowsim_shift_in_one_line(tmp_path):
    """``shifts=4`` on four hosts includes a shift that sends every host
    to itself; the point check refuses it before any worker is forked,
    where it used to die with a traceback from the flow builder."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [
        sys.executable, "-m", "repro", "sweep", "--target", "flowsim", "--grid", "shifts=1,4",
        "--set", "num_leaves=2", "--set", "hosts_per_leaf=2", "--no-cache",
    ]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bad sweep spec: flowsim point {'shifts': 4}: ")
    assert "'shifts' must be below num_leaves * hosts_per_leaf = 4" in lines[0]


def test_cli_sweep_windows_and_alerts_ride_set_keys(capsys):
    from repro.cli import main
    from repro.obs import merge_window_rollups

    argv = [
        "sweep", "--target", "serving", "--grid", "request_rate=4,8",
        *("--set", "num_requests=20", "--set", "prompt_mean=64", "--set", "output_mean=16"),
        *("--set", "window_s=2", "--set", 'slo=["burn>2@0.9"]'),
        "--no-cache",
    ]
    assert main([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rollups = [p["result"]["windows"] for p in doc["points"]]
    assert doc["windows"]["points"] == 2
    assert doc["windows"]["merged"] == json.loads(json.dumps(merge_window_rollups(rollups)))
    assert all("alerts" in p["result"] for p in doc["points"])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "windows: " in out and "slo: " in out


def test_cli_sweep_value_parsing():
    from repro.cli import _sweep_value

    assert _sweep_value("4") == 4 and isinstance(_sweep_value("4"), int)
    assert _sweep_value("4.5") == 4.5
    assert _sweep_value("true") is True and _sweep_value("False") is False
    assert _sweep_value("null") is None
    assert _sweep_value("colocated") == "colocated"


def test_cli_sweep_rejects_unknown_target_and_missing_grid(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["sweep", "--target", "bogus", "--grid", "x=1"])
    with pytest.raises(SystemExit):
        main(["sweep", "--target", "test_counting", "--cache-dir", str(tmp_path)])


# -- error records, progress hook, interruption --------------------------


def _failing_target(config: dict, seed: int) -> dict:
    if config["x"] % 2 == 0:
        raise ValueError(f"bad point x={config['x']}")
    return {"value": config["x"]}


register_target("test_failing", _failing_target)


def test_strict_default_raises_the_original_exception():
    spec = SweepSpec(target="test_failing", points=grid(x=[1, 2]))
    with pytest.raises(ValueError, match="bad point x=2"):
        run_sweep(spec, cache=None)


def test_strict_false_yields_structured_error_records(tmp_path):
    cache = SweepCache(tmp_path)
    spec = SweepSpec(target="test_failing", points=grid(x=[1, 2, 3, 4]), seed=3)
    result = run_sweep(spec, cache=cache, strict=False)
    assert result.errors == 2 and result.evaluated == 4
    failed = [p for p in result.points if p.error is not None]
    assert [p.config["x"] for p in failed] == [2, 4]
    for p in failed:
        assert p.result is None
        assert p.error["target"] == "test_failing"
        assert p.error["config"] == canonical_config(p.config)
        assert p.error["seed"] == p.seed
        assert p.error["type"] == "ValueError"
        assert "bad point" in p.error["message"]
        assert "_failing_target" in p.error["traceback"]
    # The document carries the error records (and only for failures).
    doc = result.payload()
    assert [i for i, p in enumerate(doc["points"]) if "error" in p] == [1, 3]
    # Failed points are never cached: a warm re-run retries exactly them.
    again = run_sweep(spec, cache=cache, strict=False)
    assert again.cache_hits == 2 and again.evaluated == 2
    assert [p.config["x"] for p in again.points if not p.cached] == [2, 4]


def test_error_records_byte_identical_across_worker_counts():
    spec = SweepSpec(target="test_failing", points=grid(x=[1, 2, 3, 4]), seed=3)
    serial = run_sweep(spec, workers=1, cache=None, strict=False)
    fanned = run_sweep(spec, workers=3, cache=None, strict=False)
    assert serial.to_json() == fanned.to_json()


def test_on_point_reports_hits_and_evaluations_in_order(tmp_path):
    cache = SweepCache(tmp_path)
    run_sweep(_counting_spec(points=grid(x=[1, 2])), cache=cache)
    settled = []
    run_sweep(
        _counting_spec(points=grid(x=[1, 2, 3])),
        cache=cache,
        on_point=lambda p: settled.append((p.index, p.cached)),
    )
    assert settled == [(0, True), (1, True), (2, False)]


def test_interrupt_raises_and_the_cache_resumes(tmp_path):
    from repro.sweep import SweepInterrupted

    cache = SweepCache(tmp_path)
    CALLS.value = 0
    spec = _counting_spec()
    settled = []
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(
            spec,
            cache=cache,
            on_point=settled.append,
            interrupt=lambda: len(settled) >= 1,
        )
    assert excinfo.value.done == 1 and excinfo.value.total == 3
    assert CALLS.value == 1  # the interrupt fired before a second launch
    assert len(cache) == 1  # the completed point is durable
    resumed = run_sweep(spec, cache=cache)
    assert resumed.cache_hits == 1 and resumed.evaluated == 2


def test_an_interrupted_sweep_traces_the_points_it_settled(tmp_path):
    """The trace of an interrupted sweep holds one event per settled
    point, as a finished sweep's does, and nothing for the rest."""
    from repro.sweep import SweepInterrupted

    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    run_sweep(_counting_spec(points=grid(x=[1])), cache=cache)  # point 0 is a hit
    settled, tracer = [], Tracer()
    with pytest.raises(SweepInterrupted):
        run_sweep(
            spec,
            cache=cache,
            tracer=tracer,
            on_point=settled.append,
            interrupt=lambda: len(settled) >= 2,
        )
    names = [e["name"] for e in tracer.events if e["ph"] in ("X", "i")]
    assert names == ["cache_hit[0]", f"point[{settled[1].index}]"]


def test_report_payload_is_cache_independent(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    cold = run_sweep(spec, cache=cache)
    warm = run_sweep(spec, cache=cache)
    assert cold.to_json() != warm.to_json()  # provenance differs...
    assert cold.to_report_json() == warm.to_report_json()  # ...results don't
    assert "cached" not in warm.report_payload()["points"][0]


def test_get_many_matches_per_key_get(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    keys = [spec.key(c) for c in spec.configs()]
    # All-miss probe: every key None, no shard directories touched.
    assert cache.get_many(keys) == {k: None for k in keys}
    run_sweep(spec, cache=cache)
    got = cache.get_many(keys)
    assert got == {k: cache.get(k) for k in keys}
    assert all(v is not None for v in got.values())


def test_get_many_sees_own_and_foreign_puts(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    configs = spec.configs()
    keys = [spec.key(c) for c in configs]
    assert cache.get_many(keys) == {k: None for k in keys}
    # A probe after our own put sees it.
    cache.put(keys[0], target=spec.target, config=configs[0],
              seed=spec.point_seed(configs[0]), version=spec.version,
              result={"value": 1})
    assert cache.get_many(keys)[keys[0]] == {"value": 1}
    # So does a probe after a foreign writer's (a second instance).
    other = SweepCache(tmp_path)
    other.put(keys[1], target=spec.target, config=configs[1],
              seed=spec.point_seed(configs[1]), version=spec.version,
              result={"value": 2})
    assert cache.get_many(keys)[keys[1]] == {"value": 2}


def test_get_many_validates_entries_like_get(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    run_sweep(spec, cache=cache)
    key = spec.key(spec.configs()[0])
    cache.path_for(key).write_text("{not json")
    fresh = SweepCache(tmp_path)
    assert fresh.get_many([key])[key] is None  # corrupt entry is a miss
