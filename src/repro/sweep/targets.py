"""Sweep targets: named, picklable entry points for the engine.

A *target* is a function ``fn(config: dict, seed: int) -> dict`` —
plain JSON-able data in, plain JSON-able data out.  That shape is what
makes the engine's three promises possible:

* **fan-out** — every point is evaluated in a forked worker, so
  configs and results cross process boundaries and must pickle
  trivially; the target itself travels by *name* and is resolved from
  this registry in the parent (to warm it) and, on first use, in each
  worker — never shipped as a code object;
* **determinism** — the result must be a pure function of
  ``(config, seed)``; the engine derives ``seed`` per point, so a
  target must route every stochastic choice through it;
* **caching** — the result is stored verbatim in the content-addressed
  cache, so it must round-trip through JSON.

Built-in targets wrap the three discrete-event simulators.  Register a
custom one with :func:`register_target`.  :func:`repro.sweep.run_sweep`
resolves the target with :func:`resolve_target` in the parent process
before it borrows workers, so its ``warm`` hook (the imports a built-in
target would otherwise pay lazily on its first call) runs once, and a
worker forked afterwards inherits it.  Every registration bumps
:func:`registry_generation`; a worker forked before the newest
registration is retired rather than lent out, so a target registered
at run time is always visible to the worker that evaluates it.

Each built-in target is a pure builder, shared with ``repro serve-sim``
and ``repro trace``, plus a run.  A builder rejects any key it did not
consume with ``unknown <target> sweep keys: [...]``.  :func:`dry_build`
checks a point without the run, and :func:`check_points` checks every
point of a sweep with it before anything is forked.  That is the only
point check: ``repro sweep``, ``repro optimize`` (through
:func:`repro.optimize.search_scenario`) and the service's
``POST /jobs`` all call it.

``serving`` — :func:`serving_scenario` builds the ``SimConfig`` for
:class:`repro.serving.ServingSimulator`.  The flat keys are every
scalar field of ``WorkloadSpec`` (``request_rate``, ``num_requests``,
``prompt_mean``, …), ``SchedulerConfig`` (``max_concurrent_per_gpu``,
…) and ``SimConfig`` (``mode``, ``prefill_gpus``, ``decode_gpus``,
``kv_blocks_per_gpu``, ``block_tokens``, ``context_bucket``,
``window_s``, ``record_requests``), with the dataclass defaults; plus
``mtp``/``mtp_acceptance``, a ``faults`` schedule dict
(``FaultSchedule.to_json`` shape), a ``recovery`` kwargs dict, ``slo``
(a rule list for :func:`repro.obs.parse_slo_rules`, i.e.
``SimConfig.slo_rules``) and ``gpu_cost_per_hour`` (economics fields in
the record).  With ``window_s`` set, each point's record gains
mergeable ``windows`` and, with ``slo``, an ``alerts`` timeline.
Points run in constant-memory streaming mode unless ``record_requests``
is true.

One type rule covers every dataclass field: a flat value must have the
type the field declares (``int``: not a ``bool``; ``float``: a finite
number, not a ``bool``; ``bool``, ``str`` and ``X | None`` as
declared), or the build raises ``<target> '<key>' must be <type>``.
The keys the builder pops itself are checked alike: ``mtp`` is a
``bool``, ``mtp_acceptance`` a finite number, ``gpu_cost_per_hour`` a
non-negative one and ``slo`` a non-empty rule list.

``flowsim`` — :func:`flowsim_scenario` builds a shifted-ring all-to-all
on a two-layer fat tree for :class:`repro.network.FlowSimulator`
(``num_leaves``, ``hosts_per_leaf``, ``num_spines``, ``shifts``,
``size_bytes``, ``sim_mode``), after :func:`flowsim_params` has checked
them.  Deterministic: the seed is accepted but unused.

``training`` — :func:`training_scenario` builds the arguments of
:func:`repro.training.simulate_checkpointed_training` (``work_s``,
``interval_s``, ``checkpoint_s``, ``restart_s``, ``mtbf_s``, an optional
``faults`` schedule dict).  ``work_s`` and ``interval_s`` must be finite
and positive, ``checkpoint_s`` and ``restart_s`` finite and
non-negative, and ``mtbf_s`` absent, ``None`` or finite and positive.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import fields
from typing import Callable, Iterable

from .spec import canonical_config

__all__ = [
    "check_points",
    "get_target",
    "register_target",
    "registry_generation",
    "resolve_target",
    "target_names",
]

Target = Callable[[dict, int], dict]
Warm = Callable[[list[dict]], None]

_REGISTRY: dict[str, Target] = {}
_WARM: dict[str, Warm | None] = {}
#: Bumped by every registration, so a forked worker knows exactly the
#: registrations made before its fork (:func:`registry_generation`).
_GENERATION = 0


def register_target(name: str, fn: Target | None = None, *, warm: Warm | None = None):
    """Register ``fn`` as a sweep target (usable as a decorator).

    ``warm(configs)``, when given, prepares the calling process to
    evaluate ``configs`` — typically by importing what ``fn`` imports
    lazily.  It must not change any result.
    """

    def _register(fn: Target) -> Target:
        global _GENERATION
        _REGISTRY[name] = fn
        _WARM[name] = warm
        _GENERATION += 1
        return fn

    return _register(fn) if fn is not None else _register


def get_target(name: str) -> Target:
    """Resolve a registered target by name.

    ``chaos`` and ``optimize`` resolve lazily — importing
    :mod:`repro.chaos` / :mod:`repro.optimize` registers them — so CLI
    and service jobs can name either without a prior import.
    """
    if name == "chaos" and name not in _REGISTRY:
        import repro.chaos  # noqa: F401 - registers the target
    if name == "optimize" and name not in _REGISTRY:
        import repro.optimize  # noqa: F401 - registers the target

    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown sweep target {name!r} (registered: {known})") from None


def resolve_target(name: str, configs: Iterable[dict]) -> Target:
    """Resolve ``name`` and run its ``warm`` hook on ``configs``.

    The sweep engine calls this once per sweep with the configs it is
    about to evaluate, before forking any worker, so every worker
    inherits a process that has already paid the target's imports.
    """
    fn = get_target(name)
    warm = _WARM.get(name)
    if warm is not None:
        warm(list(configs))
    return fn


def registry_generation() -> int:
    """How many registrations this process has made.

    A worker forked at generation ``g`` resolves by name exactly the
    targets registered before it; :class:`repro.sweep.supervise.WorkerSet`
    retires a worker older than the current generation instead of
    lending it out.
    """
    return _GENERATION


def warm_imports(*modules: str) -> Warm:
    """A ``warm`` hook that imports ``modules``."""

    def warm(configs: list[dict]) -> None:
        del configs
        for module in modules:
            importlib.import_module(module)

    return warm


def warm_inner(key: str) -> Warm:
    """A ``warm`` hook for a target that evaluates another one, named by
    each config's ``key``.  Unknown names are skipped: they fail per
    point, exactly as without warming."""

    def warm(configs: list[dict]) -> None:
        for name in sorted({c[key] for c in configs if isinstance(c.get(key), str)}):
            try:
                resolve_target(name, [])
            except KeyError:
                pass

    return warm


def target_names() -> list[str]:
    """Registered target names, sorted."""
    return sorted(_REGISTRY)


#: What a flat value must be to pass as each declared scalar type.  A
#: ``bool`` is an ``int`` to Python, but neither an ``int`` nor a
#: ``float`` here; a ``float`` is any finite number.
_TYPE_CHECKS: dict[str, Callable[[object], bool]] = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and math.isfinite(v)
    ),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}


def _check_type(target: str, key: str, value, declared: str):
    """Return ``value`` if it is of the ``declared`` type (an annotation
    string such as ``"int"`` or ``"float | None"``); raise ``ValueError``
    naming ``target`` and ``key`` otherwise."""
    if not any(_TYPE_CHECKS[kind.strip()](value) for kind in declared.split("|")):
        raise ValueError(f"{target} {key!r} must be {declared}, got {value!r}")
    return value


def _split_kwargs(target: str, cfg: dict, cls, skip: tuple[str, ...] = ()) -> dict:
    """Pop every key of ``cfg`` that is a dataclass field of ``cls``,
    except the fields named in ``skip``, checking each value against the
    type its field declares."""
    return {
        f.name: _check_type(target, f.name, cfg.pop(f.name), f.type)
        for f in fields(cls)
        if f.name in cfg and f.name not in skip
    }


def _check_number(target: str, key: str, value, *, integer: bool = False, zero: bool = False):
    """Return ``value`` if it is a finite number above 0 (or equal to 0
    when ``zero``), and an ``int`` when ``integer``; raise ``ValueError``
    naming ``target`` and ``key`` otherwise.  A ``bool`` is not a number."""
    kinds = int if integer else (int, float)
    if (
        not isinstance(value, kinds)
        or isinstance(value, bool)
        or not (isinstance(value, int) or math.isfinite(value))
        or not (value >= 0 if zero else value > 0)
    ):
        sign = "non-negative" if zero else "positive"
        kind = "integer" if integer else "finite number"
        raise ValueError(f"{target} {key!r} must be a {sign} {kind}, got {value!r}")
    return value


def reject_unknown_keys(target: str, cfg: dict) -> None:
    """Fail on the keys a builder left unconsumed in ``cfg``."""
    if cfg:
        raise ValueError(f"unknown {target} sweep keys: {sorted(cfg)}")


def _fault_schedule(faults):
    """A point's ``faults`` value as a ``FaultSchedule``, ``None`` if empty.

    Only the dict form is accepted: ``FaultSchedule.from_json`` reads a
    string as a file path, and a point is data, not a file to open.
    """
    from ..faults import FaultSchedule

    if faults is not None and not isinstance(faults, dict):
        raise TypeError("'faults' must be a FaultSchedule JSON object")
    return FaultSchedule.from_json(faults) if faults else None


#: ``SimConfig`` fields built from structured values, never set flat.
_STRUCTURED_SIM_FIELDS = (
    "workload", "costs", "scheduler", "slo", "seed", "faults", "recovery", "slo_rules"
)


def serving_scenario(config: dict, seed: int):
    """Build ``(SimConfig, economics)`` from the serving target's flat keys.

    ``economics`` holds the ``compact_record`` keyword arguments that turn
    on its cost fields; it is empty unless ``gpu_cost_per_hour`` is set.
    """
    from ..faults import RecoveryPolicy
    from ..serving import MTPConfig, SchedulerConfig, SimConfig, StepCostModel, WorkloadSpec

    cfg = dict(config)
    cfg.pop("seed", None)  # already folded into the point seed
    mtp = {"enabled": _check_type("serving", "mtp", cfg.pop("mtp", False), "bool")}
    if "mtp_acceptance" in cfg:
        acceptance = cfg.pop("mtp_acceptance")
        mtp["acceptance_rate"] = _check_type("serving", "mtp_acceptance", acceptance, "float")
    faults = cfg.pop("faults", None)
    recovery = cfg.pop("recovery", None)
    if recovery is not None and not isinstance(recovery, dict):
        raise TypeError("'recovery' must be an object of RecoveryPolicy kwargs")
    recovery = dict(recovery or {})
    recovery_kwargs = _split_kwargs("serving", recovery, RecoveryPolicy)
    reject_unknown_keys("serving recovery", recovery)
    # The flat key ``slo`` is the SLO monitor rule list (compact strings or
    # SloRule.to_dict() shapes), i.e. SimConfig.slo_rules, not SimConfig.slo.
    slo_rules = cfg.pop("slo", None)
    if slo_rules is not None and (not isinstance(slo_rules, (list, tuple)) or not slo_rules):
        raise ValueError("serving 'slo' must be a non-empty list of rules")
    # Economics opt-in: a $/GPU-hour figure turns on the objective-ready
    # cost_per_token / goodput_tokens_per_s fields in the compact record
    # (repro.serving.report).  Absent, payloads are byte-identical to
    # pre-economics output.
    gpu_cost_per_hour = cfg.pop("gpu_cost_per_hour", None)
    if gpu_cost_per_hour is not None:
        _check_number("serving", "gpu_cost_per_hour", gpu_cost_per_hour, zero=True)
    workload = WorkloadSpec(**_split_kwargs("serving", cfg, WorkloadSpec))
    scheduler = SchedulerConfig(**_split_kwargs("serving", cfg, SchedulerConfig))
    scalars = _split_kwargs("serving", cfg, SimConfig, skip=_STRUCTURED_SIM_FIELDS)
    reject_unknown_keys("serving", cfg)
    sim = SimConfig(
        workload=workload,
        costs=StepCostModel(mtp=MTPConfig(**mtp)),
        scheduler=scheduler,
        seed=seed,
        faults=_fault_schedule(faults),
        **({"recovery": RecoveryPolicy(**recovery_kwargs)} if recovery_kwargs else {}),
        **({"slo_rules": tuple(slo_rules)} if slo_rules else {}),
        **scalars,
    )
    economics = (
        {"gpus": sim.prefill_gpus + sim.decode_gpus, "gpu_cost_per_hour": gpu_cost_per_hour}
        if gpu_cost_per_hour is not None
        else {}
    )
    return sim, economics


@register_target("serving", warm=warm_imports("repro.faults", "repro.serving"))
def _serving_target(config: dict, seed: int) -> dict:
    from ..serving import ServingSimulator, compact_record

    sim, economics = serving_scenario(config, seed)
    return compact_record(ServingSimulator(sim).run(), **economics)


#: The flowsim target's flat keys and their defaults.
_FLOWSIM_DEFAULTS = {
    "num_leaves": 4,
    "hosts_per_leaf": 4,
    "num_spines": 4,
    "shifts": 3,
    "size_bytes": 64e6,
    "sim_mode": "event",
}


def flowsim_params(config: dict) -> dict:
    """Check the flowsim target's flat keys and fill in the defaults.

    Builds nothing: the topology and the routed flows grow with the
    counts, so this is the check a point can pass cheaply.
    """
    from ..network.flowsim import SIM_MODES

    cfg = dict(config)
    cfg.pop("seed", None)
    params = {key: cfg.pop(key, default) for key, default in _FLOWSIM_DEFAULTS.items()}
    reject_unknown_keys("flowsim", cfg)
    for key in ("num_leaves", "hosts_per_leaf", "num_spines", "shifts"):
        _check_number("flowsim", key, params[key], integer=True)
    hosts = params["num_leaves"] * params["hosts_per_leaf"]
    if params["shifts"] >= hosts:
        raise ValueError(
            f"flowsim 'shifts' must be below num_leaves * hosts_per_leaf = {hosts} "
            f"(shift {hosts} sends each host to itself), got {params['shifts']}"
        )
    _check_number("flowsim", "size_bytes", params["size_bytes"])
    mode = params["sim_mode"]
    if mode not in SIM_MODES:
        raise ValueError(f"flowsim 'sim_mode' must be one of {SIM_MODES}, got {mode!r}")
    return params


def flowsim_scenario(config: dict):
    """Build ``(topology, flows, sim_mode)`` from the flowsim target's flat keys."""
    from ..network import shifted_ring_flows, two_layer_fat_tree

    params = flowsim_params(config)
    topo = two_layer_fat_tree(
        num_leaves=params["num_leaves"],
        hosts_per_leaf=params["hosts_per_leaf"],
        num_spines=params["num_spines"],
    )
    flows = shifted_ring_flows(topo, range(1, 1 + params["shifts"]), params["size_bytes"])
    return topo, flows, params["sim_mode"]


@register_target("flowsim", warm=warm_imports("repro.network", "networkx"))
def _flowsim_target(config: dict, seed: int) -> dict:
    del seed  # the routed shifted-ring pattern is fully deterministic
    from ..network import FlowSimulator

    topo, flows, mode = flowsim_scenario(config)
    result = FlowSimulator(topo).simulate(flows, mode=mode)
    total = sum(f.size for f in flows)
    return {
        "flows": len(flows),
        "makespan_ms": result.makespan * 1e3,
        "aggregate_gbytes_per_s": total / result.makespan / 1e9 if result.makespan else 0.0,
    }


def training_scenario(config: dict, seed: int):
    """Build the ``(args, kwargs)`` of
    :func:`repro.training.simulate_checkpointed_training` from the
    training target's flat keys."""
    cfg = dict(config)
    cfg.pop("seed", None)
    faults = cfg.pop("faults", None)
    args = tuple(
        _check_number("training", key, cfg.pop(key, default), zero=zero)
        for key, default, zero in (
            ("work_s", 48 * 3600.0, False),
            ("interval_s", 3600.0, False),
            ("checkpoint_s", 60.0, True),
            ("restart_s", 300.0, True),
        )
    )
    mtbf = cfg.pop("mtbf_s", None)
    kwargs = {
        "mtbf": None if mtbf is None else _check_number("training", "mtbf_s", mtbf),
        "faults": _fault_schedule(faults),
        "seed": seed,
    }
    reject_unknown_keys("training", cfg)
    return args, kwargs


@register_target("training", warm=warm_imports("repro.faults", "repro.training"))
def _training_target(config: dict, seed: int) -> dict:
    from ..training import simulate_checkpointed_training

    args, kwargs = training_scenario(config, seed)
    return simulate_checkpointed_training(*args, **kwargs).asdict()


#: The submit-time checks of the built-in targets, by target name: the
#: pure builder, except for flowsim, whose flows are routed at run time.
_BUILDERS: dict[str, Callable[[dict], object]] = {
    "serving": lambda config: serving_scenario(config, 0),
    "flowsim": flowsim_params,
    "training": lambda config: training_scenario(config, 0),
}


def check_points(target: str, points: Iterable[dict], base: dict) -> None:
    """Check every point of a sweep of ``target`` before anything forks.

    Each point is merged over ``base``, keyed (:func:`canonical_config`)
    and checked by :func:`dry_build`.  The first bad point raises
    ``ValueError("<target> point <point>: <reason>")``, followed by
    ``" (base: <base>)"`` when ``base`` is non-empty, since the failing
    key may come from there.
    """
    shared = f" (base: {base})" if base else ""
    for point in points:
        merged = {**base, **point}
        try:
            canonical_config(merged)
            dry_build(target, merged)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{target} point {point}: {exc}{shared}") from exc


def dry_build(target: str, config: dict) -> None:
    """Check one ``target`` point without running it.

    Raises ``ValueError`` with the builder's message when the point
    would fail.  A serving or training point is built; a flowsim point
    only has its keys checked (:func:`flowsim_params`).  The check reads
    no file and does work bounded by the size of the point.  Targets
    without a pure builder are not checked.
    """
    build = _BUILDERS.get(target)
    if build is None:
        return
    try:
        build(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(str(exc)) from exc
