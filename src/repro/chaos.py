"""Deterministic self-chaos: hostile sweep points that prove the platform.

The repository simulates the paper's failure modes (§5) with
:mod:`repro.faults`; this module turns the same philosophy on the
platform itself.  A *chaos point* wraps any registered sweep target and
sabotages its own evaluation — killing the worker process, hanging past
the supervisor timeout, raising, or just running slow — on the first
``chaos_attempts`` attempts, then computes the real inner result.  Run
under :class:`repro.sweep.SupervisorPolicy`, a chaos grid therefore
*converges*: every sabotaged point is retried into a clean result, and
the headline invariant holds:

    the chaos run's per-point results are byte-identical to a
    chaos-free run of the same inner grid, at any worker count.

Determinism discipline — everything is seeded, nothing is sampled at
run time:

* **Assignment** is a pure function of the chaos seed and each inner
  point's canonical config (:func:`chaos_points`): the same grid always
  sabotages the same points the same way.
* **Inner seeds** are pre-derived exactly as the chaos-free reference
  spec would derive them (:meth:`repro.sweep.SweepSpec.point_seed`) and
  embedded in the chaos config, so the wrapped evaluation cannot tell
  it is running under chaos.
* **Sabotage** consults :func:`repro.sweep.current_attempt` — set by
  the supervisor in the forked worker before each attempt — so chaos
  points are idempotent poison: hostile on early attempts, honest
  afterwards.

Typical drill (also in ``EXPERIMENTS.md`` and the CI chaos-smoke job)::

    spec = chaos_spec("serving", configs, seed=7, policy=ChaosPolicy())
    result = run_sweep(spec, workers=4, strict=False,
                       supervise=SupervisorPolicy(timeout_s=5.0))
    reference = run_sweep(reference_spec(spec), workers=4)
    assert_chaos_invariant(result, reference)
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass

from .core.rng import derive_seed
from .sweep import SweepResult, SweepSpec, canonical_config, register_target
from .sweep.supervise import current_attempt
from .sweep.targets import warm_inner

__all__ = [
    "CHAOS_MODES",
    "ChaosError",
    "ChaosPolicy",
    "assert_chaos_invariant",
    "chaos_points",
    "chaos_spec",
    "reference_spec",
]

#: Every sabotage mode the chaos target understands.  ``none`` points
#: ride along unsabotaged so a chaos grid always mixes hostile and
#: honest points.
CHAOS_MODES = ("kill", "hang", "raise", "slow", "none")


class ChaosError(RuntimeError):
    """The injected failure of a ``raise``-mode chaos point."""


@dataclass(frozen=True)
class ChaosPolicy:
    """What fraction of a grid turns hostile, and how.

    Attributes:
        modes: Sabotage modes assigned (seeded, uniform) to sabotaged
            points.  Subset of :data:`CHAOS_MODES` minus ``none``.
        rate: Fraction of points sabotaged (the rest become ``none``).
        attempts: Sabotage the first N attempts of each hostile point;
            attempt N+1 runs honestly.  Must stay below the
            supervisor's ``max_attempts`` for the grid to converge.
        hang_s: Sleep of a ``hang`` point — far beyond any sane
            ``timeout_s``, so only the supervisor's kill ends it.
        slow_s: Sleep of a ``slow`` point *before* computing honestly —
            keep it under ``timeout_s`` to exercise the
            slow-but-fine path, or above it to exercise timeout+retry.
    """

    modes: tuple[str, ...] = ("kill", "hang", "raise", "slow")
    rate: float = 0.5
    attempts: int = 1
    hang_s: float = 3600.0
    slow_s: float = 0.2

    def __post_init__(self) -> None:
        bad = set(self.modes) - (set(CHAOS_MODES) - {"none"})
        if bad or not self.modes:
            raise ValueError(f"invalid chaos modes: {sorted(bad) or 'empty'}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


def chaos_points(
    inner_target: str,
    configs: list[dict],
    *,
    seed: int,
    policy: ChaosPolicy,
) -> list[dict]:
    """Wrap ``configs`` (already merged) into chaos point configs.

    Assignment is seeded per point: a draw derived from ``seed`` and the
    inner config's canonical JSON decides whether the point is
    sabotaged (``policy.rate``) and, independently, which mode it gets.
    The inner seed is pre-derived exactly as
    ``SweepSpec(target=inner_target, points=configs, seed=seed)``
    would, so the wrapped target sees identical ``(config, seed)``
    inputs either way.
    """
    points = []
    for config in configs:
        content = canonical_config(config)
        draw = derive_seed(seed, f"chaos/assign/{content}")
        sabotage = (draw % 2**20) / 2**20 < policy.rate
        mode = policy.modes[
            derive_seed(seed, f"chaos/mode/{content}") % len(policy.modes)
        ] if sabotage else "none"
        inner_seed = (
            int(config["seed"])
            if "seed" in config
            else derive_seed(seed, f"sweep/{inner_target}/{content}")
        )
        points.append(
            {
                "chaos_mode": mode,
                "chaos_attempts": policy.attempts,
                "chaos_hang_s": policy.hang_s,
                "chaos_slow_s": policy.slow_s,
                "inner_target": inner_target,
                "inner": config,
                "inner_seed": inner_seed,
            }
        )
    return points


def chaos_spec(
    inner_target: str,
    configs: list[dict],
    *,
    seed: int,
    policy: ChaosPolicy,
    base: dict | None = None,
    name: str | None = None,
) -> SweepSpec:
    """A ready-to-run chaos sweep over ``inner_target``'s grid.

    ``base`` is merged into each inner config *before* wrapping (so
    sabotage assignment and inner seeds see the full merged config,
    matching what :func:`reference_spec` will run).
    """
    merged = [{**(base or {}), **c} for c in configs]
    return SweepSpec(
        target="chaos",
        points=chaos_points(inner_target, merged, seed=seed, policy=policy),
        seed=seed,
        name=name or f"chaos:{inner_target}",
    )


def reference_spec(spec: SweepSpec) -> SweepSpec:
    """The chaos-free run the invariant compares against.

    Unwraps a :func:`chaos_spec` back to the inner grid under the same
    root seed — by construction every point evaluates with the exact
    ``(config, seed)`` pair its chaos twin used.
    """
    if spec.target != "chaos":
        raise ValueError(f"not a chaos spec (target={spec.target!r})")
    configs = spec.configs()
    inner_targets = {c["inner_target"] for c in configs}
    if len(inner_targets) != 1:
        raise ValueError(f"mixed inner targets: {sorted(inner_targets)}")
    return SweepSpec(
        target=inner_targets.pop(),
        points=[c["inner"] for c in configs],
        seed=spec.seed,
        name=(spec.name or "chaos") + ":reference",
    )


def assert_chaos_invariant(chaos: SweepResult, reference: SweepResult) -> None:
    """The headline check: chaos converged to the chaos-free truth.

    Every non-quarantined chaos point must carry a result byte-identical
    (canonical JSON) to the reference point of the same index; the
    reference run must be error-free.  Raises ``AssertionError`` with
    the first diverging point otherwise.
    """
    if len(chaos.points) != len(reference.points):
        raise AssertionError(
            f"point count mismatch: chaos {len(chaos.points)} "
            f"vs reference {len(reference.points)}"
        )
    for cp, rp in zip(chaos.points, reference.points):
        if rp.error is not None:
            raise AssertionError(
                f"reference point {rp.index} failed: {rp.error['type']}"
            )
        if cp.error is not None:
            if cp.error["type"] == "PointQuarantined":
                continue  # legitimately poisoned out of the run
            raise AssertionError(
                f"chaos point {cp.index} ended with non-quarantine error "
                f"{cp.error['type']}: {cp.error['message']}"
            )
        mine = json.dumps(cp.result, sort_keys=True, separators=(",", ":"))
        truth = json.dumps(rp.result, sort_keys=True, separators=(",", ":"))
        if mine != truth:
            raise AssertionError(
                f"chaos point {cp.index} "
                f"({cp.config['chaos_mode']}) diverged from reference"
            )


@register_target("chaos", warm=warm_inner("inner_target"))
def _chaos_target(config: dict, seed: int) -> dict:
    """Sabotage early attempts, then evaluate the wrapped target.

    ``seed`` (the chaos point's own derived seed) is deliberately
    unused: the inner evaluation runs on the pre-derived
    ``inner_seed`` so its result matches the chaos-free reference.
    """
    del seed
    from .sweep import get_target

    mode = config["chaos_mode"]
    if mode != "none" and current_attempt() <= config["chaos_attempts"]:
        if mode == "raise":
            raise ChaosError(
                f"injected failure (attempt {current_attempt()})"
            )
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(config["chaos_hang_s"])
        if mode == "slow":
            time.sleep(config["chaos_slow_s"])
    return get_target(config["inner_target"])(dict(config["inner"]), config["inner_seed"])
