"""Per-layer host-time accounting, installed from outside the program.

A :class:`Profiler` replaces selected class or module attributes of the
``repro`` package with ``perf_counter_ns`` timing wrappers, and puts the
original objects back (by identity) when the traced region ends.  Nothing
under ``src/`` knows it is being measured.

Each wrapped call pushes a frame on a call stack; when it returns, its
elapsed time is charged to its own layer as *total* and, minus the time
its wrapped children took, as *self* time.  Self times therefore
partition the root call exactly: the sum of every layer's self time
equals the root's total, which is what lets a traced run account for
all of its wall time.

The wrapper itself costs time.  :func:`calibrate` measures that cost on
an empty method, and :func:`corrected_self_ns` subtracts it: the part
spent inside the timed interval from the called layer, the part spent
outside it from the caller.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Hook",
    "LayerTotals",
    "Profiler",
    "calibrate",
    "corrected_self_ns",
    "diff",
]


@dataclass(frozen=True)
class Hook:
    """One callable to time, charged to ``layer``.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  With
    ``count_true`` the wrapper also counts calls that returned a truthy
    value (the useful-outcome ratio of an allocator, for example).
    """

    layer: str
    target: str
    count_true: bool = False


@dataclass
class LayerTotals:
    """Accumulated accounting of one layer."""

    total_ns: int = 0
    self_ns: int = 0
    calls: int = 0
    child_calls: int = 0  # wrapped calls made directly from this layer
    true_calls: int = 0


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Profiler:
    """Call-stack self-time accounting over wrapped callables."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerTotals] = {}
        self._stack: list[list[int]] = []  # per open call: [child_ns, child_calls]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, count_true: bool = False):
        """A timing wrapper around ``fn`` charged to ``layer``."""
        totals = self.layers.setdefault(layer, LayerTotals())
        stack = self._stack
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                totals.total_ns += elapsed
                totals.self_ns += elapsed - frame[0]
                totals.calls += 1
                totals.child_calls += frame[1]
            if count_true and result:
                totals.true_calls += 1
            return result

        return functools.update_wrapper(timed, fn)

    @contextmanager
    def installed(self, hooks):
        """Patch every hook's target for the duration of the block."""
        try:
            for hook in hooks:
                owner, attr = _resolve(hook.target)
                original = vars(owner).get(attr)
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"{hook.target} is not a plain function attribute")
                setattr(owner, attr, self.wrap(hook.layer, original, hook.count_true))
                self._patched.append((owner, attr, original))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def snapshot(self) -> dict[str, LayerTotals]:
        """A copy of the accumulators, for per-phase deltas via :func:`diff`."""
        return {name: LayerTotals(**vars(t)) for name, t in self.layers.items()}


def diff(after: dict[str, LayerTotals], before: dict[str, LayerTotals]) -> dict[str, LayerTotals]:
    """Per-layer ``after - before``."""
    out = {}
    for name, t in after.items():
        b = before.get(name, LayerTotals())
        out[name] = LayerTotals(
            total_ns=t.total_ns - b.total_ns,
            self_ns=t.self_ns - b.self_ns,
            calls=t.calls - b.calls,
            child_calls=t.child_calls - b.child_calls,
            true_calls=t.true_calls - b.true_calls,
        )
    return out


class _Probe:
    """Calibration target: a method called through an instance, the way
    the hooked simulator methods are called."""

    def step(self, a, b) -> None:
        pass


def calibrate(calls: int = 50_000, rounds: int = 5) -> dict[str, float]:
    """Wrapper cost per call, in nanoseconds (median of ``rounds``).

    Three loops of ``calls`` iterations run under a wrapped parent: one
    with an empty body, one calling an empty two-argument method, and one
    calling the same method hooked.  From their self times:

    * ``bare_ns`` — a plain call of the empty method (present untraced);
    * ``inside_ns`` — what the wrapper adds inside the timed interval,
      which lands in the called layer's own time;
    * ``outside_ns`` — what it adds outside that interval, which lands
      in the caller's self time.
    """
    samples: dict[str, list[float]] = {"bare_ns": [], "inside_ns": [], "outside_ns": []}
    probe = _Probe()
    for _ in range(rounds):
        prof = Profiler()

        def loop_empty():
            for _ in range(calls):
                pass

        def loop_calls():
            for _ in range(calls):
                probe.step(1, 2)

        prof.wrap("empty", loop_empty)()
        prof.wrap("plain", loop_calls)()
        with prof.installed([Hook("child", f"{__name__}:_Probe.step")]):
            prof.wrap("wrapped", loop_calls)()
        layers = prof.layers
        bare = (layers["plain"].self_ns - layers["empty"].self_ns) / calls
        samples["bare_ns"].append(bare)
        samples["inside_ns"].append(layers["child"].total_ns / calls - bare)
        samples["outside_ns"].append(
            (layers["wrapped"].self_ns - layers["plain"].self_ns) / calls + bare
        )
    out = {name: max(0.0, statistics.median(values)) for name, values in samples.items()}
    out["per_call_ns"] = out["inside_ns"] + out["outside_ns"]
    return out


def corrected_self_ns(totals: LayerTotals, calibration: dict[str, float]) -> float:
    """Self time with the calibrated wrapper cost removed (never negative)."""
    value = (
        totals.self_ns
        - totals.calls * calibration["inside_ns"]
        - totals.child_calls * calibration["outside_ns"]
    )
    return max(0.0, value)
