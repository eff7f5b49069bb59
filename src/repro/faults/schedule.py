"""Fault schedules: explicit timestamped failures and MTBF sampling.

§5.1.1/§6.1 argue robustness *dynamically* — nodes die mid-run, planes
isolate the blast radius, checkpoints bound the lost work.  The static
closed forms in :mod:`repro.reliability` quantify those claims in
expectation; a :class:`FaultSchedule` lets the discrete-event
simulators experience them: a seeded, deterministic sequence of
timestamped :class:`FaultEvent`\\ s that each simulator interprets in
its own domain (GPU/node losses for serving pools, link/switch/plane
outages for the flow simulator, interruption instants for the
checkpointed trainer).

Schedules are either written out explicitly (tests, benches, JSON
files) or sampled from an MTBF via :func:`repro.core.rng.seeded_generator`
— the same root-seed discipline as every other stochastic stream, so a
``(seed, schedule)`` pair fully determines a faulty run, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..core.rng import seeded_generator
from ..reliability.failures import ComponentReliability, cluster_mtbf

#: Recognized fault kinds and the simulators that consume them.
#: ``gpu``/``node`` target serving pools (a node is ``NODE_GPUS`` GPUs),
#: ``link``/``switch``/``plane`` target network fabrics, ``step``
#: interrupts the checkpointed trainer.  Simulators silently skip kinds
#: outside their domain, so one schedule can drive a joint scenario.
KINDS = ("gpu", "node", "link", "switch", "plane", "step")

#: GPUs lost per failed node (the paper's H800 server).
NODE_GPUS = 8

#: Stream name for MTBF sampling (decorrelated from workload/mtp draws).
FAULT_STREAM = "faults"


def _is_number(value) -> bool:
    """An int or float, not a bool (``True`` is an int to Python)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _seconds(entry: dict, key: str, default: float | None = None) -> float:
    """A schedule entry's time field as a float; ValueError if it is
    missing (with no default) or not a number."""
    if default is None and key not in entry:
        raise ValueError(f"fault event needs {key!r}: {entry!r}")
    value = entry.get(key, default)
    if not _is_number(value):
        raise ValueError(f"fault event {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"fault event {key!r} is out of range: {value!r}") from None


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One injected failure.

    Attributes:
        time: Injection instant on the simulated clock (seconds).
        kind: One of :data:`KINDS`.
        target: Domain-specific victim: a serving pool name (``gpu``/
            ``node``), a link ``"a|b"`` or switch name (``link``/
            ``switch``), a plane index as a string (``plane``); unused
            for ``step``.
        count: Units lost (GPUs, nodes); link/switch/plane/step faults
            ignore it.
        mttr: Mean time to repair — the component rejoins ``mttr``
            seconds after the failure.  ``inf`` (the default) means it
            never recovers within the run.
    """

    time: float
    kind: str
    target: str = ""
    count: int = 1
    mttr: float = math.inf

    def __post_init__(self) -> None:
        if not (_is_number(self.time) and 0 <= self.time < math.inf):
            raise ValueError(f"fault time must be finite and non-negative, got {self.time!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {KINDS})")
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        if not (_is_number(self.mttr) and self.mttr > 0):  # NaN fails too
            raise ValueError(
                f"mttr must be positive (inf = never repaired), got {self.mttr!r}"
            )

    @property
    def gpus_lost(self) -> int:
        """GPUs this event removes from a serving pool."""
        return self.count * (NODE_GPUS if self.kind == "node" else 1)

    def to_dict(self) -> dict:
        """JSON-friendly form (``mttr`` omitted when infinite)."""
        out: dict = {"time": self.time, "kind": self.kind}
        if self.target:
            out["target"] = self.target
        if self.count != 1:
            out["count"] = self.count
        if math.isfinite(self.mttr):
            out["mttr"] = self.mttr
        return out


@dataclass(frozen=True)
class FaultSchedule:
    """A time-sorted sequence of fault events.

    The empty schedule is the explicit "faults disabled" value: every
    simulator treats it exactly like no schedule at all, which
    ``tests/test_simcore_golden.py`` pins byte-for-byte.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events)))

    def __bool__(self) -> bool:
        return bool(self.events)

    def for_kinds(self, kinds: tuple[str, ...]) -> tuple[FaultEvent, ...]:
        """Events a simulator handling ``kinds`` should consume."""
        return tuple(e for e in self.events if e.kind in kinds)

    def times(self, kinds: tuple[str, ...] | None = None) -> tuple[float, ...]:
        """Failure instants, optionally filtered by kind."""
        events = self.events if kinds is None else self.for_kinds(kinds)
        return tuple(e.time for e in events)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize as ``{"events": [...]}`` (sorted, deterministic)."""
        return json.dumps(
            {"events": [e.to_dict() for e in self.events]}, indent=2, sort_keys=True
        ) + "\n"

    @classmethod
    def from_json(cls, source: str | Path | dict) -> "FaultSchedule":
        """Load a schedule from a JSON file path, JSON text, or dict.

        Any malformed schedule — not an object, ``events`` not a list,
        an entry that is not an object or lacks ``time``/``kind``, or a
        field :class:`FaultEvent` refuses — raises ``ValueError``.
        """
        if isinstance(source, dict):
            payload = source
        else:
            text = str(source)
            if text.lstrip().startswith("{"):
                payload = json.loads(text)
            else:
                payload = json.loads(Path(source).read_text())
        entries = payload.get("events", []) if isinstance(payload, dict) else None
        if not isinstance(entries, list):
            raise ValueError("a fault schedule is an object with an 'events' list")
        events = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"fault event must be an object, got {entry!r}")
            if "kind" not in entry:
                raise ValueError(f"fault event needs 'kind': {entry!r}")
            events.append(
                FaultEvent(
                    time=_seconds(entry, "time"),
                    kind=entry["kind"],
                    target=str(entry.get("target", "")),
                    count=entry.get("count", 1),
                    mttr=_seconds(entry, "mttr", math.inf),
                )
            )
        return cls(events=tuple(events))

    # -- MTBF-driven sampling --------------------------------------------

    @classmethod
    def sampled(
        cls,
        mtbf: float,
        horizon: float,
        seed: int,
        *,
        kind: str = "gpu",
        targets: tuple[str, ...] = ("pool",),
        count: int = 1,
        mttr: float = math.inf,
        stream: str = FAULT_STREAM,
    ) -> "FaultSchedule":
        """Sample Poisson failures at the given MTBF over ``horizon``.

        Interarrival gaps are exponential with mean ``mtbf``; each
        event's target is drawn uniformly from ``targets``.  All draws
        come from ``seeded_generator(seed, stream)``, so the schedule —
        and therefore the whole faulty run — is a pure function of the
        seed.
        """
        if mtbf <= 0 or horizon <= 0:
            raise ValueError("mtbf and horizon must be positive")
        if not targets:
            raise ValueError("need at least one target")
        rng = seeded_generator(seed, stream)
        events = []
        t = float(rng.exponential(mtbf))
        while t < horizon:
            target = targets[int(rng.integers(len(targets)))]
            events.append(
                FaultEvent(time=t, kind=kind, target=target, count=count, mttr=mttr)
            )
            t += float(rng.exponential(mtbf))
        return cls(events=tuple(events))

    @classmethod
    def sampled_cluster(
        cls,
        num_nodes: int,
        horizon: float,
        seed: int,
        *,
        reliability: ComponentReliability | None = None,
        gpus_per_node: int = NODE_GPUS,
        targets: tuple[str, ...] = ("pool",),
        mttr: float = math.inf,
    ) -> "FaultSchedule":
        """Sample node failures at the §6.1 cluster rate (1/N MTBF).

        The MTBF comes from :func:`repro.reliability.cluster_mtbf` —
        component rates summed over the fleet — so the schedule's
        failure density reflects the same hardware model the static
        analysis uses.
        """
        mtbf = cluster_mtbf(num_nodes, reliability, gpus_per_node)
        return cls.sampled(
            mtbf, horizon, seed, kind="node", targets=targets, count=1, mttr=mttr
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a serving pool survives injected capacity loss.

    Attributes:
        retry_budget: Failed (fault-evicted) requests are requeued at
            most this many times; the next failure drops them.
        backoff_base: First-retry delay (seconds) before the request
            re-enters the prefill queue.
        backoff_factor: Exponential growth of successive retry delays:
            retry ``k`` waits ``backoff_base * backoff_factor**(k-1)``.
        degraded_queue_limit: While any fault window is open, arrivals
            beyond this total queue depth are shed (dropped at the
            door) instead of piling onto a shrunken pool — FCFS makes
            the newest entrant the lowest-priority one.
    """

    retry_budget: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    degraded_queue_limit: int = 256

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if self.backoff_base <= 0 or self.backoff_factor < 1:
            raise ValueError("need backoff_base > 0 and backoff_factor >= 1")
        if self.degraded_queue_limit < 1:
            raise ValueError("degraded_queue_limit must be positive")


def parse_faults_arg(
    spec: str,
    *,
    horizon: float,
    seed: int,
    kind: str = "gpu",
    targets: tuple[str, ...] = ("pool",),
    count: int = 1,
) -> FaultSchedule:
    """Parse a CLI ``--faults`` value.

    Two forms are accepted:

    * ``mtbf:MTBF[:MTTR[:HORIZON]]`` — MTBF-sampled schedule (seconds);
      MTTR defaults to ``MTBF / 10``, the horizon to the caller's
      scenario estimate.
    * anything else — a path to a schedule JSON file.
    """
    if spec.startswith("mtbf:"):
        parts = spec.split(":")[1:]
        if not parts or not parts[0]:
            raise ValueError("--faults mtbf: needs a value, e.g. mtbf:200:50")
        mtbf = float(parts[0])
        mttr = float(parts[1]) if len(parts) > 1 else mtbf / 10.0
        if len(parts) > 2:
            horizon = float(parts[2])
        return FaultSchedule.sampled(
            mtbf, horizon, seed, kind=kind, targets=targets, count=count, mttr=mttr
        )
    return FaultSchedule.from_json(Path(spec))
