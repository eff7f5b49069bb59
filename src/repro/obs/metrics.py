"""Counters, gauges, time series and streaming histograms.

The simulators in this repository produce *distributions* (tail
latency is the whole point of §2.3.1's disaggregation argument), but
storing every sample does not scale to long runs.  :class:`Histogram`
keeps geometric buckets — ``growth`` controls the relative resolution —
so p50/p95/p99 come out within a known relative error bound of the
exact percentiles at O(buckets) memory, independent of sample count.

Everything lives in a :class:`MetricsRegistry`: a flat, lazily-created
namespace of instruments.  Instruments are plain Python objects with
O(1) updates, cheap enough to leave permanently wired into simulator
hot paths; :meth:`MetricsRegistry.snapshot` renders the whole registry
as a JSON-friendly dict for reports and baselines.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass


class Counter:
    """Monotonically increasing count (events, tokens, preemptions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value of an instantaneous quantity."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class TimeSeries:
    """Recorded ``(time, value)`` samples of one channel.

    This is the generic replacement for the simulator's original
    hard-coded ``queue_depth_trace``/``kv_occupancy_trace`` lists: any
    subsystem can open a channel by name and sample it on its own
    clock.

    By default every sample is kept (exact mode — reports and goldens
    depend on it).  Long-lived processes (the experiment service's
    self-telemetry) pass ``max_points`` to bound memory, with two
    policies:

    * ``mode="ring"`` — keep only the newest ``max_points`` samples
      (a recent-history window);
    * ``mode="decimate"`` — keep the whole time span at decaying
      resolution: whenever the buffer fills, every other sample is
      discarded and the keep-stride doubles, so the first sample is
      always retained and memory never exceeds ``max_points``.

    :class:`repro.serving.report.RunFold` keeps two decimating series
    sampled at the same instants in lockstep: it makes one keep decision
    per sample for both and writes ``samples``, ``_seen`` and
    ``_stride`` exactly as :meth:`record` would (a hypothesis property
    in ``tests/test_serving_report.py`` pins the two equal).
    """

    __slots__ = ("name", "samples", "max_points", "mode", "_stride", "_seen")

    def __init__(
        self,
        name: str,
        max_points: int | None = None,
        mode: str = "ring",
    ) -> None:
        if max_points is not None and max_points < 2:
            raise ValueError("max_points must be >= 2")
        if mode not in ("ring", "decimate"):
            raise ValueError(f"unknown TimeSeries mode {mode!r}")
        self.name = name
        self.max_points = max_points
        self.mode = mode
        self._stride = 1
        self._seen = 0
        if max_points is not None and mode == "ring":
            self.samples: list[tuple[float, float]] = deque(maxlen=max_points)  # type: ignore[assignment]
        else:
            self.samples = []

    def record(self, time: float, value: float) -> None:
        if self.max_points is None or self.mode == "ring":
            self.samples.append((time, value))  # deque maxlen evicts oldest
            return
        self._seen += 1
        if (self._seen - 1) % self._stride:
            return
        self.samples.append((time, value))
        if len(self.samples) >= self.max_points:
            del self.samples[1::2]  # halve resolution, keep the first sample
            self._stride *= 2

    @property
    def values(self) -> list[float]:
        return [v for _, v in self.samples]


@dataclass(frozen=True)
class HistogramSummary:
    """Percentile summary of a histogram (same shape as LatencyStats)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def asdict(self) -> dict:
        """JSON form; :meth:`from_dict` round-trips it *exactly* —
        every field is a float or int, both of which survive
        ``json.dumps``/``loads`` bit-for-bit."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramSummary":
        return cls(
            count=int(data["count"]),
            mean=float(data["mean"]),
            p50=float(data["p50"]),
            p95=float(data["p95"]),
            p99=float(data["p99"]),
            max=float(data["max"]),
        )


class Histogram:
    """Streaming histogram with geometric buckets.

    Positive samples land in bucket ``floor(log(v) / log(growth))``;
    a percentile estimate returns the geometric midpoint of the bucket
    holding that rank, so its relative error is bounded by
    ``sqrt(growth) - 1`` (≈1% at the default ``growth=1.02``) — without
    retaining any samples.  Non-positive samples are counted in a
    dedicated underflow bucket reported as 0.0 (latencies and sizes are
    non-negative; an exact zero is meaningful, e.g. zero queueing).
    """

    __slots__ = ("name", "growth", "_log_growth", "_buckets", "_zero", "count", "total", "_min", "_max")

    def __init__(self, name: str, growth: float = 1.02) -> None:
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        # Branches instead of min()/max() builtins: observe() runs once
        # per retired request on the streaming hot path, and the bounds
        # move only O(log n) times over n samples.
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
            return
        index = math.floor(math.log(value) / self._log_growth)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        Uses the nearest-rank definition over bucket counts; a bucket's
        estimate is its geometric midpoint clamped to the observed
        ``[min, max]``, so the estimate never leaves the sample range.

        Edge semantics (pinned by ``tests/test_obs.py``):

        * empty histogram — every percentile is ``0.0``;
        * ``q == 0`` / ``q == 100`` — the exact observed min / max;
        * single sample (or all samples in one bucket spanning
          ``min == max``) — the clamp collapses the midpoint to the
          exact value, so every percentile is exact.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        if q == 0:
            return self.min
        if q == 100:
            return self.max
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                # Geometric midpoint of [growth^i, growth^(i+1)).
                mid = self.growth ** (index + 0.5)
                return min(max(mid, self._min), self._max)
        return self._max

    def summary(self) -> HistogramSummary:
        return HistogramSummary(
            count=self.count,
            mean=self.mean,
            p50=self.percentile(50),
            p95=self.percentile(95),
            p99=self.percentile(99),
            max=self.max,
        )

    # -- merge / serialization (windowed + cross-point rollups) ----------

    @property
    def zero_count(self) -> int:
        """Samples that landed in the non-positive underflow bucket."""
        return self._zero

    def bucket_counts(self) -> list[tuple[int, int]]:
        """``(bucket_index, count)`` pairs, sorted by index.  Bucket
        ``i`` covers values in ``[growth**i, growth**(i+1))``."""
        return sorted(self._buckets.items())

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram.

        Geometric buckets of equal ``growth`` are alignment-free: the
        merged count, buckets, min and max — and so every percentile —
        equal those of one histogram that observed both sample streams
        directly, which is what makes per-window and per-sweep-point
        histograms roll up without re-observing.  ``total`` (and so
        ``mean``) is a float sum taken in a different order, so it may
        differ from the direct one in the last bits, as it does in over
        half of random two-way splits of lognormal samples.  Returns
        ``self`` for chaining.
        """
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth {other.growth} into {self.growth}"
            )
        self.count += other.count
        self.total += other.total
        self._zero += other._zero
        if other.count:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        return self

    def to_dict(self) -> dict:
        """Full mergeable state as JSON-able data.

        Unlike :meth:`summary` this keeps the raw bucket counts, so
        :meth:`from_dict` reconstructs a histogram that merges and
        estimates percentiles identically to the original.  ``min`` /
        ``max`` are present only when the histogram is non-empty
        (their empty-state sentinels are infinities, which JSON lacks).
        """
        out: dict = {
            "growth": self.growth,
            "count": self.count,
            "total": self.total,
            "zero": self._zero,
            "buckets": [[index, count] for index, count in self.bucket_counts()],
        }
        if self.count:
            out["min"] = self._min
            out["max"] = self._max
        return out

    @classmethod
    def from_dict(cls, data: dict, name: str = "") -> "Histogram":
        hist = cls(name or str(data.get("name", "")), growth=float(data["growth"]))
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist._zero = int(data["zero"])
        hist._buckets = {int(index): int(count) for index, count in data["buckets"]}
        if hist.count:
            hist._min = float(data["min"])
            hist._max = float(data["max"])
        return hist


class MetricsRegistry:
    """Flat namespace of instruments, created on first use.

    A name is bound to exactly one instrument kind for the lifetime of
    the registry — asking for ``counter("x")`` after ``gauge("x")`` is
    a bug and raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, factory, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"{name!r} is already a {type(instrument).__name__}, not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def series(
        self, name: str, *, max_points: int | None = None, mode: str = "ring"
    ) -> TimeSeries:
        """A time series channel.  ``max_points``/``mode`` apply only on
        first creation (they size the channel's buffer); later lookups
        return the existing instrument unchanged."""
        return self._get(
            name, lambda n: TimeSeries(n, max_points=max_points, mode=mode), TimeSeries
        )

    def fresh_series(
        self, name: str, *, max_points: int | None = None, mode: str = "ring"
    ) -> TimeSeries:
        """A new, empty time series bound to ``name``, replacing any
        earlier one — for a channel that covers one run (a simulation
        whose clock restarts at zero) rather than the registry's life."""
        self._get(name, TimeSeries, TimeSeries)  # the name must be free or a series
        series = self._instruments[name] = TimeSeries(name, max_points=max_points, mode=mode)
        return series

    def histogram(self, name: str, growth: float = 1.02) -> Histogram:
        return self._get(name, lambda n: Histogram(n, growth=growth), Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self):
        return iter(sorted(self._instruments.items()))

    def kinds(self) -> dict[str, str]:
        """Instrument kind (``counter``/``gauge``/``series``/``histogram``)
        by name, sorted."""
        kind_names = {
            Counter: "counter",
            Gauge: "gauge",
            TimeSeries: "series",
            Histogram: "histogram",
        }
        return {name: kind_names[type(instrument)] for name, instrument in self}

    def snapshot(self) -> dict[str, object]:
        """JSON-serializable dump of every instrument, sorted by name.

        Counters and gauges render as their value, time series as
        ``[[t, v], ...]`` sample pairs, histograms as a percentile
        summary dict.  This is the one export everything downstream
        consumes: :meth:`rows` (and through it the ``repro trace``
        summary tables) and the experiment service's SSE ``metrics``
        frames.  On a seeded run the snapshot is deterministic —
        ``tests/test_obs.py`` pins it.
        """
        out: dict[str, object] = {}
        for name, instrument in self:
            if isinstance(instrument, (Counter, Gauge)):
                out[name] = instrument.value
            elif isinstance(instrument, TimeSeries):
                out[name] = [[t, v] for t, v in instrument.samples]
            elif isinstance(instrument, Histogram):
                out[name] = instrument.summary().asdict()
        return out

    def rows(self) -> list[list[object]]:
        """Table rows (name, kind, value summary) for human output,
        derived from :meth:`snapshot` so tables and machine exports can
        never disagree."""
        snap = self.snapshot()
        rows: list[list[object]] = []
        for name, kind in self.kinds().items():
            value = snap[name]
            if kind in ("counter", "gauge"):
                rows.append([name, kind, value])
            elif kind == "series":
                rows.append([name, kind, f"{len(value)} samples"])
            else:
                rows.append(
                    [
                        name,
                        kind,
                        f"n={value['count']} p50={value['p50']:.4g} p99={value['p99']:.4g}",
                    ]
                )
        return rows
