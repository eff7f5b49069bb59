"""Windowed aggregation over simulation time (tumbling windows).

Post-hoc snapshots answer "how did the run end up"; the paper's SLO
framing (§2.3, §5) asks "did TTFT/TPOT hold *continuously*" — through
a fault window, a traffic burst, a KV-pressure spike.
:class:`WindowedMetrics` answers that at O(windows) memory: events are
folded into fixed-width windows on the simulated clock as they happen
(counters, mean/max stats, geometric-bucket :class:`Histogram`s for
bounded-error percentiles), and nothing per-event is retained.

The window *rollup* (:meth:`WindowedMetrics.rollup`) is deliberately
the mergeable raw state, not a summary: histograms keep their bucket
counts, so rollups from different sweep points combine exactly via
:meth:`Histogram.merge` (:func:`merge_window_rollups`), and summaries
(:func:`window_summaries` — throughput, goodput, attainment, latency
percentiles per window) are always derived *after* any merging.

Window membership is half-open: window ``k`` covers sim-times in
``[k * width, (k + 1) * width)``, so each event lands in exactly one
window.  A run may touch at most :data:`MAX_WINDOWS` windows: the
rollup materializes every window up to the last one touched, so a
``window_s`` far below the run's span would otherwise exhaust memory.
"""

from __future__ import annotations

import math

from .metrics import Histogram

__all__ = [
    "MAX_WINDOWS",
    "WindowedMetrics",
    "merge_window_rollups",
    "window_summaries",
]


#: Most windows one run may span.  Every committed scenario uses windows
#: of 1 s or more, far below this; 40 requests at 4 req/s with
#: ``window_s`` 1e-4 would need about 130,000.
MAX_WINDOWS = 100_000


class WindowedMetrics:
    """Fixed-width tumbling-window aggregation on a simulated clock.

    Args:
        width_s: Window width in (sim) seconds.  Per-window histograms
            use :class:`Histogram`'s default bucket growth.
    """

    __slots__ = ("width", "_windows")

    def __init__(self, width_s: float) -> None:
        if width_s <= 0:
            raise ValueError("width_s must be positive")
        self.width = float(width_s)
        # index -> {"counters": {name: value}, "stats": {name: [n, total, max]},
        #           "hists": {name: Histogram}}
        self._windows: dict[int, dict] = {}

    # -- recording -------------------------------------------------------

    def _window(self, t: float) -> dict | None:
        """The window containing ``t`` (``None`` for ``t < 0``)."""
        index = math.floor(t / self.width)
        window = self._windows.get(index)
        if window is None:
            if index < 0:
                return None
            if index >= MAX_WINDOWS:
                raise ValueError(
                    f"window_s {self.width:g} needs more than {MAX_WINDOWS} windows "
                    f"(an event at t={t:g}s); use a wider window_s"
                )
            window = {"counters": {}, "stats": {}, "hists": {}}
            self._windows[index] = window
        return window

    def count(self, name: str, t: float, amount: float = 1.0) -> None:
        """Add ``amount`` to per-window counter ``name`` at time ``t``."""
        window = self._window(t)
        if window is not None:
            counters = window["counters"]
            counters[name] = counters.get(name, 0) + amount

    def sample(self, name: str, t: float, value: float) -> None:
        """Fold one gauge-style observation (kept as count/total/max)."""
        window = self._window(t)
        if window is not None:
            stats = window["stats"]
            entry = stats.get(name)
            if entry is None:
                stats[name] = [1, value, value]
            else:
                entry[0] += 1
                entry[1] += value
                if value > entry[2]:
                    entry[2] = value

    def observe(self, name: str, t: float, value: float) -> None:
        """Fold one sample into per-window histogram ``name``."""
        window = self._window(t)
        if window is not None:
            hists = window["hists"]
            hist = hists.get(name)
            if hist is None:
                hist = hists[name] = Histogram(name)
            hist.observe(value)

    # -- export ----------------------------------------------------------

    def rollup(self) -> list[dict]:
        """The mergeable JSON form: one dict per window, contiguous from
        window 0 through the last touched window.

        Windows nothing landed in are materialized empty — a total
        outage must *appear* in the timeline (zero finished, zero
        goodput), not vanish from it; the SLO monitor depends on that.
        """
        if not self._windows:
            return []
        out = []
        for index in range(max(self._windows) + 1):
            window = self._windows.get(index)
            entry = {
                "index": index,
                "start": index * self.width,
                "end": index * self.width + self.width,
                "counters": {},
                "stats": {},
                "histograms": {},
            }
            if window is not None:
                entry["counters"] = dict(sorted(window["counters"].items()))
                entry["stats"] = {
                    name: {"count": s[0], "total": s[1], "max": s[2]}
                    for name, s in sorted(window["stats"].items())
                }
                entry["histograms"] = {
                    name: hist.to_dict()
                    for name, hist in sorted(window["hists"].items())
                }
            out.append(entry)
        return out


def _copy_window(window: dict) -> dict:
    return {
        "index": window["index"],
        "start": window["start"],
        "end": window["end"],
        "counters": dict(window["counters"]),
        "stats": {name: dict(s) for name, s in window["stats"].items()},
        "histograms": {
            name: {**h, "buckets": [list(b) for b in h["buckets"]]}
            for name, h in window["histograms"].items()
        },
    }


def merge_window_rollups(rollups) -> list[dict]:
    """Combine window rollups from several runs/sweep points, exactly.

    Windows align by index (the geometry — same start/end — must match,
    or ``ValueError``); counters add, stats combine, histograms merge
    via :meth:`Histogram.merge`.  Inputs are not mutated.  The result
    is a valid rollup itself, so merging is associative: per-point →
    per-sweep → cross-sweep rollups all go through this one function.
    """
    merged: dict[int, dict] = {}
    for rollup in rollups:
        if not rollup:
            continue
        for window in rollup:
            index = window["index"]
            agg = merged.get(index)
            if agg is None:
                merged[index] = _copy_window(window)
                continue
            if (window["start"], window["end"]) != (agg["start"], agg["end"]):
                raise ValueError(
                    f"window {index} geometry mismatch: "
                    f"[{window['start']}, {window['end']}) vs "
                    f"[{agg['start']}, {agg['end']})"
                )
            counters = agg["counters"]
            for name, value in window["counters"].items():
                counters[name] = counters.get(name, 0) + value
            stats = agg["stats"]
            for name, s in window["stats"].items():
                entry = stats.get(name)
                if entry is None:
                    stats[name] = dict(s)
                else:
                    entry["count"] += s["count"]
                    entry["total"] += s["total"]
                    entry["max"] = max(entry["max"], s["max"])
            hists = agg["histograms"]
            for name, data in window["histograms"].items():
                if name in hists:
                    hists[name] = (
                        Histogram.from_dict(hists[name], name)
                        .merge(Histogram.from_dict(data, name))
                        .to_dict()
                    )
                else:
                    hists[name] = {**data, "buckets": [list(b) for b in data["buckets"]]}
    return [merged[index] for index in sorted(merged)]


def window_summaries(rollup: list[dict]) -> list[dict]:
    """Derived per-window metrics from a (possibly merged) rollup.

    Each summary carries the window geometry, the raw counters, the
    rates (``throughput_tokens_per_s``, ``goodput_requests_per_s``),
    ``slo_attainment``, per-window means/maxes of every sampled stat,
    and ``<name>_p50/_p95/_p99/_mean/_max`` for every histogram.

    ``slo_attainment`` semantics: ``slo_met / finished`` when anything
    finished; ``0.0`` when traffic arrived but nothing finished (a full
    outage *is* a 0% window — the burn-rate monitor must see it); and
    ``None`` when the window saw no traffic at all (no data, not a
    breach).
    """
    out = []
    for window in rollup:
        width = window["end"] - window["start"]
        counters = window["counters"]
        arrivals = counters.get("arrivals", 0)
        finished = counters.get("finished", 0)
        slo_met = counters.get("slo_met", 0)
        tokens = counters.get("tokens", 0)
        if finished:
            attainment = slo_met / finished
        elif arrivals:
            attainment = 0.0
        else:
            attainment = None
        summary: dict = {
            "index": window["index"],
            "start": window["start"],
            "end": window["end"],
            **counters,
            "throughput_tokens_per_s": tokens / width,
            "goodput_requests_per_s": slo_met / width,
            "slo_attainment": attainment,
        }
        for name, s in window["stats"].items():
            summary[name] = s["total"] / s["count"] if s["count"] else 0.0
            summary[f"{name}_max"] = s["max"] if s["count"] else 0.0
        for name, data in window["histograms"].items():
            hist = Histogram.from_dict(data, name)
            hs = hist.summary()
            summary[f"{name}_count"] = hs.count
            summary[f"{name}_mean"] = hs.mean
            summary[f"{name}_p50"] = hs.p50
            summary[f"{name}_p95"] = hs.p95
            summary[f"{name}_p99"] = hs.p99
            summary[f"{name}_max"] = hs.max
        out.append(summary)
    return out
