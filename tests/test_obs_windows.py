"""Windowed aggregation (repro.obs.windows): membership, rollups, merging."""

import json

import numpy as np
import pytest

from repro.obs import (
    Histogram,
    WindowedMetrics,
    merge_window_rollups,
    window_summaries,
)


# -- window membership -----------------------------------------------------


def _hit_windows(w: WindowedMetrics) -> list[int]:
    return [win["index"] for win in w.rollup() if win["counters"].get("arrivals")]


def test_tumbling_indices_are_half_open():
    for t, index in ((0.0, 0), (1.999, 0), (2.0, 1), (5.0, 2)):
        w = WindowedMetrics(2.0)
        w.count("arrivals", t)
        assert _hit_windows(w) == [index], t  # a boundary opens the next window
    w = WindowedMetrics(2.0)
    w.count("arrivals", -0.5)
    assert w.rollup() == []


def test_constructor_validation():
    with pytest.raises(ValueError):
        WindowedMetrics(0.0)


def test_too_many_windows_raise_naming_window_s():
    """A rollup materializes every window up to the last one touched, so
    a window far narrower than the run would exhaust memory."""
    from repro.obs.windows import MAX_WINDOWS

    w = WindowedMetrics(1.0)
    w.count("arrivals", MAX_WINDOWS - 0.5)  # the last window allowed
    with pytest.raises(ValueError, match="window_s"):
        w.count("arrivals", MAX_WINDOWS)


def test_a_serving_run_with_a_tiny_window_s_is_refused():
    """40 requests at 4 req/s with 1e-4 s windows would materialize about
    130,000 windows; the run raises instead."""
    from repro.sweep import get_target

    config = {"request_rate": 4.0, "num_requests": 40, "window_s": 1e-4}
    with pytest.raises(ValueError, match="window_s"):
        get_target("serving")(config, 0)


# -- rollup ----------------------------------------------------------------


def test_rollup_materializes_empty_windows():
    """A total outage must appear as an empty window, not vanish."""
    w = WindowedMetrics(1.0)
    w.count("finished", 0.5)
    w.count("finished", 3.5)  # nothing in windows 1 and 2
    rollup = w.rollup()
    assert [win["index"] for win in rollup] == [0, 1, 2, 3]
    assert rollup[1]["counters"] == {} and rollup[2]["counters"] == {}
    assert rollup[0]["start"] == 0.0 and rollup[3]["end"] == 4.0


def test_rollup_is_json_and_channels_fold():
    w = WindowedMetrics(2.0)
    w.count("arrivals", 0.1)
    w.count("tokens", 0.2, amount=64)
    w.sample("queue_depth", 0.3, 2.0)
    w.sample("queue_depth", 0.4, 6.0)
    w.observe("ttft", 0.5, 0.12)
    rollup = json.loads(json.dumps(w.rollup()))  # JSON-serializable
    win = rollup[0]
    assert win["counters"] == {"arrivals": 1, "tokens": 64}
    assert win["stats"]["queue_depth"] == {"count": 2, "total": 8.0, "max": 6.0}
    assert Histogram.from_dict(win["histograms"]["ttft"]).count == 1


def test_empty_windowed_metrics_rolls_up_empty():
    assert WindowedMetrics(1.0).rollup() == []


# -- merging ---------------------------------------------------------------


def _rollup_with(seed: int, n: int = 400) -> tuple[list[dict], np.ndarray]:
    rng = np.random.default_rng(seed)
    samples = rng.exponential(0.05, size=n)
    w = WindowedMetrics(2.0)
    for i, value in enumerate(samples):
        t = 8.0 * i / n
        w.count("finished", t)
        w.observe("ttft", t, float(value))
    return w.rollup(), samples


def test_merge_is_exact_and_associative():
    (a, sa), (b, sb), (c, sc) = (_rollup_with(s) for s in (1, 2, 3))
    left = merge_window_rollups([merge_window_rollups([a, b]), c])
    right = merge_window_rollups([a, merge_window_rollups([b, c])])
    assert left == right
    total = sum(win["counters"]["finished"] for win in left)
    assert total == len(sa) + len(sb) + len(sc)
    # Merged histogram percentiles match pooling the raw samples.
    merged = Histogram("ttft", growth=1.02)
    for win in left:
        merged.merge(Histogram.from_dict(win["histograms"]["ttft"]))
    pooled = np.concatenate([sa, sb, sc])
    for q in (50, 95, 99):
        exact = float(np.percentile(pooled, q))
        assert abs(merged.percentile(q) - exact) / exact < 0.03, q


def test_merge_does_not_mutate_inputs():
    a, _ = _rollup_with(1)
    b, _ = _rollup_with(2)
    before = json.dumps([a, b], sort_keys=True)
    merge_window_rollups([a, b])
    assert json.dumps([a, b], sort_keys=True) == before


def test_merge_rejects_geometry_mismatch():
    wa = WindowedMetrics(2.0)
    wa.count("finished", 0.5)
    wb = WindowedMetrics(3.0)
    wb.count("finished", 0.5)
    with pytest.raises(ValueError, match="geometry"):
        merge_window_rollups([wa.rollup(), wb.rollup()])


# -- summaries -------------------------------------------------------------


def test_window_summaries_rates_and_attainment():
    w = WindowedMetrics(2.0)
    for t in (0.1, 0.2, 0.3):
        w.count("arrivals", t)
    w.count("finished", 0.5, amount=2)
    w.count("slo_met", 0.5)
    w.count("tokens", 0.5, amount=128)
    w.count("arrivals", 2.5)  # window 1: arrivals but nothing finished
    w.count("finished", 4.5)  # window 2 exists so window 1 is materialized
    w.count("slo_met", 4.5)
    summaries = window_summaries(w.rollup())
    assert summaries[0]["slo_attainment"] == 0.5
    assert summaries[0]["throughput_tokens_per_s"] == 64.0
    assert summaries[0]["goodput_requests_per_s"] == 0.5
    assert summaries[1]["slo_attainment"] == 0.0  # outage window, not no-data
    assert summaries[2]["slo_attainment"] == 1.0


def test_window_summaries_no_traffic_is_none():
    w = WindowedMetrics(1.0)
    w.sample("queue_depth", 0.5, 3.0)  # a gauge sample is not traffic
    summary = window_summaries(w.rollup())[0]
    assert summary["slo_attainment"] is None
    assert summary["queue_depth"] == 3.0 and summary["queue_depth_max"] == 3.0


def test_window_summaries_histogram_fields():
    w = WindowedMetrics(2.0)
    for value in (0.01, 0.02, 0.04):
        w.count("finished", 0.5)
        w.observe("ttft", 0.5, value)
    summary = window_summaries(w.rollup())[0]
    assert summary["ttft_count"] == 3
    assert summary["ttft_mean"] == pytest.approx(0.07 / 3)
    assert summary["ttft_max"] == pytest.approx(0.04)
    assert 0 < summary["ttft_p50"] <= summary["ttft_p95"] <= summary["ttft_p99"]
