"""Report semantics: degenerate (single-token) requests, SLO rules,
the run fold's channel decimation."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.serving.report as report_module
from repro.obs import MetricsRegistry, TimeSeries
from repro.serving import SLO, RunFold, ServingSimulator, SimConfig, WorkloadSpec, build_report
from repro.serving.workload import Request


def _completed(rid, arrival, first_token, finish, generated) -> Request:
    return Request(
        rid=rid,
        arrival=arrival,
        prompt_tokens=64,
        output_tokens=generated,
        first_token_time=first_token,
        finish_time=finish,
        generated=generated,
    )


def _fold(finished, samples=()) -> RunFold:
    """A record-mode run fold fed these finished requests and
    ``(time, queue depth, used blocks)`` channel samples."""
    fold = RunFold(SLO(), MetricsRegistry(), total_blocks=1, records=True)
    for request in finished:
        fold.finish(request, request.finish_time)
    for sample in samples:
        fold.sample(*sample)
    return fold


def test_single_token_request_has_no_tpot():
    request = _completed(0, 0.0, 1.0, 1.0, generated=1)
    assert not request.has_tpot
    assert request.tpot == 0.0
    assert request.ttft == 1.0


def test_slo_tpot_is_vacuous_for_degenerate_requests():
    slo = SLO(ttft=2.0, tpot=0.1)
    # One generated token, fast TTFT: counts as SLO-met (TTFT decides).
    assert slo.met_by(_completed(0, 0.0, 1.0, 1.0, generated=1))
    # One generated token, slow TTFT: TTFT still gates it.
    assert not slo.met_by(_completed(1, 0.0, 3.0, 3.0, generated=1))
    # Multi-token requests are judged on both objectives.
    assert slo.met_by(_completed(2, 0.0, 1.0, 1.5, generated=11))  # tpot 0.05
    assert not slo.met_by(_completed(3, 0.0, 1.0, 3.0, generated=11))  # tpot 0.2


def test_report_excludes_degenerate_requests_from_tpot_stats():
    finished = [
        _completed(0, 0.0, 1.0, 1.0, generated=1),  # degenerate
        _completed(1, 0.0, 1.0, 2.0, generated=21),  # tpot 0.05
        _completed(2, 0.0, 1.0, 3.0, generated=21),  # tpot 0.1
    ]
    report = build_report(_fold(finished), 10.0)
    assert report.completed == 3
    # Without the degenerate request pulling in an artificial 0.0:
    assert report.tpot.p50 == pytest.approx(0.075)
    assert report.tpot.mean == pytest.approx(0.075)
    # TTFT/E2E still cover every completion.
    assert report.ttft.max == pytest.approx(1.0)
    assert report.e2e.max == pytest.approx(3.0)
    # All three met the SLO (the degenerate one via fast TTFT).
    assert report.slo_attainment == 1.0
    assert report.goodput_requests_per_s == pytest.approx(0.3)


def test_report_all_degenerate_requests():
    finished = [_completed(i, 0.0, 0.5, 0.5, generated=1) for i in range(4)]
    report = build_report(_fold(finished), 2.0)
    assert report.completed == 4
    assert report.tpot.p99 == 0.0  # empty TPOT distribution, defined as zeros
    assert report.slo_attainment == 1.0


def test_zero_duration_rates_are_zero():
    report = build_report(_fold([]), 0.0)
    assert report.throughput_tokens_per_s == 0.0
    assert report.goodput_requests_per_s == 0.0
    assert report.slo_attainment == 0.0


def test_simulated_single_token_workload():
    """End to end: a whole workload of single-token outputs completes
    and reports a zero TPOT distribution, not a crash or fake goodput."""
    workload = WorkloadSpec(
        request_rate=4.0,
        num_requests=20,
        prompt_mean=128,
        prompt_cv=0.0,
        output_mean=1,
        output_cv=0.0,
    )
    report = ServingSimulator(SimConfig(workload=workload)).run()
    assert report.completed == 20
    assert report.tokens_generated == 20
    assert report.tpot.p99 == 0.0
    assert 0 <= report.slo_attainment <= 1


def test_compact_record_economics_fields_are_opt_in():
    from repro.serving import compact_record

    fold = _fold([_completed(1, 0.0, 0.5, 2.0, generated=100)], samples=[(0.0, 0, 0)])
    fold.decode_steps, fold.prefill_batches = 10, 1
    report = build_report(fold, duration=10.0)
    plain = compact_record(report)
    assert "cost_per_token" not in plain and "goodput_tokens_per_s" not in plain
    priced = compact_record(report, gpus=8, gpu_cost_per_hour=2.0)
    # 8 GPUs x $2/h / 3600 s/h / (100 tokens / 10 s) = $4.44e-4/token
    assert priced["cost_per_token"] == pytest.approx(8 * 2.0 / 3600.0 / 10.0)
    assert priced["goodput_tokens_per_s"] == pytest.approx(
        report.throughput_tokens_per_s * report.slo_attainment
    )
    # Everything else is byte-identical to the un-priced record.
    priced.pop("cost_per_token"), priced.pop("goodput_tokens_per_s")
    assert priced == plain
    with pytest.raises(ValueError):
        compact_record(report, gpu_cost_per_hour=2.0)  # gpus required


def test_compact_record_zero_token_cost_is_null():
    from repro.serving import compact_record

    report = build_report(_fold([]), duration=0.0)
    record = compact_record(report, gpus=8, gpu_cost_per_hour=2.0)
    assert record["cost_per_token"] is None
    assert record["goodput_tokens_per_s"] == 0.0


def test_serving_target_gpu_cost_per_hour_rides_the_sweep():
    from repro.sweep import get_target

    base = {"num_requests": 10, "prompt_mean": 64, "output_mean": 16}
    fn = get_target("serving")
    plain = fn(dict(base), seed=3)
    priced = fn({**base, "gpu_cost_per_hour": 2.0}, seed=3)
    assert "cost_per_token" not in plain
    assert priced["cost_per_token"] > 0
    assert priced["goodput_tokens_per_s"] == pytest.approx(
        priced["throughput_tokens_per_s"] * priced["slo_attainment"]
    )


def _series_state(series) -> tuple:
    return list(series.samples), series._seen, series._stride


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 64)), max_size=400),
    max_points=st.one_of(st.none(), st.integers(2, 40)),
)
def test_lockstep_decimation_matches_per_sample_record(levels, max_points):
    """The fold keeps or drops each channel sample in both series with
    one decision; after every sample each series is exactly what its
    own ``TimeSeries.record`` calls would leave (``None`` is a
    record-mode fold, which keeps every sample)."""
    original = report_module.STREAM_TRACE_POINTS
    report_module.STREAM_TRACE_POINTS = max_points or original
    try:
        fold = RunFold(SLO(), MetricsRegistry(), total_blocks=64, records=max_points is None)
    finally:
        report_module.STREAM_TRACE_POINTS = original
    queue = TimeSeries("queue", max_points=max_points, mode="decimate")
    kv = TimeSeries("kv", max_points=max_points, mode="decimate")
    for i, (depth, used) in enumerate(levels):
        t = i * 0.5
        fold.sample(t, depth, used)
        queue.record(t, depth)
        kv.record(t, used / 64)
        assert _series_state(fold.queue_series) == _series_state(queue)
        assert _series_state(fold.kv_series) == _series_state(kv)
