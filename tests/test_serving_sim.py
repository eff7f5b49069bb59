"""Request-level serving simulator (repro.serving)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rng import seeded_generator
from repro.inference.serving import ServingConfig, serving_point
from repro.serving import (
    COLOCATED,
    DISAGGREGATED,
    KVPoolConfig,
    MTPConfig,
    SLO,
    PagedKVPool,
    Request,
    SchedulerConfig,
    ServingSimulator,
    SimConfig,
    StepCostModel,
    WorkloadSpec,
    kv_pool_blocks,
    report_asdict,
)


def _smoke_config(**overrides) -> SimConfig:
    workload = overrides.pop(
        "workload",
        WorkloadSpec(
            request_rate=4.0,
            num_requests=40,
            prompt_mean=256,
            prompt_cv=0.3,
            output_mean=64,
            output_cv=0.3,
        ),
    )
    return SimConfig(workload=workload, **overrides)


# -- workload generation --------------------------------------------------


def test_poisson_arrivals_match_rate():
    spec = WorkloadSpec(request_rate=5.0, num_requests=4000)
    from repro.serving import generate_requests

    requests = generate_requests(spec, seeded_generator(0))
    gaps = np.diff([0.0] + [r.arrival for r in requests])
    assert np.mean(gaps) == pytest.approx(1 / 5.0, rel=0.1)


def test_bursty_arrivals_have_higher_cv():
    from repro.serving import generate_requests

    poisson = WorkloadSpec(request_rate=5.0, num_requests=4000)
    bursty = WorkloadSpec(request_rate=5.0, num_requests=4000, arrival="bursty")
    gap_cv = []
    for spec in (poisson, bursty):
        requests = generate_requests(spec, seeded_generator(0))
        gaps = np.diff([0.0] + [r.arrival for r in requests])
        gap_cv.append(np.std(gaps) / np.mean(gaps))
    assert gap_cv[0] == pytest.approx(1.0, rel=0.1)  # Poisson: CV 1
    assert gap_cv[1] > 1.5  # hyperexponential burstiness

    # Mean rate is preserved by the mixture.
    mean_gap = np.mean(np.diff([r.arrival for r in generate_requests(bursty, seeded_generator(1))]))
    assert mean_gap == pytest.approx(1 / 5.0, rel=0.15)


def test_fixed_lengths_with_zero_cv():
    from repro.serving import generate_requests

    spec = WorkloadSpec(num_requests=10, prompt_mean=100, prompt_cv=0.0, output_mean=7, output_cv=0.0)
    for r in generate_requests(spec, seeded_generator(0)):
        assert r.prompt_tokens == 100
        assert r.output_tokens == 7


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(request_rate=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(arrival="adversarial")
    with pytest.raises(ValueError):
        WorkloadSpec(burst_factor=0.5, arrival="bursty")


# -- paged KV pool --------------------------------------------------------


def _req(rid: int) -> Request:
    return Request(rid=rid, arrival=0.0, prompt_tokens=1, output_tokens=1)


def test_paged_pool_allocate_extend_free():
    pool = PagedKVPool(KVPoolConfig(total_blocks=10, block_tokens=16))
    a, b = _req(1), _req(2)
    assert pool.allocate(a, 33)  # 3 blocks
    assert (pool.used_blocks, a.kv_tokens) == (3, 48)
    assert pool.extend(a, 48)  # still 3 blocks
    assert (pool.used_blocks, a.kv_tokens) == (3, 48)
    assert pool.extend(a, 49)  # 4th block
    assert (pool.used_blocks, a.kv_tokens) == (4, 64)
    assert not pool.allocate(b, 16 * 7)  # 7 blocks > 6 free
    assert b.kv_tokens == 0
    assert pool.allocate(b, 16 * 6)
    assert b.kv_tokens == 96
    assert not pool.extend(a, 65)  # pool exhausted
    assert a.kv_tokens == 64
    pool.free(b)
    assert b.kv_tokens == 0
    assert pool.extend(a, 65)
    assert a.kv_tokens == 80
    pool.free(a)
    assert a.kv_tokens == 0
    assert pool.used_blocks == 0


def test_paged_pool_errors():
    pool = PagedKVPool(KVPoolConfig(total_blocks=4))
    a, b = _req(1), _req(2)
    pool.allocate(a, 10)
    with pytest.raises(ValueError):
        pool.allocate(a, 10)
    assert (a.kv_tokens, pool.free_blocks) == (64, 3)
    with pytest.raises(KeyError):
        pool.extend(b, 10)
    with pytest.raises(KeyError):
        pool.free(b)
    pool.free(a)
    with pytest.raises(KeyError):
        pool.free(a)  # a second free of the same holding
    assert pool.free_blocks == 4


def test_paged_pool_holding_is_the_request_cursor():
    """Held blocks are ``kv_tokens // block_tokens``: the pool's used
    blocks are the sum over holders, and a failed call moves nothing."""
    pool = PagedKVPool(KVPoolConfig(total_blocks=8, block_tokens=4))
    holders = [_req(rid) for rid in range(3)]
    for request, tokens in zip(holders, (1, 5, 9)):
        assert pool.allocate(request, tokens)
    assert [r.kv_tokens for r in holders] == [4, 8, 12]
    assert pool.used_blocks == sum(r.kv_tokens // 4 for r in holders) == 6
    assert not pool.extend(holders[0], 13)  # 3 more blocks, 2 free
    assert not pool.allocate(_req(9), 9)
    assert [r.kv_tokens for r in holders] == [4, 8, 12]
    assert pool.free_blocks == 2


def test_paged_pool_whole_pool_rule_boundary():
    """A request of exactly the pool's tokens fits; one token more can
    never fit and is dropped, unless a fault window is open."""
    pool = PagedKVPool(KVPoolConfig(total_blocks=5, block_tokens=16))
    whole = 5 * 16
    assert not pool.never_fits(whole, 0)
    assert pool.never_fits(whole + 1, 0)
    assert not pool.never_fits(whole + 1, 1)  # may fit after repair
    request = _req(1)
    assert not pool.allocate(request, whole + 1)
    assert pool.allocate(request, whole)
    assert pool.free_blocks == 0


def test_kv_pool_sizing_tracks_table1():
    from repro.model.config import DEEPSEEK_V3
    from repro.model.kvcache import kv_cache_bytes_per_token
    from repro.core.hardware import H800

    cfg = kv_pool_blocks(DEEPSEEK_V3, H800, num_gpus=2, ep_degree=256, block_tokens=64)
    tokens = cfg.total_blocks * cfg.block_tokens
    # Capacity in bytes stays below the 2-GPU HBM budget but above half
    # of it (KV dominates once weights shard over EP256).
    cap = tokens * kv_cache_bytes_per_token(DEEPSEEK_V3)
    assert cap < 2 * H800.hbm_bytes
    assert cap > H800.hbm_bytes


# -- determinism ----------------------------------------------------------


def test_same_seed_identical_reports():
    config = _smoke_config(mode=DISAGGREGATED, seed=7)
    first = ServingSimulator(config).run()
    second = ServingSimulator(config).run()
    assert first == second


def test_different_seeds_differ():
    first = ServingSimulator(_smoke_config(seed=1)).run()
    second = ServingSimulator(_smoke_config(seed=2)).run()
    assert first != second


def test_rerun_with_mtp_replays_the_same_draws():
    mtp = StepCostModel(mtp=MTPConfig(enabled=True, acceptance_rate=0.85))
    simulator = ServingSimulator(_smoke_config(costs=mtp))
    first = simulator.run()
    assert first.mtp_acceptance_measured > 0
    assert simulator.run() == first


@pytest.mark.parametrize("record_requests", [False, True])
def test_caller_registry_report_reads_only_its_own_run(record_requests):
    from repro.obs import MetricsRegistry

    config = _smoke_config(mode=DISAGGREGATED, record_requests=record_requests)
    fresh = ServingSimulator(config).run()
    registry = MetricsRegistry()
    simulator = ServingSimulator(config, metrics=registry)
    assert simulator.run() == fresh
    assert simulator.run() == fresh  # repeated run on one registry
    assert ServingSimulator(config, metrics=registry).run() == fresh  # shared registry
    # The registry's channels hold the latest run; its counters add up.
    snapshot = registry.snapshot()
    assert snapshot["serving.queue_depth"] == [list(s) for s in fresh.queue_depth_trace]
    assert snapshot["serving.requests_completed"] == 3 * fresh.completed


def test_step_costs_are_computed_once_per_key():
    """1,000 requests, disaggregated 2+6 at 40 req/s, seed 0: the step-cost
    memo runs ``decode_stage_times`` once per distinct
    ``(per_device_batch, context)`` key and counts prefill FLOPs once per
    distinct ``(tokens, gpus)`` key.  Dropping a memo multiplies these
    counts (1,781 decode calls without the decode store) while every
    report stays the same, so only this pin sees it."""
    from unittest import mock

    from repro.serving import costmodel

    config = SimConfig(
        workload=WorkloadSpec(request_rate=40.0, num_requests=1000),
        mode=DISAGGREGATED,
        prefill_gpus=2,
        decode_gpus=6,
        seed=0,
    )
    decode = mock.Mock(wraps=costmodel.decode_stage_times)
    prefill = mock.Mock(wraps=costmodel.forward_flops_per_token)
    with mock.patch.object(costmodel, "decode_stage_times", decode), mock.patch.object(
        costmodel, "forward_flops_per_token", prefill
    ):
        assert ServingSimulator(config).run().completed == 1000
    assert decode.call_count == len(config.costs._decode_cache) == 12
    assert prefill.call_count == len(config.costs._prefill_cache) == 126


# -- calibration against the closed forms ---------------------------------


def test_steady_state_tpot_matches_analytic():
    """The pinned contract: a saturated decode pool at fixed batch
    reproduces ``inference.serving``'s analytic TPOT within 5%."""
    decode_gpus = 1
    streams = 16  # = 2 micro-batches x per-device batch 4 x (1+1) GPUs
    workload = WorkloadSpec(
        request_rate=1000.0,  # everyone arrives at once: saturated pool
        num_requests=streams,
        prompt_mean=256,
        prompt_cv=0.0,
        output_mean=128,
        output_cv=0.0,
    )
    serving = ServingConfig(context_tokens=512)
    config = SimConfig(
        workload=workload,
        costs=StepCostModel(serving=serving),
        mode=COLOCATED,
        prefill_gpus=1,
        decode_gpus=decode_gpus,
        scheduler=SchedulerConfig(max_concurrent_per_gpu=2 * 4),
        context_bucket=512,
        seed=3,
    )
    simulator = ServingSimulator(config)
    report = simulator.run()
    assert report.completed == streams

    pool_gpus = 1 + decode_gpus
    per_device = math.ceil(streams / (2 * pool_gpus))
    analytic = serving_point(serving, per_device).tpot
    profile = simulator.fold.batch_profile
    assert streams in profile, f"no full-batch steps in {profile}"
    steps, total = profile[streams]
    assert steps > 100
    assert abs(total / steps - analytic) / analytic < 0.05
    # Per-request TPOT sees the same steady state.
    assert abs(report.tpot.p50 - analytic) / analytic < 0.05


def test_mtp_speeds_up_decode():
    base = _smoke_config(seed=5)
    mtp = _smoke_config(
        costs=StepCostModel(mtp=MTPConfig(enabled=True, acceptance_rate=0.85)), seed=5
    )
    plain = ServingSimulator(base).run()
    spec = ServingSimulator(mtp).run()
    assert spec.tpot.p50 < plain.tpot.p50 / 1.5  # ~1.8x from §2.3.3
    assert spec.mtp_acceptance_measured == pytest.approx(0.85, abs=0.08)
    assert spec.tokens_generated == plain.tokens_generated  # same outputs


@settings(max_examples=300, deadline=None)
@given(
    mtp=st.booleans(),
    batch=st.integers(1, 1024),
    more_batch=st.integers(1, 1024),
    context=st.integers(1, 131_072),
    more_context=st.integers(1, 131_072),
)
def test_decode_step_time_never_falls_as_load_grows(
    mtp, batch, more_batch, context, more_context
):
    """Metamorphic: a bigger per-device batch or a longer context never
    makes a decode step cheaper, with speculation on or off.  The
    neighbouring batch and context are checked too, since a dip can be
    one step wide."""
    costs = StepCostModel(mtp=MTPConfig(enabled=mtp))
    step = costs.decode_step_time(batch, context)
    for grown in (
        (batch + 1, context),
        (batch + more_batch, context),
        (batch, context + 1),
        (batch, context + more_context),
        (batch + more_batch, context + more_context),
    ):
        assert costs.decode_step_time(*grown) >= step, grown


# -- KV pressure and preemption -------------------------------------------


def test_kv_exhaustion_preempts_and_recovers():
    workload = WorkloadSpec(
        request_rate=50.0,
        num_requests=24,
        prompt_mean=192,
        prompt_cv=0.0,
        output_mean=96,
        output_cv=0.0,
    )
    config = _smoke_config(
        workload=workload,
        kv_blocks_per_gpu=12,  # 8 GPUs x 12 blocks x 64 tokens: tight
        seed=11,
    )
    simulator = ServingSimulator(config)
    report = simulator.run()
    assert report.completed == 24
    assert report.preemptions > 0
    assert report.peak_kv_occupancy > 0.9
    assert not simulator.fold.dropped
    # Preempted requests re-ran prefill yet still produced full outputs.
    assert report.tokens_generated == 24 * 96


def test_oversized_request_dropped_not_deadlocked():
    workload = WorkloadSpec(
        request_rate=10.0,
        num_requests=5,
        prompt_mean=10_000,
        prompt_cv=0.0,
        output_mean=8,
        output_cv=0.0,
    )
    config = _smoke_config(workload=workload, kv_blocks_per_gpu=4, block_tokens=64, seed=0)
    simulator = ServingSimulator(config)
    report = simulator.run()
    assert report.completed == 0
    assert len(simulator.fold.dropped) == 5


# -- disaggregation -------------------------------------------------------


def test_disaggregation_cuts_decode_tail_at_equal_hardware():
    workload = WorkloadSpec(
        request_rate=6.0,
        num_requests=80,
        prompt_mean=1024,
        prompt_cv=0.5,
        output_mean=128,
        output_cv=0.5,
        arrival="bursty",
    )
    colocated = ServingSimulator(
        _smoke_config(workload=workload, mode=COLOCATED, seed=2)
    ).run()
    disaggregated = ServingSimulator(
        _smoke_config(workload=workload, mode=DISAGGREGATED, seed=2)
    ).run()
    assert colocated.completed == disaggregated.completed == 80
    assert disaggregated.tpot.p99 < colocated.tpot.p99


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode="hybrid")
    with pytest.raises(ValueError):
        SimConfig(prefill_gpus=0)
    with pytest.raises(ValueError):
        SimConfig(kv_blocks_per_gpu=0)
    with pytest.raises(ValueError):
        MTPConfig(acceptance_rate=1.5)
    with pytest.raises(ValueError):
        SchedulerConfig(max_prefill_tokens=0)
    with pytest.raises(ValueError):
        StepCostModel(prefill_efficiency=0.0)


# -- report surface -------------------------------------------------------


def test_report_traces_and_rates_consistent():
    report = ServingSimulator(_smoke_config(seed=9)).run()
    assert report.completed == 40
    assert report.duration > 0
    assert report.throughput_tokens_per_s == pytest.approx(
        report.tokens_generated / report.duration
    )
    assert 0 <= report.slo_attainment <= 1
    assert report.queue_depth_trace and report.kv_occupancy_trace
    times = [t for t, _ in report.queue_depth_trace]
    assert times == sorted(times)
    assert all(0 <= v <= 1 for _, v in report.kv_occupancy_trace)
    assert report.ttft.p50 <= report.ttft.p99 <= report.ttft.max


# -- streaming vs record equivalence --------------------------------------


def _record_and_stream(**base):
    """Run one scenario in record mode and in streaming mode."""
    recorder = ServingSimulator(SimConfig(record_requests=True, **base))
    streamer = ServingSimulator(SimConfig(**base))
    return recorder, recorder.run(), streamer, streamer.run()


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from([COLOCATED, DISAGGREGATED]),
    mtp=st.booleans(),
    arrival=st.sampled_from(["poisson", "bursty"]),
    num_requests=st.integers(1, 120),
    kv_blocks_per_gpu=st.sampled_from([None, 4, 6, 12]),  # 4-12: preemption
    window_s=st.sampled_from([None, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_streaming_matches_record_mode_exactly(
    mode, mtp, arrival, num_requests, kv_blocks_per_gpu, window_s, seed
):
    """One event engine, one aggregate fold, two report builders: every
    exact aggregate and every window is identical across the modes,
    and the streaming latency stats equal a reference histogram fed
    the record run's per-request latencies."""
    from repro.obs.metrics import Histogram

    recorder, rec, streamer, stream = _record_and_stream(
        workload=WorkloadSpec(
            request_rate=8.0,
            num_requests=num_requests,
            prompt_mean=256,
            output_mean=64,
            arrival=arrival,
        ),
        costs=StepCostModel(mtp=MTPConfig(enabled=mtp)),
        mode=mode,
        kv_blocks_per_gpu=kv_blocks_per_gpu,
        slo=SLO(ttft=0.05, tpot=0.015),  # tight, so some requests miss it
        window_s=window_s,
        seed=seed,
    )

    for field in (
        "completed",
        "tokens_generated",
        "duration",
        "preemptions",
        "decode_steps",
        "prefill_batches",
        "mtp_acceptance_measured",
        "slo_attainment",
        "throughput_tokens_per_s",
        "goodput_requests_per_s",
        "max_queue_depth",
        "peak_kv_occupancy",
        "windows",
    ):
        assert getattr(stream, field) == getattr(rec, field), field
    # Running sums vs numpy pairwise summation differ only in the last
    # ulp; the means are otherwise the same exact sample sets.
    for field in ("mean_queue_depth", "mean_kv_occupancy"):
        assert getattr(stream, field) == pytest.approx(getattr(rec, field), rel=1e-12)

    # Record mode keeps per-request records; streaming keeps none.
    assert len(recorder.fold.finished) == rec.completed
    assert streamer.fold.finished is None
    assert rec.degradation is None and stream.degradation is None
    assert recorder.fold.dropped == streamer.fold.dropped

    # Every request either finished or was dropped, and the registry's
    # counters agree with the report.
    for simulator, report in ((recorder, rec), (streamer, stream)):
        assert report.completed + len(simulator.fold.dropped) == num_requests
        counters = simulator.metrics.snapshot()
        assert counters["serving.requests_completed"] == report.completed
        assert counters["serving.requests_dropped"] == len(simulator.fold.dropped)
        assert counters["serving.preemptions"] == report.preemptions
        assert counters["serving.decode_steps"] == report.decode_steps
        assert counters["serving.prefill_batches"] == report.prefill_batches

    ttft, tpot, e2e = Histogram("ttft"), Histogram("tpot"), Histogram("e2e")
    for request in recorder.fold.finished:  # finish order, like streaming
        ttft.observe(request.ttft)
        if request.has_tpot:
            tpot.observe(request.tpot)
        e2e.observe(request.e2e)
    for hist, stats in ((ttft, stream.ttft), (tpot, stream.tpot), (e2e, stream.e2e)):
        if hist.count == 0:
            continue  # both report the all-zero stats
        assert stats.mean == hist.mean
        assert stats.max == hist.max
        assert stats.p50 == hist.percentile(50)
        assert stats.p95 == hist.percentile(95)
        assert stats.p99 == hist.percentile(99)


def test_streaming_percentiles_track_record_mode():
    """Histogram percentiles track the exact (record-mode) ones closely:
    ~1% bucket error at growth 1.02, plus the nearest-rank vs
    linear-interpolation definition gap on finite samples."""
    _, rec, _, stream = _record_and_stream(
        workload=WorkloadSpec(request_rate=6.0, num_requests=300, arrival="bursty"),
        mode=DISAGGREGATED,
        seed=5,
    )
    for exact, approx in ((rec.ttft, stream.ttft), (rec.e2e, stream.e2e)):
        for q in ("p50", "p95", "p99"):
            assert getattr(approx, q) == pytest.approx(getattr(exact, q), rel=0.05)


# -- metamorphic: time scaling ----------------------------------------------


class _DoubledCosts(StepCostModel):
    """Every step cost exactly twice the base model's."""

    def decode_step_time(self, per_device_batch: int, context_tokens: int) -> float:
        return 2.0 * super().decode_step_time(per_device_batch, context_tokens)

    def prefill_time(self, total_prompt_tokens: int, num_gpus: int) -> float:
        return 2.0 * super().prefill_time(total_prompt_tokens, num_gpus)

    def kv_transfer_time(self, context_tokens: int) -> float:
        return 2.0 * super().kv_transfer_time(context_tokens)


#: Report leaves measured in seconds, and in events per second.
_TIME_FIELDS = {"duration", "ttft", "tpot", "e2e", "start", "end", "time"}
_RATE_FIELDS = {"throughput_tokens_per_s", "goodput_requests_per_s"}


def _assert_scaled(base, scaled, factor: float, streaming: bool, path: tuple = ()) -> None:
    """``scaled`` is ``base`` with every time leaf times ``factor``,
    every rate leaf divided by it and every other leaf unchanged.

    Histogram bucket indices move with the scale, so a histogram is
    compared through its exact aggregates; in streaming mode the
    latency percentiles are bucket midpoints, each within ``growth``
    of the sample they stand for.
    """
    if isinstance(base, dict):
        assert base.keys() == scaled.keys(), path
        if "buckets" in base:  # a window's histogram
            for key in ("count", "zero", "growth"):
                assert scaled[key] == base[key], path + (key,)
            for key in ("total", "min", "max"):
                assert scaled[key] == factor * base[key], path + (key,)
            counts = [sum(c for _, c in h["buckets"]) for h in (base, scaled)]
            assert counts[0] == counts[1], path
            return
        for key in base:
            _assert_scaled(base[key], scaled[key], factor, streaming, path + (key,))
        return
    if isinstance(base, (list, tuple)):
        assert len(base) == len(scaled), path
        trace = bool(path) and str(path[-1]).endswith("_trace")
        for index, (b, s) in enumerate(zip(base, scaled)):
            if trace:  # (time, value) pairs
                assert s == (factor * b[0], b[1]), path + (index,)
            else:
                _assert_scaled(b, s, factor, streaming, path + (index,))
        return
    names = set(path[-2:])
    if names & _TIME_FIELDS:
        if streaming and path[-1] in ("p50", "p95", "p99"):
            growth = 1.02  # repro.obs.metrics.Histogram's default
            assert scaled == pytest.approx(factor * base, rel=growth - 1), path
        else:
            assert scaled == factor * base, path
    elif names & _RATE_FIELDS:
        assert scaled == base / factor, path
    else:
        assert scaled == base, path


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from([COLOCATED, DISAGGREGATED]),
    mtp=st.booleans(),
    arrival=st.sampled_from(["poisson", "bursty"]),
    num_requests=st.integers(1, 120),
    kv_blocks_per_gpu=st.sampled_from([None, 8, 12]),  # 8-12: preemption
    window_s=st.sampled_from([None, 1.0]),
    record=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_doubling_every_cost_and_the_arrival_clock_doubles_every_time(
    mode, mtp, arrival, num_requests, kv_blocks_per_gpu, window_s, record, seed
):
    """Twice the step costs, half the arrival rate, twice the SLO
    limits and window width: the same run on a clock twice as slow.
    Scaling by 2 is exact in binary floating point, so every time (and
    every trace event's ``ts``/``dur``) doubles exactly, every rate
    halves, and every count, SLO verdict and sampled value is equal."""
    from repro.obs import Tracer

    def run(factor: float, costs: StepCostModel):
        tracer = Tracer()
        config = SimConfig(
            workload=WorkloadSpec(
                request_rate=16.0 / factor,
                num_requests=num_requests,
                prompt_mean=256,
                output_mean=64,
                arrival=arrival,
            ),
            costs=costs,
            mode=mode,
            kv_blocks_per_gpu=kv_blocks_per_gpu,
            slo=SLO(ttft=0.05 * factor, tpot=0.015 * factor),
            window_s=None if window_s is None else window_s * factor,
            slo_rules=("burn>2@0.9",) if window_s is not None else (),
            record_requests=record,
            seed=seed,
        )
        sim = ServingSimulator(config, tracer=tracer)
        return report_asdict(sim.run()), sim.metrics.snapshot(), tracer.events

    mtp_config = MTPConfig(enabled=mtp)
    base, base_metrics, base_events = run(1.0, StepCostModel(mtp=mtp_config))
    scaled, scaled_metrics, scaled_events = run(2.0, _DoubledCosts(mtp=mtp_config))

    _assert_scaled(base, scaled, 2.0, streaming=not record)
    counters = {k: v for k, v in base_metrics.items() if isinstance(v, (int, float))}
    assert counters == {k: scaled_metrics[k] for k in counters}
    assert len(base_events) == len(scaled_events)
    for b, s in zip(base_events, scaled_events):
        assert s.keys() == b.keys()
        for key in b:
            assert s[key] == (2.0 * b[key] if key in ("ts", "dur") else b[key]), key
