"""Decode-step horizons in the serving core.

``ServingSimulator`` runs the quiescent decode steps between two queued
events inline, in one pass (``repro.serving.simulator._HORIZON`` caps
how many one event may advance), traced or not, with MTP or without.
With the cap patched to 1 every step goes through the event calendar,
which is the plain one-event-per-step loop.  These tests check that the
two give identical results and traces, pin the event counts the fold
saves (and that tracing leaves them unchanged), and check conservation
invariants at every popped event under both.  The block-buffered MTP
acceptance stream gets the same treatment: ``_MTP_BLOCK`` patched to 1
is one numpy call per draft, and must give the same run.  So does the
due calendar of non-MTP decode pools: ``_CALENDAR`` patched to False
folds no non-MTP step and completes each through the batch walk.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.serving.simulator as simulator
from repro.faults import FaultEvent, FaultSchedule
from repro.obs import Tracer
from repro.serving import (
    COLOCATED,
    DISAGGREGATED,
    KV_OCCUPANCY,
    QUEUE_DEPTH,
    MTPConfig,
    SchedulerConfig,
    ServingSimulator,
    SimConfig,
    StepCostModel,
    WorkloadSpec,
    report_asdict,
)
from repro.serving.calqueue import CalendarQueue

DEFAULT_HORIZON = simulator._HORIZON
DEFAULT_MTP_BLOCK = simulator._MTP_BLOCK
DEFAULT_CALENDAR = simulator._CALENDAR


@contextlib.contextmanager
def _patched(owner, name: str, value):
    """Set ``owner.name`` for the block (hypothesis tests cannot take the
    function-scoped ``monkeypatch`` fixture)."""
    original = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


@st.composite
def sim_configs(draw) -> SimConfig:
    """Small scenarios covering both modes, KV pressure and preemption,
    batch caps below the active set, faults, windows and MTP."""
    mode = draw(st.sampled_from([COLOCATED, DISAGGREGATED]))
    block_tokens = draw(st.sampled_from([4, 16, 64]))
    kv_blocks = draw(st.sampled_from([None, 3, 6, 12, 48]))
    window_s = draw(st.sampled_from([None, 0.5]))
    faults = None
    if draw(st.booleans()):
        faults = FaultSchedule(
            tuple(
                FaultEvent(
                    draw(st.floats(0.0, 4.0)),
                    draw(st.sampled_from(["gpu", "node"])),
                    draw(st.sampled_from(["", "pool", "prefill", "decode"])),
                    mttr=draw(st.sampled_from([0.3, 2.0, float("inf")])),
                )
                for _ in range(draw(st.integers(1, 2)))
            )
        )
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=draw(st.sampled_from([4.0, 16.0, 64.0])),
            num_requests=draw(st.integers(1, 60)),
            prompt_mean=128,
            output_mean=draw(st.sampled_from([8, 48])),
            arrival=draw(st.sampled_from(["poisson", "bursty"])),
        ),
        costs=StepCostModel(mtp=MTPConfig(enabled=draw(st.booleans()))),
        mode=mode,
        scheduler=SchedulerConfig(max_concurrent_per_gpu=draw(st.sampled_from([1, 2, 64]))),
        kv_blocks_per_gpu=None if kv_blocks is None else kv_blocks * 64 // block_tokens,
        block_tokens=block_tokens,
        context_bucket=draw(st.sampled_from([16, 512])),
        window_s=window_s,
        slo_rules=("burn>2@0.9",) if window_s is not None and draw(st.booleans()) else (),
        faults=faults,
        record_requests=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _outputs(
    config: SimConfig, horizon: int, traced: bool = True, calendar: bool = DEFAULT_CALENDAR
) -> dict:
    tracer = Tracer() if traced else None
    with _patched(simulator, "_HORIZON", horizon), _patched(simulator, "_CALENDAR", calendar):
        sim = ServingSimulator(config, tracer=tracer)
        report = sim.run()
    return {
        "report": report_asdict(report),
        "metrics": sim.metrics.snapshot(),
        "decode_batch_profile": sim.decode_batch_profile,
        "finished": [dataclasses.astuple(r) for r in sim.finished_requests],
        "dropped": sim.dropped,
        "trace": tracer.to_json() if traced else None,
    }


@settings(max_examples=60, deadline=None)
@given(config=sim_configs())
def test_folded_horizons_match_one_step_per_event(config):
    folded = _outputs(config, DEFAULT_HORIZON)
    stepped = _outputs(config, 1)
    for key in folded:
        assert folded[key] == stepped[key], key
    # An untraced run folds the same samples without the trace.
    untraced = _outputs(config, DEFAULT_HORIZON, traced=False)
    for key in untraced.keys() - {"trace"}:
        assert untraced[key] == folded[key], key


@settings(max_examples=60, deadline=None)
@given(config=sim_configs())
def test_due_calendar_matches_the_batch_walk(config):
    calendar = _outputs(config, DEFAULT_HORIZON)
    walk = _outputs(config, DEFAULT_HORIZON, calendar=False)
    for key in calendar:
        assert calendar[key] == walk[key], key


def test_due_calendar_matches_the_batch_walk_under_preemption():
    """A tight-KV colocated run whose preemption victims often come
    later in rid order than the member being extended (they give back
    the token the calendar bumped up front)."""
    config = SimConfig(
        workload=WorkloadSpec(
            request_rate=16.0,
            num_requests=300,
            prompt_mean=256,
            output_mean=96,
            output_cv=0.6,
            arrival="bursty",
        ),
        mode=COLOCATED,
        prefill_gpus=1,
        decode_gpus=3,
        kv_blocks_per_gpu=24,
        block_tokens=16,
        record_requests=True,
        seed=3,
    )
    calendar = _outputs(config, DEFAULT_HORIZON)
    assert calendar["metrics"]["serving.preemptions"] > 100
    walk = _outputs(config, DEFAULT_HORIZON, calendar=False)
    for key in calendar:
        assert calendar[key] == walk[key], key


def _mtp_outputs(config: SimConfig, block: int) -> dict:
    with _patched(simulator, "_MTP_BLOCK", block):
        return _outputs(config, DEFAULT_HORIZON)


@settings(max_examples=40, deadline=None)
@given(config=sim_configs(), acceptance=st.sampled_from([0.0, 0.5, 0.85, 1.0]))
def test_buffered_mtp_draws_match_one_call_per_draft(config, acceptance):
    config = dataclasses.replace(
        config, costs=StepCostModel(mtp=MTPConfig(enabled=True, acceptance_rate=acceptance))
    )
    buffered = _mtp_outputs(config, DEFAULT_MTP_BLOCK)
    scalar = _mtp_outputs(config, 1)
    # "metrics" holds serving.mtp_draft_attempts and _accepted.
    for key in buffered:
        assert buffered[key] == scalar[key], key


def test_mtp_draft_counter_pins():
    """A tight-KV colocated MTP run with preemption: the draft counters
    are exact at any block size."""
    config = SimConfig(
        workload=WorkloadSpec(
            request_rate=16.0,
            num_requests=400,
            prompt_mean=256,
            output_mean=96,
            output_cv=0.6,
            arrival="bursty",
        ),
        costs=StepCostModel(mtp=MTPConfig(enabled=True)),
        mode=COLOCATED,
        prefill_gpus=1,
        decode_gpus=3,
        kv_blocks_per_gpu=24,
        seed=3,
    )
    for block in (DEFAULT_MTP_BLOCK, 7, 1):
        metrics = _mtp_outputs(config, block)["metrics"]
        assert metrics["serving.mtp_draft_attempts"] == 20_634
        assert metrics["serving.mtp_draft_accepted"] == 17_540
        assert metrics["serving.preemptions"] == 75


# -- exact event counts ----------------------------------------------------


def _serve_stream(num_requests: int) -> SimConfig:
    """The ``serve-stream`` benchmark scenario: disaggregated 2+6,
    Poisson 8 req/s, streaming report."""
    return SimConfig(
        workload=WorkloadSpec(request_rate=8, num_requests=num_requests),
        mode=DISAGGREGATED,
        prefill_gpus=2,
        decode_gpus=6,
        seed=0,
    )


def _count_events(
    config: SimConfig, horizon: int, traced: bool = False
) -> tuple[int, int, Counter]:
    """Popped events, decode steps, and the histogram of decode steps
    advanced per started step (the horizon lengths)."""
    popped = 0
    horizons: Counter = Counter()
    pop = CalendarQueue.pop
    advance = ServingSimulator._advance_decode

    def counting_pop(queue):
        nonlocal popped
        popped += 1
        return pop(queue)

    def measuring_advance(sim, *args):
        before = sim.fold.decode_steps
        advance(sim, *args)
        horizons[sim.fold.decode_steps - before] += 1

    with (
        _patched(simulator, "_HORIZON", horizon),
        _patched(CalendarQueue, "pop", counting_pop),
        _patched(ServingSimulator, "_advance_decode", measuring_advance),
    ):
        sim = ServingSimulator(config, tracer=Tracer() if traced else None)
        sim.run()
    return popped, int(sim.metrics.snapshot()["serving.decode_steps"]), horizons


def test_serve_stream_horizon_pins():
    """2,000 requests of ``serve-stream`` at seed 0: the fold keeps every
    decode step and removes ~60% of the popped events."""
    config = _serve_stream(2_000)
    events, steps, horizons = _count_events(config, DEFAULT_HORIZON)
    events_1, steps_1, horizons_1 = _count_events(config, 1)
    assert steps == steps_1 == 20_660
    assert (events, events_1) == (10_520, 26_134)
    assert set(horizons_1) == {1}
    assert sum(horizons_1.values()) == steps_1
    assert sum(n * count for n, count in horizons.items()) == steps
    # Each folded step is one STEP_DONE event the queue never saw.
    assert events_1 - events == steps - sum(horizons.values())
    assert sum(horizons.values()) == 5_046  # a mean horizon of 4.09 steps


def test_tracing_does_not_change_the_event_count():
    """A traced run folds the same steps, so it pops exactly the events
    of the untraced run (2,000 ``serve-stream`` requests, seed 0)."""
    config = _serve_stream(2_000)
    assert _count_events(config, DEFAULT_HORIZON, traced=True) == _count_events(
        config, DEFAULT_HORIZON
    )


def test_mtp_horizons_save_events():
    """An MTP run under KV pressure, preemption, faults and windows (600
    requests of the ``serve-pressure`` scenario, seed 0) folds some steps:
    it pops fewer events for the same decode steps."""
    config = SimConfig(
        workload=WorkloadSpec(
            request_rate=16.0, num_requests=600, arrival="bursty", output_cv=0.6
        ),
        costs=StepCostModel(mtp=MTPConfig(enabled=True)),
        mode=COLOCATED,
        prefill_gpus=2,
        decode_gpus=6,
        kv_blocks_per_gpu=64,
        window_s=30.0,
        slo_rules=("burn>2@0.9",),
        faults=FaultSchedule(
            (
                FaultEvent(6.0, "node", "pool", mttr=60.0),
                FaultEvent(21.0, "gpu", "pool", mttr=30.0),
            )
        ),
        seed=0,
    )
    events, steps, horizons = _count_events(config, DEFAULT_HORIZON)
    events_1, steps_1, _ = _count_events(config, 1)
    assert steps == steps_1 == 1_828
    assert (events, events_1) == (2_161, 2_681)
    assert events_1 - events == steps - sum(horizons.values())


# -- invariants at every event --------------------------------------------


class _InvariantChecker:
    """Checks conservation laws between events, from outside the
    simulator: ``CalendarQueue.pop`` is wrapped so the state is read
    just before each event is taken, when the previous one is done."""

    def __init__(self) -> None:
        self.sim: ServingSimulator | None = None
        self.pools: tuple = ()
        self.finished: list = []
        self.arrivals = 0
        self.clock = 0.0
        self.checks = 0
        self.queue: CalendarQueue | None = None

    def check(self, queue: CalendarQueue) -> None:
        sim = self.sim
        pending = list(queue._heap)
        # The calendar holds O(in-flight) events: arrivals are fed one
        # at a time, and each pool has at most one live step completion
        # (entries of steps a fault aborted are stale).
        assert sum(e[1] == simulator._ARRIVAL for e in pending) <= 1
        for pool in self.pools:
            done = (pool, pool.step_epoch)
            live = [e for e in pending if e[1] == simulator._STEP_DONE and e[3] == done]
            assert len(live) == pool.busy
        in_flight = [
            e[3] for e in pending if e[1] in (simulator._DECODE_ENTER, simulator._RETRY)
        ]
        held_by: dict[int, set[int]] = {}
        for pool in self.pools:
            in_flight += pool.prefill_queue
            in_flight += pool.entry_queue
            in_flight += pool.active
            holders = {r.rid for r in pool.active}
            if pool.busy and pool.current_kind == "prefill":
                in_flight += pool.current_batch
                holders |= {r.rid for r in pool.current_batch}
            held_by[id(pool)] = holders
            # Per-request state matches the pool's running aggregates,
            # and every decode step's batch is the whole active set.
            assert pool.active_ctx == sum(r.prompt_tokens + r.generated for r in pool.active)
            assert len(pool.active) <= pool.decode_cap
            for r in pool.active:
                assert 1 <= r.generated < r.output_tokens
            if pool.due is not None:
                # Every member has a live entry in the due calendar.
                live_due = {r.rid for step, _, r in pool.due if step == pool.due_step(r)}
                assert {r.rid for r in pool.active} <= live_due
        # Every request is in exactly one place.
        assert len({id(r) for r in in_flight}) == len(in_flight)
        # admitted = finished + dropped + in flight
        assert self.arrivals == sim.fold.completed + len(sim.fold.dropped) + len(in_flight)
        # KV blocks: held + free = total, and only live requests hold any.
        for pool in self.pools:
            kv = pool.kv
            held = kv._held
            assert sum(held.values()) + kv.free_blocks == kv.config.total_blocks
            assert set(held) == held_by[id(pool)]
            for r in pool.active:
                assert r.kv_tokens == held[r.rid] * kv.config.block_tokens
        # tokens_generated = sum of generated over finished requests.
        assert sim.fold.tokens == sum(r.generated for r in self.finished)
        self.checks += 1

    def run(self, config: SimConfig, horizon: int) -> ServingSimulator:
        pop = CalendarQueue.pop
        make_pools = ServingSimulator._make_pools
        finish_request = ServingSimulator._finish_request

        def checked_pop(queue):
            self.queue = queue
            self.check(queue)
            entry = pop(queue)
            assert entry[0] >= self.clock  # the clock never runs back
            self.clock = entry[0]
            self.arrivals += entry[1] == simulator._ARRIVAL
            return entry

        def capture_pools(sim):
            self.sim = sim
            self.pools = make_pools(sim)
            return self.pools

        def record_finish(sim, request, *args, **kwargs):
            self.finished.append(request)
            return finish_request(sim, request, *args, **kwargs)

        with (
            _patched(simulator, "_HORIZON", horizon),
            _patched(CalendarQueue, "pop", checked_pop),
            _patched(ServingSimulator, "_make_pools", capture_pools),
            _patched(ServingSimulator, "_finish_request", record_finish),
        ):
            sim = ServingSimulator(config)
            report = sim.run()
        self.check_final(sim, report)
        return sim

    def check_final(self, sim: ServingSimulator, report) -> None:
        # Requests still in flight at the end were never served (a
        # pool that failed for good); the conservation law still holds.
        self.check(self.queue)
        assert self.arrivals == sim.config.workload.num_requests
        unserved = report.degradation.unserved if report.degradation else 0
        assert report.completed + len(sim.dropped) + unserved == self.arrivals
        assert report.tokens_generated == sum(r.generated for r in self.finished)
        for r in self.finished:
            assert r.generated == r.output_tokens
        # Samples taken inside a folded horizon keep the clock monotone.
        snapshot = sim.metrics.snapshot()
        for channel in (QUEUE_DEPTH, KV_OCCUPANCY):
            times = [t for t, _ in snapshot[channel]]
            assert times == sorted(times)
            assert not times or times[-1] <= report.duration


@pytest.mark.parametrize("horizon", [DEFAULT_HORIZON, 1], ids=["default", "one"])
@settings(max_examples=30, deadline=None)
@given(config=sim_configs())
def test_invariants_hold_at_every_event(horizon, config):
    checker = _InvariantChecker()
    checker.run(config, horizon)
    assert checker.checks > 0
