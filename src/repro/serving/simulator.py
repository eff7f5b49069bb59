"""Seeded discrete-event simulator for LLM serving (§2.3.1–§2.3.3).

Drives individual requests through one or two modeled GPU pools:

* **colocated** — a single pool runs prefill and decode; prefill
  batches block decode steps (prefill-priority), reproducing the
  interference §2.3.1 says motivates disaggregation.
* **disaggregated** — a prefill pool hands finished contexts to a
  decode pool over a modeled KV-cache transfer, so decode steps never
  wait behind prefill bursts.

All stochastic choices (arrivals, lengths, MTP acceptance) come from
named streams of :func:`repro.core.rng.seeded_generator`, and the
event calendar (:class:`repro.serving.calqueue.CalendarQueue`, one
binary heap) breaks time ties with ``(kind, seq)``, so a seed fully
determines the run: two simulations
with the same config produce ``SimReport``s that compare equal — and,
with a :class:`repro.obs.Tracer` attached, byte-identical trace files.

Step costs come from :class:`repro.serving.costmodel.StepCostModel`,
which is calibrated against the analytic rooflines — the simulator
adds queueing, batching, KV-capacity and tail-latency dynamics on top
of the closed forms, it does not re-derive the per-step physics.

Observability: quantitative channels (queue depth, KV occupancy,
counters) live in a :class:`repro.obs.MetricsRegistry`; span-level
structure (request lifecycle queued → prefill → [kv_transfer] →
decode → finish, per-pool step batches, preemption instants) goes to
the tracer, which defaults to the zero-cost
:data:`repro.obs.NULL_TRACER`.  Pools are trace *processes*; requests
are *tracks* in a dedicated "requests" process.

Hot-path design (pinned bit-for-bit by ``tests/test_simcore_golden.py``):

* Requests have identity semantics (``eq=False``), so membership and
  removal never run field-wise dataclass comparison.
* Each pool keeps its active set sorted by rid, the scheduler order
  (arrivals are a cumsum of non-negative gaps in rid order, and a
  preempted or retried request keeps both), with a running integer sum
  of context tokens.  The set never exceeds the pool's decode cap, so
  the decode batch is the whole set, the preemption victim is
  ``active[-1]`` and the batch's mean context needs no per-step
  re-summation.  All maintained aggregates are integers, so they equal
  the from-scratch sums exactly.
* A request's KV holding is one field, ``Request.kv_tokens`` (the
  tokens its held blocks cover), written only by
  :class:`repro.serving.kvpool.PagedKVPool`; a decode step reads it and
  calls into the allocator only when the next token actually crosses a
  block boundary.
* Without MTP a decode pool keeps a *due calendar*.  Every member
  emits one token per completed step, so the step at which it
  finishes and the step at which its next token crosses a KV block
  are fixed while it stays; one min-heap keyed ``(step, rid)`` holds
  the earlier of the two for each member against the pool's
  completed-step counter (filed when it joins, re-filed after each
  extend).  A member's token count is kept relative to that counter
  while it stays, and written back as it leaves, so a completed step
  bumps the counter and then visits, in rid order, only the entries
  due at it; entries of members that left are skipped when popped.  A
  preemption victim other than the member being extended gives back
  the token the walk would not yet have given it.  MTP runs walk the
  active set in place every step, as their acceptance draws are per
  member; ``_CALENDAR = False`` walks non-MTP runs too (and folds none
  of their steps), the reference the tests compare against.
* Quiescent decode steps fold into one *horizon*.  When a decode step
  starts and nothing else could happen before it ends — no queued
  event is due, no request finishes, every KV extend fits and no other
  pool could start work — it completes inline, and so do the steps
  after it, up to the first that cannot.  Without MTP each folded step
  pops the calendar's entries due at it; a finish, or a member a
  re-prefill left under-covered, ends the horizon.  Each folded step
  replays the clock addition, step-cost lookup (only when the context
  bucket changes), batch profile, channel samples and block-crossing
  extends in order (a traced run also emits each step's
  ``decode_step`` span and per-pool counters inline); the step counter
  advances once per horizon, and no member outside the due entries is
  touched.  MTP runs complete each folded step
  through the queued event's own code, drawing acceptance in the same
  rid/step order, so a horizon covers at most half the tokens any
  member has left and needs the two-tokens-each worst case to fit the
  free KV blocks.  Tracing never changes which steps fold.
  ``_HORIZON = 1`` is the plain one-event-per-step loop the tests
  compare against.
* MTP acceptance draws come from a block-buffered stream
  (:func:`repro.core.rng.uniform_stream`): ``_MTP_BLOCK`` uniforms are
  drawn at once from the dedicated ``"mtp"`` generator and consumed one
  per draft attempt, in the same rid/step order.  NumPy returns the
  same values from ``uniform(size=n)`` as from ``n`` scalar calls, and
  nothing else reads that generator, so the run is exact; only the
  per-request numpy call is gone.  ``_MTP_BLOCK = 1`` is the scalar
  reference the tests compare against.
* Every run-level aggregate lives in one
  :class:`repro.serving.report.RunFold`: engine counters are plain
  ints on it (the six fault tallies in one dict keyed by counter
  suffix) and flush into the :class:`MetricsRegistry` once per run, so
  tracing-off runs pay no per-event instrument overhead.  The
  simulator keeps only the engine state and the tracer spans.

Memory design (million-request runs, gated by
``benchmarks/bench_simcore_scale.py``):

* The workload is sampled in bounded chunks into flat numpy columns
  (:class:`repro.serving.workload.RequestColumns`, ~24 bytes/request);
  a mutable :class:`Request` is materialized only when its arrival
  fires, and each arrival event feeds the next, so live Python objects
  are O(active requests).
* One aggregation path: in both modes the run fold takes every
  arrival, drop, finished request (into geometric-bucket histograms
  and running sums, judged against the SLO once) and channel sample
  (into running sums), and runs the window hooks itself.  The default
  streaming report is built from the fold alone by
  :func:`repro.serving.report.build_streaming_report`, with traces
  decimated to ``STREAM_TRACE_POINTS``.  Record mode
  (``SimConfig.record_requests``, implied by fault runs, whose
  degradation report needs per-request timelines) only makes the fold
  keep the request lists and full-resolution traces, from which
  :func:`repro.serving.report.build_report` replaces the latency
  statistics and channel means with exact ones.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter, itemgetter

from ..core.rng import seeded_generator, uniform_stream
from ..faults.report import annotate_alerts, build_degradation
from ..faults.schedule import FaultEvent, FaultSchedule, RecoveryPolicy
from ..obs.metrics import MetricsRegistry
from ..obs.slo import evaluate_slo, parse_slo_rules
from ..obs.trace import NULL_TRACER, Tracer
from ..obs.windows import window_summaries
from .calqueue import CalendarQueue
from .costmodel import StepCostModel
from .kvpool import KVPoolConfig, PagedKVPool, kv_pool_blocks
from .report import (
    SLO,
    RunFold,
    SimReport,
    build_report,
    build_streaming_report,
)
from .scheduler import SchedulerConfig, form_prefill_batch
from .workload import Request, WorkloadSpec, generate_request_columns

COLOCATED = "colocated"
DISAGGREGATED = "disaggregated"

# Event kinds, in tie-breaking order: arrivals and transfers land
# before step completions at the same instant; fault/repair/retry land
# after them (the new kinds extend the order so fault-free heaps sort
# exactly as before).  At one instant a repair precedes a retry, so a
# retried request sees restored capacity.
_ARRIVAL = 0
_DECODE_ENTER = 1
_STEP_DONE = 2
_FAULT = 3
_REPAIR = 4
_RETRY = 5

#: Most decode steps one queued event may advance (the horizon cap).
#: 1 runs every step through the event queue; tests patch it to prove
#: the folded run identical to that one.
_HORIZON = 1 << 30

#: MTP acceptance uniforms drawn per numpy call.  1 is the scalar
#: one-call-per-draft reference the tests compare against.
_MTP_BLOCK = 1024

#: Whether non-MTP decode pools keep a due calendar (see ``_Pool``).
#: False folds no non-MTP step and completes each one through the batch
#: walk MTP uses: the reference the tests compare against.
_CALENDAR = True

#: Fault kinds the serving simulator consumes (see repro.faults).
_SERVING_FAULT_KINDS = ("gpu", "node")

_BY_RID = attrgetter("rid")  # scheduler order (see _Pool)
_ENTRY_RID = itemgetter(1)  # (step, rid, request) calendar entries


@dataclass(frozen=True)
class SimConfig:
    """One serving-simulation scenario.

    Attributes:
        workload: Request stream to generate.
        costs: Calibrated step-cost model (shared by both pools).
        mode: ``"colocated"`` or ``"disaggregated"``.
        prefill_gpus / decode_gpus: Pool sizes.  Colocated mode runs
            one pool of ``prefill_gpus + decode_gpus`` GPUs, so the two
            modes compare at equal hardware.
        scheduler: Batching/admission limits.
        kv_blocks_per_gpu: Paged KV blocks per GPU; ``None`` sizes the
            pool from HBM minus resident weights (Table 1 calibration).
        block_tokens: Tokens per KV block.
        context_bucket: Decode step times are evaluated at the batch's
            mean context rounded up to this granularity (bounds the
            cost-model cache while tracking context growth).
        slo: Goodput objectives.
        seed: Root seed for every stochastic stream.
        faults: Optional fault schedule (``gpu``/``node`` events
            targeting pool names; an empty target means the decode-side
            pool).  ``None`` or an empty schedule leaves the run
            bit-identical to a pre-fault-engine simulation.
        recovery: Retry/backoff/shedding policy for fault survival.
        window_s: Telemetry window width (sim seconds).  ``None`` (the
            default) disables windowed aggregation entirely — the run,
            its report and its trace stay bit-identical to a
            pre-telemetry simulation.
        slo_rules: Declarative SLO monitor rules (anything
            :func:`repro.obs.parse_slo_rules` accepts — ``SloRule``s,
            dicts, or compact strings like ``"burn>2@0.9"``).
            Requires ``window_s``; the resulting alert timeline lands
            in ``SimReport.alerts``.
        record_requests: Record mode is the streaming fold plus kept
            records: the run folds every request and sample exactly as
            in the default *streaming* mode, and additionally keeps the
            per-request records and full-resolution traces (O(total
            requests) memory) to build the exact report from — the mode
            the golden tests pin.  Streaming alone keeps latency
            distributions as geometric-bucket histograms and traces at
            a bounded point budget, so steady-state memory is O(active
            requests + histogram buckets + windows) and million-request
            runs fit in a flat footprint.  Runs with a non-empty fault
            schedule always keep records — the degradation report needs
            per-request timelines.
    """

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    costs: StepCostModel = field(default_factory=StepCostModel)
    mode: str = COLOCATED
    prefill_gpus: int = 2
    decode_gpus: int = 6
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    kv_blocks_per_gpu: int | None = None
    block_tokens: int = 64
    context_bucket: int = 512
    slo: SLO = field(default_factory=SLO)
    seed: int = 0
    faults: FaultSchedule | None = None
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    window_s: float | None = None
    slo_rules: tuple = ()
    record_requests: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (COLOCATED, DISAGGREGATED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.prefill_gpus < 1 or self.decode_gpus < 1:
            raise ValueError("pool sizes must be positive")
        if self.block_tokens < 1 or self.context_bucket < 1:
            raise ValueError("block_tokens and context_bucket must be positive")
        if self.kv_blocks_per_gpu is not None and self.kv_blocks_per_gpu < 1:
            raise ValueError("kv_blocks_per_gpu must be positive")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.slo_rules:
            if self.window_s is None:
                raise ValueError("slo_rules require window_s")
            object.__setattr__(self, "slo_rules", parse_slo_rules(self.slo_rules))


def _channel_levels(pools) -> tuple[int, int]:
    """Queued requests and used KV blocks, summed over the pools."""
    depth = 0
    used = 0
    for p in pools:
        depth += len(p.prefill_queue) + len(p.entry_queue)
        used += p.kv.used_blocks
    return depth, used


class _Pool:
    """Runtime state of one GPU pool.

    ``active`` is kept sorted by rid — the scheduler order, so
    ``active[-1]`` is the preemption victim — and ``active_ctx`` is the
    running integer sum of its members' context tokens (prompt +
    generated).  Both are maintained incrementally at every admission,
    emission, preemption and completion, so per-step scheduling is
    O(batch) with no sorting or re-summation.  The active set never
    exceeds ``decode_cap`` (admission, prefill formation and fault
    eviction all keep it so), so every decode step's batch is the whole
    set.  ``current_kind`` names the in-flight step (``"prefill"`` or
    ``"decode"``) and is ``None`` while the pool is idle.

    Without MTP every member therefore emits exactly one token per
    completed step, and the *due calendar* files one step number per
    member: ``tick`` counts completed decode steps, and the min-heap
    ``due`` holds a live ``(step, rid, request)`` entry for the first
    step at which the member either finishes or needs a token past its
    held KV blocks, filed when it joins and re-filed after each extend.
    Entries of members that have left stay behind and are skipped when
    popped, so no entry outlives its step.  ``due`` is ``None`` under
    MTP, whose members emit one or two tokens a step, and when
    ``_CALENDAR`` is off.

    On a calendar pool a decoding member's ``generated`` is
    *tick-relative*: it holds the member's token count minus ``tick``,
    fixed when the member joins, so a completed step bumps ``tick``
    alone and the due and finish steps are per-member constants.  Read
    a member's count through :meth:`generated`; :meth:`depart` writes
    the absolute count back as the member leaves (a finish, a
    preemption or a fault eviction).
    """

    __slots__ = (
        "name", "pid", "num_gpus", "kv", "does_prefill", "does_decode",
        "prefill_queue", "entry_queue", "active", "active_ctx",
        "current_kind", "current_batch", "step_start", "decode_cap",
        "base_gpus", "base_cap", "base_blocks", "step_epoch",
        "tick", "due",
    )

    def __init__(
        self,
        name: str,
        pid: int,
        num_gpus: int,
        kv: PagedKVPool,
        does_prefill: bool,
        does_decode: bool,
        decode_cap: int,
        calendar: bool = False,
    ) -> None:
        self.name = name
        self.pid = pid  # trace process id
        self.num_gpus = num_gpus
        self.kv = kv
        self.does_prefill = does_prefill
        self.does_decode = does_decode
        self.prefill_queue: deque[Request] = deque()
        self.entry_queue: deque[Request] = deque()  # awaiting KV admission
        self.active: list[Request] = []  # sorted by rid
        self.active_ctx = 0  # sum of context tokens over `active`
        self.decode_cap = decode_cap  # concurrent decode streams sustained
        self.current_kind: str | None = None
        self.current_batch: list[Request] = []
        self.step_start = 0.0
        # Fault-injection baseline: healthy capacity the fault engine
        # scales from, and the epoch counter that invalidates the
        # in-flight _STEP_DONE event when a fault aborts a step.
        self.base_gpus = num_gpus
        self.base_cap = decode_cap
        self.base_blocks = kv.config.total_blocks
        self.step_epoch = 0
        self.tick = 0
        self.due: list | None = [] if calendar else None

    def rescale(self, num_gpus: int) -> None:
        """Run on ``num_gpus`` GPUs (a fault or a repair): decode streams
        and KV blocks scale from the healthy baseline."""
        self.num_gpus = num_gpus
        self.decode_cap = self.base_cap * num_gpus // self.base_gpus
        self.kv.resize(max(1, self.base_blocks * num_gpus // self.base_gpus))

    def add_active(self, request: Request) -> None:
        """Admit a request to the decode set, preserving scheduler order;
        on a calendar pool make its count tick-relative and file its due
        step."""
        insort(self.active, request, key=_BY_RID)
        self.active_ctx += request.prompt_tokens + request.generated
        request.decoding = True
        if self.due is not None:
            request.generated -= self.tick
            self.file_due(request)

    def remove_active(self, request: Request) -> None:
        """Drop a request from the decode set (O(log n) index lookup)."""
        index = bisect_left(self.active, request.rid, key=_BY_RID)
        del self.active[index]
        self.depart(request)

    def pop_newest(self) -> Request:
        """Drop the newest member (the preemption and eviction victim)."""
        request = self.active.pop()
        self.depart(request)
        return request

    def depart(self, request: Request) -> None:
        """Write a leaving member's token count back and take it out of
        ``active_ctx``; the caller has taken it out of ``active``."""
        if self.due is not None:
            request.generated += self.tick
        self.active_ctx -= request.prompt_tokens + request.generated
        request.decoding = False

    def generated(self, request: Request) -> int:
        """A decoding member's token count."""
        if self.due is not None:
            return request.generated + self.tick
        return request.generated

    # On a calendar pool a member's tick-relative count is fixed while
    # it stays, so both steps below are constants (the due step moves
    # only when an extend grows ``kv_tokens``).

    def finish_step(self, request: Request) -> int:
        """The completed step at which the member has all its tokens."""
        return request.output_tokens - request.generated

    def due_step(self, request: Request) -> int:
        """The member's finish step, or the earlier completed step whose
        token first needs more than its held blocks (at or before
        ``tick`` when a re-prefill left it under-covered)."""
        covered = request.kv_tokens - request.prompt_tokens
        return min(request.output_tokens, covered) - request.generated

    def file_due(self, request: Request) -> None:
        """File (or re-file, after an extend) the member's due step."""
        heappush(self.due, (self.due_step(request), request.rid, request))


class ServingSimulator:
    """Seeded, deterministic request-level serving simulation.

    Args:
        config: The scenario.
        tracer: Optional span tracer; defaults to the no-op
            :data:`repro.obs.NULL_TRACER`.  Use one tracer per ``run``.
        metrics: Optional metrics registry; a fresh one is created per
            ``run`` when not supplied, and is available afterwards as
            ``self.metrics``.
        on_progress: Optional ``callback(done, total, sim_time)`` fired
            roughly every 5% of requests retired (finished or dropped),
            and once at the end.  Lets long runs surface bounded
            progress without the caller polling simulator internals.

    Each ``run`` folds what it measures into a fresh
    :class:`repro.serving.report.RunFold`, kept afterwards as
    ``self.fold`` (its dropped rids, decode batch profile and, with
    records kept, finished requests).
    """

    def __init__(
        self,
        config: SimConfig,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        on_progress=None,
    ) -> None:
        self.config = config
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._metrics_arg = metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._on_progress = on_progress
        self._progress_total = config.workload.num_requests
        self._progress_every = max(1, self._progress_total // 20)

    def _make_pools(self) -> tuple[_Pool, ...]:
        cfg = self.config

        def kv_for(num_gpus: int) -> PagedKVPool:
            if cfg.kv_blocks_per_gpu is not None:
                pool_cfg = KVPoolConfig(
                    total_blocks=cfg.kv_blocks_per_gpu * num_gpus,
                    block_tokens=cfg.block_tokens,
                )
            else:
                serving = cfg.costs.serving
                pool_cfg = kv_pool_blocks(
                    serving.model,
                    serving.gpu,
                    num_gpus,
                    serving.ep_degree,
                    block_tokens=cfg.block_tokens,
                    weight_dtype=serving.weight_dtype,
                )
            return PagedKVPool(pool_cfg)

        calendar = _CALENDAR and not cfg.costs.mtp.enabled
        per_gpu = cfg.scheduler.max_concurrent_per_gpu
        if cfg.mode == COLOCATED:
            gpus = cfg.prefill_gpus + cfg.decode_gpus
            return (
                _Pool("pool", 1, gpus, kv_for(gpus), True, True, per_gpu * gpus, calendar),
            )
        gpus = cfg.decode_gpus
        return (
            _Pool("prefill", 1, cfg.prefill_gpus, kv_for(cfg.prefill_gpus), True, False, 0),
            _Pool("decode", 2, gpus, kv_for(gpus), False, True, per_gpu * gpus, calendar),
        )

    # -- event loop ------------------------------------------------------

    def run(self) -> SimReport:
        """Simulate the whole workload and aggregate the report."""
        cfg = self.config
        tracer = self.tracer
        metrics = self._metrics_arg if self._metrics_arg is not None else MetricsRegistry()
        self.metrics = metrics
        # Seeded per run, so a second run() replays the same MTP draws.
        self._mtp_uniform = uniform_stream(seeded_generator(cfg.seed, "mtp"), _MTP_BLOCK)
        pools = self._make_pools()
        prefill_pool = pools[0]
        decode_pool = pools[-1]
        self._requests_pid = len(pools) + 1
        for pool in pools:
            tracer.process(pool.pid, f"pool:{pool.name}")
            tracer.thread(pool.pid, 0, "steps")
        tracer.process(self._requests_pid, "requests")

        events = CalendarQueue()
        seq = 0

        def push(time: float, kind: int, payload: object) -> None:
            nonlocal seq
            events.push((time, kind, seq, payload))
            seq += 1

        # Fault schedule: serving-applicable events enter the same queue
        # as ordinary simulation events.  An absent/empty schedule adds
        # nothing, keeping the fault-free event sequence — and thus the
        # golden outputs — bit-identical.
        fault_events = (
            cfg.faults.for_kinds(_SERVING_FAULT_KINDS) if cfg.faults else ()
        )
        # Record mode keeps exact per-request state; fault runs imply it
        # because the degradation report needs per-request timelines.
        records_kept = cfg.record_requests or bool(fault_events)
        fold = self.fold = RunFold(
            cfg.slo,
            metrics,
            sum(p.kv.config.total_blocks for p in pools),
            records=records_kept,
            window_s=cfg.window_s,
        )

        # Workload state stays in flat numpy columns; a Request object
        # exists only from its arrival event until it finishes (or is
        # dropped), so live object count tracks *active* requests.  Each
        # arrival pop feeds the next arrival push: arrivals are sorted
        # by time and fed in rid order, so every same-(time, kind) tie
        # keeps its relative sequence order and the pop order is
        # identical to pushing the whole stream up front.
        columns = generate_request_columns(
            cfg.workload, seeded_generator(cfg.seed, "workload")
        )
        total_requests = len(columns)
        next_arrival = 0

        def feed_arrival() -> None:
            nonlocal next_arrival
            request = columns.materialize(next_arrival)
            next_arrival += 1
            push(request.arrival, _ARRIVAL, request)

        feed_arrival()
        for event in fault_events:
            push(event.time, _FAULT, event)
        self._active_faults = 0
        now = 0.0

        def next_event_time() -> float:
            return events.peek_time() if events else math.inf

        self._next_event_time = next_event_time
        while events:
            now, kind, _, payload = events.pop()
            if kind == _ARRIVAL:
                assert isinstance(payload, Request)
                if next_arrival < total_requests:
                    feed_arrival()
                fold.arrival(now)
                if self._active_faults and self._shed_arrival(payload, now, pools):
                    continue
                payload.queued_since = now
                prefill_pool.prefill_queue.append(payload)
                if tracer.enabled:
                    tracer.thread(self._requests_pid, payload.rid, f"req{payload.rid}")
            elif kind == _DECODE_ENTER:
                assert isinstance(payload, Request)
                decode_pool.entry_queue.append(payload)
            elif kind == _STEP_DONE:
                pool, epoch = payload
                if epoch != pool.step_epoch:
                    continue  # step was aborted by a fault; completion is stale
                self._finish_step(pool, now, pools, push)
                self._sample(now, pools)
            elif kind == _FAULT:
                assert isinstance(payload, FaultEvent)
                self._apply_fault(payload, now, pools, push)
                self._sample(now, pools)
            elif kind == _REPAIR:
                self._apply_repair(payload, now)
                self._sample(now, pools)
            else:  # _RETRY: backoff elapsed, re-enter the prefill queue
                assert isinstance(payload, Request)
                payload.queued_since = now
                prefill_pool.prefill_queue.append(payload)
            for pool in pools:
                if pool.current_kind is None:
                    self._try_start(pool, now, pools, push)

        duration = now
        for name, value in (
            ("serving.preemptions", fold.preemptions),
            ("serving.decode_steps", fold.decode_steps),
            ("serving.prefill_batches", fold.prefill_batches),
            ("serving.mtp_draft_attempts", fold.draft_attempts),
            ("serving.mtp_draft_accepted", fold.draft_accepted),
            ("serving.requests_completed", fold.completed),
            ("serving.requests_dropped", len(fold.dropped)),
        ):
            metrics.counter(name).inc(value)
        degradation = None
        if fault_events:
            # Fault channels exist only on faulty runs, so fault-free
            # registries (and their snapshots) are untouched.
            for key, value in fold.faults.items():
                metrics.counter(f"serving.fault_{key}").inc(value)
            degradation = build_degradation(
                fold.finished,
                fault_events,
                cfg.slo,
                horizon=duration,
                admitted=total_requests,
                finished=fold.completed,
                dropped=len(fold.dropped),
                **fold.faults,
            )
        windows = None
        alerts = None
        if fold.windowed is not None:
            rollup = fold.windowed.rollup()
            windows = tuple(rollup)
            if cfg.slo_rules:
                events = evaluate_slo(window_summaries(rollup), cfg.slo_rules)
                alert_dicts = [event.to_dict() for event in events]
                if degradation is not None:
                    annotate_alerts(alert_dicts, degradation.windows)
                # () when monitored but quiet; None only when unmonitored.
                alerts = tuple(alert_dicts)
                fired = sum(1 for a in alert_dicts if a["state"] == "fire")
                metrics.counter("serving.slo.alerts_fired").inc(fired)
                metrics.counter("serving.slo.alerts_resolved").inc(
                    len(alert_dicts) - fired
                )
                if tracer.enabled:
                    for a in alert_dicts:
                        tracer.instant(
                            f"slo_{a['state']}", "slo", pools[-1].pid, 0,
                            a["time"],
                            args={
                                "rule": a["rule"],
                                "value": a["value"],
                                "limit": a["limit"],
                            },
                        )
        if records_kept:
            return build_report(fold, duration, degradation, windows, alerts)
        return build_streaming_report(fold, duration, windows, alerts)

    def _sample(self, t: float, pools: tuple[_Pool, ...]) -> None:
        """Fold one channel sample at ``t``; a traced run also emits the
        per-pool counters."""
        self.fold.sample(t, *_channel_levels(pools))
        if self.tracer.enabled:
            self._trace_levels(t, pools)

    def _trace_levels(self, t: float, pools: tuple[_Pool, ...]) -> None:
        """Per-pool queue depth, KV occupancy and active streams at ``t``."""
        tracer = self.tracer
        for p in pools:
            pool_depth = len(p.prefill_queue) + len(p.entry_queue)
            pool_occ = p.kv.used_blocks / p.kv.config.total_blocks
            tracer.counter("queue_depth", p.pid, t, {"requests": pool_depth})
            tracer.counter("kv_occupancy", p.pid, t, {"fraction": pool_occ})
            tracer.counter("active_streams", p.pid, t, {"requests": len(p.active)})

    # -- per-request trace helpers ---------------------------------------

    def _span(self, name: str, request: Request, start: float, end: float, **args) -> None:
        self.tracer.complete(
            name, "request", self._requests_pid, request.rid, start, end - start,
            args=args or None,
        )

    def _instant(self, name: str, request: Request, now: float, **args) -> None:
        self.tracer.instant(name, "request", self._requests_pid, request.rid, now, args=args)

    def _drop(self, request: Request, now: float) -> None:
        self.fold.drop(request.rid, now)
        if self.tracer.enabled:
            self._instant("drop", request, now, context_tokens=request.context_tokens)
        if self._on_progress is not None:
            self._progress(now)

    def _progress(self, now: float) -> None:
        """Fire the progress callback on every 5% of retired requests."""
        done = self.fold.completed + len(self.fold.dropped)
        if done % self._progress_every == 0 or done == self._progress_total:
            self._on_progress(done, self._progress_total, now)

    # -- fault injection (repro.faults) ----------------------------------

    def _fault_pool(self, event: FaultEvent, pools: tuple[_Pool, ...]) -> _Pool:
        """Resolve a fault's victim pool (empty target → decode side)."""
        for pool in pools:
            if pool.name == event.target:
                return pool
        return pools[-1]

    def _emit_failed_gpus(self, pool: _Pool, now: float) -> None:
        down = pool.base_gpus - pool.num_gpus
        self.metrics.gauge(f"serving.failed_gpus.{pool.name}").set(down)
        if self.tracer.enabled:
            self.tracer.counter("failed_gpus", pool.pid, now, {"gpus": down})

    def _apply_fault(
        self,
        event: FaultEvent,
        now: float,
        pools: tuple[_Pool, ...],
        push,
    ) -> None:
        """Inject one gpu/node failure: abort the in-flight step, shrink
        capacity and KV, evict what no longer fits, schedule repair."""
        pool = self._fault_pool(event, pools)
        lost = min(event.gpus_lost, pool.num_gpus)
        prefill_pool = pools[0]
        if pool.current_kind is not None:
            # The step dies with the hardware: its completion event is
            # invalidated via the epoch counter and its work is lost.
            batch, step_kind = pool.current_batch, pool.current_kind
            pool.current_batch, pool.current_kind = [], None
            pool.step_epoch += 1
            self.fold.faults["steps_aborted"] += 1
            if step_kind == "prefill":
                # Partial prefill produced nothing durable: release the
                # batch's KV and put it back at the head of the queue.
                for request in reversed(batch):
                    pool.kv.free(request)
                    request.queued_since = now
                    prefill_pool.prefill_queue.appendleft(request)
            # An aborted decode step emitted no tokens; its requests
            # stay active (their KV survives on the remaining GPUs) and
            # the eviction pass below trims them to the shrunken pool.
        if lost:
            pool.rescale(pool.num_gpus - lost)
        # Evict newest-first until the survivors fit the degraded pool —
        # the same victim order as KV preemption, but through the retry
        # path (evicted work re-prefills after backoff).
        active = pool.active
        while active and (len(active) > pool.decode_cap or pool.kv.free_blocks < 0):
            victim = pool.pop_newest()
            pool.kv.free(victim)
            self._fail_request(victim, now, push)
        self._active_faults += 1
        if math.isfinite(event.mttr):
            push(event.time + event.mttr, _REPAIR, (pool, lost))
        if self.tracer.enabled:
            self.tracer.instant(
                "fault", "fault", pool.pid, 0, now,
                args={"kind": event.kind, "gpus_lost": lost},
            )
        self._emit_failed_gpus(pool, now)

    def _apply_repair(self, payload: tuple[_Pool, int], now: float) -> None:
        """Return repaired capacity to service after its MTTR."""
        pool, lost = payload
        pool.rescale(pool.num_gpus + lost)
        self._active_faults -= 1
        if self.tracer.enabled:
            self.tracer.instant(
                "repair", "fault", pool.pid, 0, now, args={"gpus_restored": lost}
            )
        self._emit_failed_gpus(pool, now)

    def _fail_request(self, request: Request, now: float, push) -> None:
        """An in-flight request lost its GPU: retry with exponential
        backoff until the budget runs out, then drop."""
        policy = self.config.recovery
        faults = self.fold.faults
        faults["evicted"] += 1
        faults["lost_tokens"] += request.generated
        request.retries += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "evict", "fault", self._requests_pid, request.rid, now,
                args={"retries": request.retries, "generated": request.generated},
            )
        if request.retries > policy.retry_budget:
            faults["retry_dropped"] += 1
            self._drop(request, now)
            return
        faults["retries"] += 1
        delay = policy.backoff_base * policy.backoff_factor ** (request.retries - 1)
        push(now + delay, _RETRY, request)

    def _shed_arrival(
        self, request: Request, now: float, pools: tuple[_Pool, ...]
    ) -> bool:
        """Degraded admission control: while a fault window is open,
        arrivals beyond the queue limit are shed at the door (FCFS makes
        the newest entrant the lowest-priority one)."""
        depth, _ = _channel_levels(pools)
        if depth < self.config.recovery.degraded_queue_limit:
            return False
        self.fold.faults["shed"] += 1
        self._drop(request, now)
        return True

    # -- scheduling ------------------------------------------------------

    def _try_start(
        self, pool: _Pool, now: float, pools: tuple[_Pool, ...], push
    ) -> None:
        """Offer an idle pool work: a prefill batch, else a decode step."""
        if pool.num_gpus < 1:
            return
        cfg = self.config
        tracer = self.tracer
        self._admit_entrants(pool, now)
        queue = pool.prefill_queue
        while pool.does_prefill and queue:
            decode_pool = pools[-1]
            inflight = len(decode_pool.active) + len(decode_pool.entry_queue)
            batch = form_prefill_batch(
                queue, pool.kv, cfg.scheduler, inflight, decode_pool.decode_cap
            )
            if batch:
                tokens = sum(r.prompt_tokens + r.generated for r in batch)
                duration = cfg.costs.prefill_time(tokens, pool.num_gpus)
                pool.current_kind = "prefill"
                pool.current_batch = batch
                pool.step_start = now
                self.fold.prefill_batches += 1
                if tracer.enabled:
                    for request in batch:
                        self._span("queued", request, request.queued_since, now)
                push(now + duration, _STEP_DONE, (pool, pool.step_epoch))
                return
            # Drop a head that never fits, offer the next (thousands may queue).
            if not pool.kv.never_fits(queue[0].context_tokens + 1, self._active_faults):
                break
            self._drop(queue.popleft(), now)
        if pool.does_decode and pool.active:
            self._advance_decode(pool, now, pools, push)

    def _advance_decode(
        self, pool: _Pool, now: float, pools: tuple[_Pool, ...], push
    ) -> None:
        """Start a decode step, run every step after it that nothing
        else could interleave with inline, and queue the completion of
        the first step that cannot be.

        The inline steps form the *horizon* (see :meth:`_horizon`).
        Without MTP the batch is fixed, every member emits one token per
        step, and no extend fails, so a step's completion is replayed:
        the clock, the step's trace span and channel samples, and the KV
        extends of the members the calendar has due at that step, while
        ``tick`` and ``active_ctx`` advance once for the whole horizon.
        Members' counts are tick-relative (see :class:`_Pool`), so the
        horizon touches only the members due in it.  The first step at
        which a member finishes, or one a re-prefill left under-covered
        is due, is the queued one.  With MTP each inline step runs
        :meth:`_finish_step` itself (same draws, same rid order), once
        the worst case of two tokens per member fits the free KV blocks.
        With ``_HORIZON = 1`` the horizon is always empty: one step per
        queued event.  Either way the batch is the active set itself.
        """
        cfg = self.config
        traced = self.tracer.enabled
        mtp = cfg.costs.mtp.enabled
        kv = pool.kv
        block_tokens = kv.config.block_tokens
        context_bucket = cfg.context_bucket
        decode_step_time = cfg.costs.decode_step_time
        fold = self.fold
        sample = fold.sample
        due = pool.due
        tick = pool.tick
        # The batch is the active set: nothing joins or leaves a busy
        # pool, and a fault that evicts aborts the step.
        batch = pool.active
        context_tokens = pool.active_ctx
        size = len(batch)
        per_device = max(1, math.ceil(size / (2 * pool.num_gpus)))
        profile = fold.batch_profile.setdefault(size, [0, 0.0])
        bucket = duration = None
        limit = folded = 0
        while True:
            # Step start: its cost is memoized per context bucket.
            step_bucket = max(1, math.ceil(context_tokens / size / context_bucket))
            if step_bucket != bucket:
                bucket = step_bucket
                duration = decode_step_time(per_device, bucket * context_bucket)
            profile[0] += 1
            profile[1] += duration
            end = now + duration
            if not folded:
                next_time = self._next_event_time()
                if end < next_time:
                    limit = self._horizon(pool, batch, pools)
            if folded >= limit or end >= next_time:
                break
            if mtp:
                short = 0  # blocks needed if every member emits two tokens
                for request in batch:
                    over = request.prompt_tokens + request.generated + 3 - request.kv_tokens
                    if over > 0:
                        short += -(-over // block_tokens)
                if short > kv.free_blocks:
                    break  # an extend could fail: preempt in _finish_step
                pool.current_batch, pool.current_kind, pool.step_start = batch, "decode", now
                self._finish_step(pool, end, pools, push)
                self._sample(end, pools)
                context_tokens = pool.active_ctx
            else:
                # The members due at this step; each crosses a block
                # unless it finishes or is under-covered (due before the
                # step), which ends the horizon.  Due steps are constants
                # and pool.tick stays at its horizon-start value, so the
                # member's count at the step is generated + step.  Equal
                # entries pop together: a member that left and rejoined
                # within one tick may have filed the same one.
                step = tick + folded + 1
                crossing = None
                if due[0][0] <= step:
                    crossing = []
                    while due and due[0][0] <= step:
                        key, _, request = due[0]
                        if request.decoding and key == pool.due_step(request):
                            if key < step or key == pool.finish_step(request):
                                break
                            if not crossing or crossing[-1] is not request:
                                crossing.append(request)
                        heappop(due)
                    # A finish or under-covered member left due, or an
                    # extend that would fail: _finish_step takes the step.
                    if (due and due[0][0] <= step) or len(crossing) > kv.free_blocks:
                        for request in crossing:
                            pool.file_due(request)
                        break
                # The step completes inline: one token per batch member.
                if not folded:
                    # Queues and other pools stay put across a horizon,
                    # so only this pool's extends move the samples.
                    depth, used = _channel_levels(pools)
                if crossing:
                    for request in crossing:
                        kv.extend(request, request.prompt_tokens + request.generated + step + 1)
                        pool.file_due(request)
                    used += len(crossing)  # one block per crossing
                context_tokens += size
                sample(end, depth, used)
                if traced:
                    # end - now, as the queued completion computes it.
                    self.tracer.complete(
                        "decode_step", "step", pool.pid, 0, now, end - now,
                        args={"batch": size},
                    )
                    self._trace_levels(end, pools)
            folded += 1
            now = end
        fold.decode_steps += folded + 1
        if folded and not mtp:
            pool.active_ctx += folded * size
            pool.tick += folded
        pool.current_kind = "decode"
        pool.current_batch = batch
        pool.step_start = now
        push(end, _STEP_DONE, (pool, pool.step_epoch))

    def _horizon(
        self, pool: _Pool, batch: list[Request], pools: tuple[_Pool, ...]
    ) -> int:
        """Steps after the one just started that may complete inline.

        The horizon ends before the first step that could finish a
        request — under MTP a step may emit two tokens, so it covers at
        most half the tokens left — and is empty while this pool has
        entrants or prefill work, or an idle peer has any work (a later
        ``_try_start`` could act).  Busy peers cannot act before their
        queued completion, which bounds the horizon in time.  Time and
        KV capacity are checked step by step by the caller, and without
        MTP so are finishes, from the due calendar.  With the calendar
        off nothing folds.
        """
        if pool.entry_queue or (pool.does_prefill and pool.prefill_queue):
            return 0
        for p in pools:
            if p is not pool and p.current_kind is None and p.num_gpus >= 1 and (
                p.prefill_queue or p.entry_queue or (p.does_decode and p.active)
            ):
                return 0
        if self.config.costs.mtp.enabled:
            left = min(r.output_tokens - r.generated - 1 for r in batch) // 2
            return min(_HORIZON - 1, left)
        return 0 if pool.due is None else _HORIZON - 1

    def _admit_entrants(self, pool: _Pool, now: float) -> None:
        kv = pool.kv
        while pool.entry_queue and len(pool.active) < pool.decode_cap:
            head = pool.entry_queue[0]
            if not kv.allocate(head, head.context_tokens + 1):
                if kv.never_fits(head.context_tokens + 1, self._active_faults):
                    self._drop(pool.entry_queue.popleft(), now)
                    continue
                break
            pool.entry_queue.popleft()
            head.decode_since = now
            pool.add_active(head)

    # -- step completion -------------------------------------------------

    def _finish_step(
        self,
        pool: _Pool,
        now: float,
        pools: tuple[_Pool, ...],
        push,
    ) -> None:
        """Complete the pool's in-flight step at ``now``.

        A prefill batch emits each request's first token and hands it to
        a decode set (or, disaggregated, over a KV transfer to the decode
        pool).  A decode step emits tokens, grows KV, preempts on
        exhaustion and finishes members.  On a calendar pool the step
        bumps ``tick``, which gives every member its token at once, and
        visits only the calendar's entries due at it; there a decoding
        member's ``generated`` is tick-relative, so its count is read
        through the pool (:meth:`_Pool.generated`) until
        :meth:`_Pool.depart` writes it back as the member leaves.
        """
        cfg = self.config
        tracer = self.tracer
        batch, kind = pool.current_batch, pool.current_kind
        start = pool.step_start
        pool.current_batch, pool.current_kind = [], None
        if kind == "prefill":
            if tracer.enabled:
                tracer.complete(
                    "prefill", "step", pool.pid, 0, start, now - start,
                    args={
                        "requests": len(batch),
                        "tokens": sum(r.prompt_tokens + r.generated for r in batch),
                    },
                )
            for request in batch:
                if tracer.enabled:
                    self._span(
                        "prefill", request, start, now, tokens=request.prompt_tokens
                    )
                if request.generated == 0:
                    request.first_token_time = now
                    request.generated = 1
                if request.generated >= request.output_tokens:
                    self._finish_request(request, now, pool, from_active=False)
                elif cfg.mode == COLOCATED:
                    request.decode_since = now
                    pool.add_active(request)
                else:
                    pool.kv.free(request)  # cache migrates to decode pool
                    delay = cfg.costs.kv_transfer_time(request.context_tokens)
                    if tracer.enabled:
                        self._span(
                            "kv_transfer", request, now, now + delay,
                            tokens=request.context_tokens,
                        )
                    push(now + delay, _DECODE_ENTER, request)
            return
        # Decode step: emit tokens, grow KV, preempt on exhaustion.
        if tracer.enabled:
            tracer.complete(
                "decode_step", "step", pool.pid, 0, start, now - start,
                args={"batch": len(batch)},
            )
        due = pool.due
        if due is not None:
            # Lockstep decode: every member emits one token, which the
            # tick bump gives all of them at once (their counts are
            # tick-relative), and only the calendar's entries due at
            # this step can finish or cross a block.  Visiting them in
            # rid order is the walk below with its no-op members skipped
            # (stale entries fail its checks).
            pool.tick = tick = pool.tick + 1
            pool.active_ctx += len(batch)
            entries = []
            while due and due[0][0] <= tick:
                entries.append(heappop(due))
            if len(entries) > 1:
                entries.sort(key=_ENTRY_RID)
            for _, _, request in entries:
                if not request.decoding:
                    continue  # left the pool, or preempted earlier in this loop
                generated = request.generated + tick
                if generated >= request.output_tokens:
                    pool.remove_active(request)
                    self._finish_request(request, now, pool, from_active=True)
                    continue
                need = request.prompt_tokens + generated + 1
                if need > request.kv_tokens and self._extend(pool, request, need, now, pools):
                    pool.file_due(request)
            return
        drafting, acceptance = cfg.costs.mtp.enabled, cfg.costs.mtp.acceptance_rate
        uniform = self._mtp_uniform
        # The active set, in rid order (the draw order), walked in place: a
        # finisher is deleted at its index; _extend preempts only from the
        # tail (a member preempting itself is the last one).  No member
        # holds its output yet, so no emission overshoots.
        attempts = accepted = visited = i = 0
        size = len(batch)
        while i < size:
            request = batch[i]
            visited += 1
            output_tokens = request.output_tokens
            generated = request.generated + 1
            if drafting and generated < output_tokens:
                attempts += 1
                if uniform() < acceptance:
                    accepted += 1
                    generated += 1
            request.generated = generated
            if generated >= output_tokens:
                del batch[i]
                size -= 1
                pool.depart(request)
                self._finish_request(request, now, pool, from_active=True)
                continue
            need = request.prompt_tokens + generated + 1
            if need > request.kv_tokens:  # the next token needs another block
                self._extend(pool, request, need, now, pools)
                size = len(batch)
            i += 1
        pool.active_ctx += visited + accepted  # one token each, two if accepted
        self.fold.draft_attempts += attempts
        self.fold.draft_accepted += accepted

    def _extend(
        self, pool: _Pool, request: Request, need: int, now: float, pools: tuple[_Pool, ...]
    ) -> bool:
        """Grow ``request``'s KV to ``need`` tokens, preempting the
        newest member until it fits; False when ``request`` itself was
        preempted.

        Under the calendar every member already holds this step's token,
        but the walk only reaches members in rid order, so every victim
        but ``request`` itself gives its token back as it leaves.
        """
        kv = pool.kv
        tracer = self.tracer
        while not kv.extend(request, need):
            victim = pool.pop_newest()  # scheduler order
            kv.free(victim)
            if pool.due is not None and victim is not request:
                victim.generated -= 1
            self.fold.preemptions += 1
            if tracer.enabled:
                self._span(
                    "decode", victim, victim.decode_since, now,
                    tokens=victim.generated, preempted=True,
                )
                self._instant("preempt", victim, now, generated=victim.generated)
            victim.queued_since = now
            pools[0].prefill_queue.appendleft(victim)  # recompute re-runs prefill
            if victim is request:
                return False
        return True

    def _finish_request(
        self, request: Request, now: float, pool: _Pool, from_active: bool
    ) -> None:
        request.finish_time = now
        pool.kv.free(request)
        self.fold.finish(request, now)
        if self._on_progress is not None:
            self._progress(now)
        if self.tracer.enabled:
            if from_active and request.decode_since >= 0:
                self._span(
                    "decode", request, request.decode_since, now,
                    tokens=request.generated,
                )
            self._instant("finish", request, now, generated=request.generated)
