"""The five benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is
the set-up the harness times), then runs one fixed unit of work per
:meth:`rep`.  A rep returns its host time, the deterministic outputs the
oracles check, and, when traced, the per-layer accounting of its
phases.  The classes import ``repro`` lazily, so importing this module
costs nothing and a missing ``repro`` surfaces in the workload process.

Why these five (each stresses a different layer, see ``perf/README.md``):

* ``serve-stream`` — the event-dense steady-state serving path: calendar
  queue, memoized decode cost, streaming histograms; no preemption, no
  telemetry.
* ``serve-pressure`` — the same core under KV exhaustion, preemption,
  faults, windows and SLO evaluation (record-mode report).
* ``sweep-fanout`` — tiny sweep points, so the engine's own costs (keys,
  cache probe/put, fork/IPC, merge) dominate.
* ``service-jobs`` — HTTP, queue wait, journal fsync and SSE around
  small jobs; the simulator is a small share.
* ``flowsim-ep`` — the flowsim event engine with many independent
  components (leaf) and with one coupled component (ring).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .layers import Hook, LayerTotals, corrected_self_ns, diff

__all__ = ["WORKLOADS", "Rep", "Session", "host_time", "with_pythonpath"]

#: Sweep fan-out and service load-generator concurrency: sized for a
#: two-core host (one load-generating process, at most two workers).
WORKERS = 2


@dataclass
class Rep:
    """One unit of work.

    ``wall`` is the host time of the timed region; ``exact`` holds the
    deterministic outputs (digests, simulated counts); ``parts`` holds
    named host-time components; ``layers`` maps a phase name to its
    per-layer accounting (traced reps only).
    """

    wall: float
    exact: dict
    ops: int
    failures: list[str] = field(default_factory=list)
    parts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


class Session:
    """What a traced rep records into: the profiler and the span tracer.

    Span timestamps are host seconds since ``origin``.
    """

    def __init__(self, profiler, tracer, origin: float) -> None:
        self.profiler = profiler
        self.tracer = tracer
        self.origin = origin

    def span(self, name: str, cat: str, pid: int, tid: int, start: float, end: float) -> None:
        self.tracer.complete(name, cat, pid, tid, start - self.origin, end - start)


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report_json: str | bytes) -> str:
    """Digest of a sweep report without its package version and cache
    keys (keys hash the version), so a version bump alone keeps it."""
    payload = json.loads(report_json)
    payload.pop("version", None)
    for point in payload["points"]:
        point.pop("key", None)
    return _sha256(payload)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _per_rep(layers: dict[str, LayerTotals], name: str, cal: dict, reps: int) -> float:
    """Calibrated self seconds of one layer, per rep."""
    totals = layers.get(name)
    return corrected_self_ns(totals, cal) / reps / 1e9 if totals else 0.0


def _calls(layers: dict[str, LayerTotals], name: str, reps: int) -> float:
    totals = layers.get(name)
    return totals.calls / reps if totals else 0.0


def _sum_phases(reps: list[Rep], phase: str) -> dict[str, LayerTotals]:
    """Sum one phase's per-layer accounting over traced reps."""
    out: dict[str, LayerTotals] = {}
    for rep in reps:
        for name, t in rep.layers[phase].items():
            acc = out.setdefault(name, LayerTotals())
            acc.total_ns += t.total_ns
            acc.self_ns += t.self_ns
            acc.calls += t.calls
            acc.child_calls += t.child_calls
            acc.true_calls += t.true_calls
    return out


def host_time(samples) -> float:
    """Summary of repeated raw host-time samples in per-layer metrics:
    their lower quartile, since interference from the rest of the
    machine only ever slows a sample.  (End-to-end times are scaled by
    :mod:`perf.hostspeed` instead.)
    """
    ordered = sorted(samples)
    if len(ordered) < 2:
        return ordered[0]
    return statistics.quantiles(ordered, n=4, method="inclusive")[0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Workload:
    """Base: subclasses set ``name``, ``hooks``, ``work`` and implement
    :meth:`rep`, :meth:`checks` and :meth:`per_layer`."""

    name = ""
    hooks: tuple[Hook, ...] = ()
    #: Whether every rep repeats identical work (so identical outputs).
    repeatable = True
    #: Processes the timed work and the set-up run in, which pick the
    #: host-speed reference for each (see :mod:`perf.hostspeed`).
    processes = 1
    setup_processes = 1
    #: Units of fixed work per rep, for the printed throughput.
    work: tuple[int, str]

    def __init__(self, seed: int, workdir: Path, scale: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale

    def rep(self, session: Session | None) -> Rep:
        raise NotImplementedError

    def checks(self, exact: dict) -> list[tuple[str, bool]]:
        """Output oracles that hold for any seed."""
        return []

    def finish(self) -> None:
        """Called once after the last rep (fetch remote state)."""

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def per_layer(self, plain: list[Rep], traced: list[Rep], cal: dict) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


# -- serving ---------------------------------------------------------------

SERVING_HOOKS = (
    Hook("serving.loop", "repro.serving.simulator:ServingSimulator.run"),
    Hook("serving.calqueue.push", "repro.serving.calqueue:CalendarQueue.push"),
    Hook("serving.calqueue.pop", "repro.serving.calqueue:CalendarQueue.pop"),
    Hook("serving.costmodel.decode", "repro.serving.costmodel:StepCostModel.decode_step_time"),
    Hook("serving.costmodel.prefill", "repro.serving.costmodel:StepCostModel.prefill_time"),
    Hook("serving.costmodel.kv_transfer", "repro.serving.costmodel:StepCostModel.kv_transfer_time"),
    Hook("serving.workload.generate", "repro.serving.simulator:generate_request_columns"),
    Hook("serving.workload.materialize", "repro.serving.workload:RequestColumns.materialize"),
    Hook("serving.kvpool.allocate", "repro.serving.kvpool:PagedKVPool.allocate"),
    Hook("serving.kvpool.extend", "repro.serving.kvpool:PagedKVPool.extend", count_true=True),
    Hook("serving.kvpool.free", "repro.serving.kvpool:PagedKVPool.free"),
    Hook("serving.scheduler.prefill_batch", "repro.serving.simulator:form_prefill_batch"),
    Hook("obs.histogram.observe", "repro.obs.metrics:Histogram.observe"),
    Hook("obs.windows.hook", "repro.obs.windows:WindowedMetrics.count"),
    Hook("obs.windows.hook", "repro.obs.windows:WindowedMetrics.sample"),
    Hook("obs.windows.hook", "repro.obs.windows:WindowedMetrics.observe"),
    Hook("obs.windows.rollup", "repro.obs.windows:WindowedMetrics.rollup"),
    Hook("obs.slo.evaluate", "repro.serving.simulator:evaluate_slo"),
    Hook("obs.slo.evaluate", "repro.serving.simulator:window_summaries"),
    Hook("serving.report.build", "repro.serving.simulator:build_report"),
    Hook("serving.report.build", "repro.serving.simulator:build_streaming_report"),
    Hook("faults.degradation", "repro.serving.simulator:build_degradation"),
    Hook("faults.degradation", "repro.serving.simulator:annotate_alerts"),
)

#: Layer → per-layer time metric (calibrated self seconds per rep).
SERVING_TIMES = {
    "serving.calqueue.push": "serving.calqueue.push_s",
    "serving.calqueue.pop": "serving.calqueue.pop_s",
    "serving.costmodel.decode": "serving.costmodel.decode_s",
    "serving.costmodel.prefill": "serving.costmodel.prefill_s",
    "serving.costmodel.kv_transfer": "serving.costmodel.kv_transfer_s",
    "serving.workload.generate": "serving.workload.generate_s",
    "serving.workload.materialize": "serving.workload.materialize_s",
    "serving.kvpool.allocate": "serving.kvpool.allocate_s",
    "serving.kvpool.extend": "serving.kvpool.extend_s",
    "serving.kvpool.free": "serving.kvpool.free_s",
    "serving.scheduler.prefill_batch": "serving.scheduler.prefill_batch_s",
    "obs.histogram.observe": "obs.histogram.observe_s",
    "obs.windows.hook": "obs.windows.hook_s",
    "obs.windows.rollup": "obs.windows.rollup_s",
    "obs.slo.evaluate": "obs.slo.evaluate_s",
    "serving.report.build": "serving.report.build_s",
    "faults.degradation": "faults.degradation_s",
    "serving.loop": "serving.loop_self_s",
}

#: MetricsRegistry counters reported as exact per-layer counts.
SERVING_COUNTERS = (
    "decode_steps",
    "prefill_batches",
    "preemptions",
    "requests_completed",
    "requests_dropped",
)


class _Serving(Workload):
    hooks = SERVING_HOOKS
    requests: dict[str, int]  # request count per scale

    def __init__(self, seed: int, workdir: Path, scale: str) -> None:
        super().__init__(seed, workdir, scale)
        import repro.serving  # noqa: F401 - the import is part of set-up

        self.num_requests = self.requests[scale]
        self.work = (self.num_requests, "requests")
        self.config()  # validate the scenario once during set-up

    def config(self):
        raise NotImplementedError

    def rep(self, session: Session | None) -> Rep:
        from repro.serving import ServingSimulator, report_asdict

        # A fresh config per rep: the cost model memoizes step times, and
        # every rep should pay what a fresh run pays.
        sim = ServingSimulator(self.config())
        before = session.profiler.snapshot() if session else None
        start = time.perf_counter()
        report = sim.run()
        wall = time.perf_counter() - start
        layers = {"run": diff(session.profiler.snapshot(), before)} if session else {}
        counters = sim.metrics.snapshot()
        exact = {
            "report_sha256": _sha256(report_asdict(report)),
            "completed": report.completed,
            **{name: int(counters[f"serving.{name}"]) for name in SERVING_COUNTERS},
        }
        if report.degradation is not None:
            exact["shed"] = report.degradation.shed
        if report.windows is not None:
            exact["windows"] = len(report.windows)
        if report.alerts is not None:
            exact["alerts"] = len(report.alerts)
        return Rep(wall=wall, exact=exact, ops=1, layers=layers)

    def checks(self, exact: dict) -> list[tuple[str, bool]]:
        return [
            (
                "completed + dropped == num_requests",
                exact["requests_completed"] + exact["requests_dropped"] == self.num_requests,
            ),
            ("report.completed == completed counter", exact["completed"] == exact["requests_completed"]),
        ]

    def per_layer(self, plain: list[Rep], traced: list[Rep], cal: dict) -> dict[str, float]:
        n = len(traced)
        layers = _sum_phases(traced, "run")
        out = {metric: _per_rep(layers, layer, cal, n) for layer, metric in SERVING_TIMES.items()}
        events = _calls(layers, "serving.calqueue.pop", n)
        extend = layers["serving.kvpool.extend"]
        out.update(
            {
                "serving.calqueue.events": events,
                "serving.costmodel.decode_calls": _calls(layers, "serving.costmodel.decode", n),
                "serving.costmodel.prefill_calls": _calls(layers, "serving.costmodel.prefill", n),
                "serving.costmodel.kv_transfer_calls": _calls(layers, "serving.costmodel.kv_transfer", n),
                "serving.kvpool.extend_calls": extend.calls / n,
                "serving.kvpool.extend_ok_ratio": extend.true_calls / extend.calls if extend.calls else 0.0,
                "serving.host_us_per_event": host_time([r.wall for r in plain]) / events * 1e6,
            }
        )
        for name in SERVING_COUNTERS:
            out[f"serving.{name}"] = traced[0].exact[name]
        return out


class ServeStream(_Serving):
    """Disaggregated 2+6, Poisson arrivals at 8 req/s, streaming report."""

    name = "serve-stream"
    requests = {"bench": 10_000, "smoke": 400}

    def config(self):
        from repro.serving import DISAGGREGATED, SimConfig, WorkloadSpec

        return SimConfig(
            workload=WorkloadSpec(request_rate=8, num_requests=self.num_requests),
            mode=DISAGGREGATED,
            prefill_gpus=2,
            decode_gpus=6,
            seed=self.seed,
        )

    def checks(self, exact: dict) -> list[tuple[str, bool]]:
        # The workload's premise: it must not reach the KV or fault paths.
        return super().checks(exact) + [
            ("no preemption and no drops", exact["preemptions"] == 0 and exact["requests_dropped"] == 0),
        ]


class ServePressure(_Serving):
    """Colocated 8 GPUs, MTP, bursty arrivals at 16 req/s, 64 KV blocks
    per GPU, 30 s windows with a burn-rate SLO, and two pool faults."""

    name = "serve-pressure"
    requests = {"bench": 5_000, "smoke": 600}

    def config(self):
        from repro.faults import FaultEvent, FaultSchedule
        from repro.serving import COLOCATED, MTPConfig, SimConfig, StepCostModel, WorkloadSpec

        rate = 16.0
        horizon = self.num_requests / rate  # 312.5 s at bench scale
        faults = FaultSchedule(
            (
                FaultEvent(0.16 * horizon, "node", "pool", mttr=60.0),
                FaultEvent(0.56 * horizon, "gpu", "pool", mttr=30.0),
            )
        )
        return SimConfig(
            workload=WorkloadSpec(
                request_rate=rate,
                num_requests=self.num_requests,
                arrival="bursty",
                output_cv=0.6,
            ),
            costs=StepCostModel(mtp=MTPConfig(enabled=True)),
            mode=COLOCATED,
            prefill_gpus=2,
            decode_gpus=6,
            kv_blocks_per_gpu=64,
            window_s=30.0,
            slo_rules=("burn>2@0.9",),
            faults=faults,
            seed=self.seed,
        )

    def checks(self, exact: dict) -> list[tuple[str, bool]]:
        # The workload's premise: KV exhaustion, shedding and telemetry
        # must all actually happen.
        return super().checks(exact) + [
            ("preemptions > 0", exact["preemptions"] > 0),
            ("fault degradation reported with shed > 0", exact.get("shed", 0) > 0),
            ("windows and alerts reported", exact.get("windows", 0) > 0 and "alerts" in exact),
        ]


# -- sweep -----------------------------------------------------------------

SWEEP_HOOKS = (
    Hook("sweep.keys", "repro.sweep.spec:SweepSpec.configs"),
    Hook("sweep.keys", "repro.sweep.spec:SweepSpec.point_seed"),
    Hook("sweep.keys", "repro.sweep.spec:SweepSpec.key"),
    Hook("sweep.probe", "repro.sweep.cache:SweepCache.get_many"),
    Hook("sweep.probe", "repro.sweep.cache:SweepCache.get"),
    Hook("sweep.put", "repro.sweep.cache:SweepCache.put"),
    Hook("sweep.json", "repro.sweep.runner:SweepResult.to_report_json"),
)

SWEEP_PHASES = ("cold", "warm", "grown", "supervised")

_SWEEP_SIZES = {
    # base config, cold request rates, rates the grown phase adds,
    # max_concurrent_per_gpu axis; the supervised phase runs request rate
    # 3 without MTP on the first two max_concurrent_per_gpu values.
    "bench": ({"num_requests": 60, "prompt_mean": 512, "output_mean": 128},
              (2, 4, 8, 16), (1, 32), (16, 32, 64, 128)),
    "smoke": ({"num_requests": 40, "prompt_mean": 512, "output_mean": 128},
              (2, 4), (8,), (16, 64)),
}


class SweepFanout(Workload):
    """``run_sweep`` on the serving target with two workers, in four
    phases: cold (empty cache), warm (all hits), grown (hits beside new
    points) and supervised (fork per attempt, no cache)."""

    name = "sweep-fanout"
    hooks = SWEEP_HOOKS
    processes = WORKERS

    def __init__(self, seed: int, workdir: Path, scale: str) -> None:
        super().__init__(seed, workdir, scale)
        from repro.sweep import grid

        base, cold, added, mcpg = _SWEEP_SIZES[scale]

        def points(rates, mtp=(False, True), concurrency=mcpg):
            return grid(request_rate=list(rates), mode=["colocated", "disaggregated"],
                        mtp=list(mtp), max_concurrent_per_gpu=list(concurrency))

        self.base = base
        self.points = {
            "cold": points(cold),
            "warm": points(cold),
            "grown": points(sorted(cold + added)),
            # A supervised point pays a fork and the target's imports per
            # attempt (about 0.3 s), so four keep it visible but not dominant.
            "supervised": points((3,), mtp=(False,), concurrency=mcpg[:2]),
        }
        self.work = (sum(len(p) for p in self.points.values()), "points")
        self._reps = 0

    def rep(self, session: Session | None) -> Rep:
        from repro.sweep import SupervisorPolicy, SweepCache, SweepSpec, run_sweep

        cache_dir = self.workdir / f"sweep-cache-{self._reps}"
        self._reps += 1
        cache = SweepCache(cache_dir)
        exact, parts, layers, failures = {}, {}, {}, []
        on_point = None
        if session:
            def on_point(point):
                if not point.cached:
                    now = time.perf_counter()
                    session.span(f"point[{point.index}]", "sweep", 2, point.index,
                                 now - point.elapsed, now)
        wall = 0.0
        for phase in SWEEP_PHASES:
            spec = SweepSpec("serving", points=self.points[phase], base=self.base, seed=self.seed)
            supervised = phase == "supervised"

            def body():
                result = run_sweep(
                    spec,
                    workers=WORKERS,
                    cache=None if supervised else cache,
                    strict=False,
                    on_point=on_point,
                    supervise=SupervisorPolicy(timeout_s=60) if supervised else None,
                )
                return result, result.to_report_json()

            if session:
                body = session.profiler.wrap("sweep.phase", body)
                before = session.profiler.snapshot()
            start = time.perf_counter()
            result, text = body()
            end = time.perf_counter()
            if session:
                layers[phase] = diff(session.profiler.snapshot(), before)
                session.span(phase, "phase", 1, 1, start, end)
            wall += end - start
            parts[f"{phase}.wall"] = end - start
            parts[f"{phase}.eval"] = sum(p.elapsed for p in result.points if not p.cached)
            exact[f"{phase}.report_sha256"] = report_digest(text)
            exact[f"{phase}.evaluated"] = result.evaluated
            exact[f"{phase}.cache_hits"] = result.cache_hits
            exact[f"{phase}.errors"] = result.errors
            failures += [f"{phase} point {p.index}: {p.error['type']}"
                         for p in result.points if p.error is not None]
        shutil.rmtree(cache_dir, ignore_errors=True)
        ops = sum(len(p) for p in self.points.values())
        return Rep(wall=wall, exact=exact, ops=ops, failures=failures, parts=parts, layers=layers)

    def checks(self, exact: dict) -> list[tuple[str, bool]]:
        n = {phase: len(points) for phase, points in self.points.items()}
        grown_new = n["grown"] - n["cold"]
        return [
            ("cold evaluates every point", exact["cold.evaluated"] == n["cold"]),
            ("warm evaluated == 0", exact["warm.evaluated"] == 0 and exact["warm.cache_hits"] == n["warm"]),
            ("warm report == cold report", exact["warm.report_sha256"] == exact["cold.report_sha256"]),
            (f"grown evaluated == {grown_new}",
             exact["grown.evaluated"] == grown_new and exact["grown.cache_hits"] == n["cold"]),
            ("supervised evaluates every point", exact["supervised.evaluated"] == n["supervised"]),
            ("no point errors", all(exact[f"{p}.errors"] == 0 for p in SWEEP_PHASES)),
        ]

    def peak_rss_mb(self) -> float:
        # Forked sweep workers are reaped children; the largest process counts.
        return max(_rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN))

    def per_layer(self, plain: list[Rep], traced: list[Rep], cal: dict) -> dict[str, float]:
        n = len(traced)
        out = {}
        for phase in SWEEP_PHASES:
            layers = _sum_phases(traced, phase)
            wall = host_time([r.parts[f"{phase}.wall"] for r in plain])
            keys, probe, put, json_s = (
                _per_rep(layers, f"sweep.{layer}", cal, n) for layer in ("keys", "probe", "put", "json")
            )
            eval_s = host_time([r.parts[f"{phase}.eval"] for r in plain])
            evaluated = traced[0].exact[f"{phase}.evaluated"]
            hits = traced[0].exact[f"{phase}.cache_hits"]
            prefix = f"sweep.{phase}."
            out.update(
                {
                    prefix + "wall_s": wall,
                    prefix + "keys_s": keys,
                    prefix + "probe_s": probe,
                    prefix + "put_s": put,
                    prefix + "put_calls": _calls(layers, "sweep.put", n),
                    prefix + "json_s": json_s,
                    prefix + "eval_s": eval_s,
                    prefix + "eval_per_point_ms": eval_s / evaluated * 1e3 if evaluated else 0.0,
                    prefix + "overhead_s": wall - keys - probe - put - json_s - eval_s / WORKERS,
                    prefix + "worker_util": eval_s / (wall * WORKERS),
                    prefix + "hit_ratio": hits / (hits + evaluated),
                    prefix + "evaluated": evaluated,
                    prefix + "cache_hits": hits,
                }
            )
        return out


# -- service ---------------------------------------------------------------


@dataclass
class _JobTiming:
    """Client-side timeline of one job (host seconds)."""

    index: int
    posted: float  # POST sent
    accepted: float  # POST response read
    settled: float  # SSE terminal frame read
    fetched: float  # report body read
    exec_s: float = 0.0  # server-measured point evaluation time (SSE frames)
    failure: str | None = None
    report: bytes = b""

    @property
    def latency(self) -> float:
        return self.fetched - self.posted

    @property
    def wait(self) -> float:
        """Time the job spent in the server outside point evaluation."""
        return self.settled - self.accepted - self.exec_s


class ServiceJobs(Workload):
    """``repro serve`` in a subprocess with fresh state and cache, driven
    closed-loop by two asyncio clients: POST, follow SSE to the terminal
    frame, GET the report."""

    name = "service-jobs"
    repeatable = False  # every rep submits new jobs (distinct seeds)
    processes = setup_processes = 2  # the server and this process
    sizes = {"bench": (30, 150), "smoke": (3, 40)}  # jobs per rep, requests per point

    def __init__(self, seed: int, workdir: Path, scale: str) -> None:
        super().__init__(seed, workdir, scale)
        import repro
        from repro.service import ServiceClient

        self.jobs_per_rep, self.requests = self.sizes[scale]
        self.work = (self.jobs_per_rep, "jobs")
        state = workdir / "state"
        self._log = open(workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(state), "--cache-dir", str(workdir / "cache")],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=with_pythonpath(Path(repro.__file__).resolve().parents[1]),
        )
        info = state / "server.json"
        deadline = time.monotonic() + 60
        while not info.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"repro serve did not start (see {workdir / 'server.log'})")
            time.sleep(0.005)
        server = json.loads(info.read_text())
        self.client = ServiceClient(server["host"], server["port"])
        asyncio.run(self.client.wait_healthy(timeout=60))
        self.timings: list[_JobTiming] = []
        self.oracle_jobs: list[_JobTiming] = []
        self.server_metrics: dict = {}
        self._next = 0

    def payload(self, index: int) -> dict:
        return {
            "target": "serving",
            "grid": {"request_rate": [4, 8]},
            "base": {"num_requests": self.requests},
            "seed": self.seed * 1_000_000 + index,
        }

    async def _job(self, index: int, keep_report: bool) -> _JobTiming:
        from repro.service.events import TERMINAL_EVENTS

        client = self.client
        posted = time.perf_counter()
        status, _, body = await client.request("POST", "/jobs", self.payload(index))
        accepted = time.perf_counter()
        if status != 202:
            return _JobTiming(index, posted, accepted, accepted, accepted,
                              failure=f"job {index}: POST /jobs returned {status}")
        job_id = json.loads(body)["id"]
        # SSE frames carry no server timestamps, and a subscriber that
        # connects late gets the history replayed at once, so frame
        # arrival times do not split queueing from execution.  The
        # server-measured evaluation time of each point does.
        exec_s = 0.0
        terminal = None
        async for event, data in client.events(f"/jobs/{job_id}/events"):
            if event in ("progress", "error"):
                exec_s += data.get("elapsed", 0.0)
            if event in TERMINAL_EVENTS:
                terminal = event
        settled = time.perf_counter()
        status, _, report = await client.request("GET", f"/jobs/{job_id}/report")
        fetched = time.perf_counter()
        failure = None
        if terminal != "done":
            failure = f"job {index}: ended {terminal}"
        elif status != 200:
            failure = f"job {index}: GET report returned {status}"
        return _JobTiming(index, posted, accepted, settled, fetched, exec_s=exec_s,
                          failure=failure, report=report if keep_report else b"")

    def rep(self, session: Session | None) -> Rep:
        first, last = self._next, self._next + self.jobs_per_rep - 1
        self._next = last + 1
        pending = deque(range(first, last + 1))
        timings: list[_JobTiming] = []

        async def client_loop(tid: int) -> None:
            while pending:
                index = pending.popleft()
                job = await self._job(index, keep_report=index in (first, last))
                timings.append(job)
                if session:
                    for name, start, end in (
                        ("post", job.posted, job.accepted),
                        ("server", job.accepted, job.settled),
                        ("report", job.settled, job.fetched),
                    ):
                        session.span(f"{name}[{index}]", "job", 3, tid, start, end)

        async def drive() -> float:
            start = time.perf_counter()
            await asyncio.gather(*(client_loop(tid) for tid in range(WORKERS)))
            return time.perf_counter() - start

        wall = asyncio.run(drive())
        self.timings += timings
        by_index = {job.index: job for job in timings}
        if not self.oracle_jobs:
            self.oracle_jobs = [by_index[first], by_index[last]]
        exact = {
            "first.report_sha256": _digest_or_none(by_index[first]),
            "last.report_sha256": _digest_or_none(by_index[last]),
        }
        failures = [job.failure for job in timings if job.failure]
        return Rep(wall=wall, exact=exact, ops=len(timings), failures=failures)

    def checks(self, exact: dict) -> list[tuple[str, bool]]:
        from repro.service.jobs import JobSpec
        from repro.sweep import run_sweep

        out = []
        for label, job in zip(("first", "last"), self.oracle_jobs):
            spec = JobSpec.from_payload(self.payload(job.index)).sweep_spec()
            expected = run_sweep(spec).to_report_json().encode()
            out.append((f"{label} job report == in-harness run_sweep", job.report == expected))
        return out

    def finish(self) -> None:
        async def fetch() -> dict:
            status, payload = await self.client.get_json("/metrics?format=json")
            return payload["server"] if status == 200 else {}

        self.server_metrics = asyncio.run(fetch())

    def peak_rss_mb(self) -> float:
        # The server's own high-water mark (its telemetry pump samples it).
        return self.server_metrics.get("service.proc.peak_rss_bytes", 0.0) / 2**20

    def per_layer(self, plain: list[Rep], traced: list[Rep], cal: dict) -> dict[str, float]:
        jobs = [job for job in self.timings if not job.failure]
        http = [job.accepted - job.posted for job in jobs] + [job.fetched - job.settled for job in jobs]
        metrics = self.server_metrics
        fsync = metrics.get("service.journal.fsync_s", {"count": 0, "mean": 0.0, "p95": 0.0})
        total_jobs = len(self.timings)
        return {
            "service.job_p50_s": percentile([j.latency for j in jobs], 50),
            "service.job_p95_s": percentile([j.latency for j in jobs], 95),
            "service.http_p50_ms": percentile(http, 50) * 1e3,
            "service.http_p95_ms": percentile(http, 95) * 1e3,
            "service.wait_p50_s": percentile([j.wait for j in jobs], 50),
            "service.exec_p50_s": percentile([j.exec_s for j in jobs], 50),
            "service.report_fetch_p50_ms": percentile([j.fetched - j.settled for j in jobs], 50) * 1e3,
            "service.journal.fsyncs_per_job": fsync["count"] / total_jobs,
            "service.journal.fsync_s_per_job": fsync["count"] * fsync["mean"] / total_jobs,
            "service.journal.fsync_p95_ms": fsync["p95"] * 1e3,
            "service.loop.lag_p95_ms": metrics.get("service.loop.lag_s", {}).get("p95", 0.0) * 1e3,
            "service.points.settled_per_job": metrics.get("service.points.settled", 0.0) / total_jobs,
        }

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is not None and proc.poll() is None:
            proc.terminate()  # SIGTERM: the server drains, then exits
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._log.close()


def with_pythonpath(*paths: Path) -> dict:
    """This process's environment with ``paths`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, paths), env.get("PYTHONPATH")]))
    return env


def _digest_or_none(job: _JobTiming) -> str | None:
    return report_digest(job.report) if job.report and not job.failure else None


# -- flowsim ---------------------------------------------------------------

FLOWSIM_HOOKS = (
    Hook("network.flowsim.simulate", "repro.network.flowsim:FlowSimulator.simulate"),
    Hook("network.flowsim.engine_build", "repro.network.flowsim:_EventEngine.__init__"),
    Hook("network.flowsim.solve", "repro.network.flowsim:_EventEngine.solve_component"),
)

FLOWSIM_PHASES = ("leaf", "ring")

_FLOWSIM_SIZES = {
    # leaf: (leaves, hosts per leaf); ring: (leaves, hosts per leaf, shifts)
    "bench": ((16, 12), (8, 16, 15)),
    "smoke": ((4, 4), (2, 4, 3)),
}


class FlowsimEP(Workload):
    """``FlowSimulator.simulate`` in event mode on two EP all-to-all
    patterns: leaf-local (one independent component per leaf, sizes from
    the seed) and a shifted ring across spines (one coupled component)."""

    name = "flowsim-ep"
    hooks = FLOWSIM_HOOKS

    def __init__(self, seed: int, workdir: Path, scale: str) -> None:
        super().__init__(seed, workdir, scale)
        import numpy as np
        from repro.network import Flow, shifted_ring_flows, two_layer_fat_tree

        (leaves, hosts), (ring_leaves, ring_hosts, shifts) = _FLOWSIM_SIZES[scale]
        rng = np.random.default_rng(seed)
        leaf_topo = two_layer_fat_tree(leaves, hosts, 8)
        by_leaf: dict[str, list[str]] = {}
        for host in leaf_topo.hosts:
            by_leaf.setdefault(leaf_topo.graph.nodes[host]["leaf"], []).append(host)
        leaf_flows = []
        for leaf, members in sorted(by_leaf.items()):
            for src in members:
                for dst in members:
                    if src != dst:
                        size = float(rng.integers(1, 65)) * 1e6
                        leaf_flows.append(Flow(src, dst, size, [src, leaf, dst], tag=leaf))
        ring_topo = two_layer_fat_tree(ring_leaves, ring_hosts, 8)
        ring_flows = shifted_ring_flows(ring_topo, range(1, shifts + 1), 64e6)
        self.phases = {"leaf": (leaf_topo, leaf_flows), "ring": (ring_topo, ring_flows)}
        self.work = (len(leaf_flows) + len(ring_flows), "flows")
        self.fluid_bound = {name: _fluid_bound(topo, flows) for name, (topo, flows) in self.phases.items()}

    def rep(self, session: Session | None) -> Rep:
        from repro.network import FlowSimulator

        exact, parts, layers = {}, {}, {}
        wall = 0.0
        for phase in FLOWSIM_PHASES:
            topo, flows = self.phases[phase]
            sim = FlowSimulator(topo)
            before = session.profiler.snapshot() if session else None
            start = time.perf_counter()
            result = sim.simulate(flows)
            end = time.perf_counter()
            if session:
                layers[phase] = diff(session.profiler.snapshot(), before)
                session.span(phase, "phase", 1, 1, start, end)
            wall += end - start
            parts[f"{phase}.wall"] = end - start
            times = [result.completion.get(i) for i in range(len(flows))]
            exact[f"{phase}.makespan"] = result.makespan
            exact[f"{phase}.completion_sha256"] = _sha256(times)
            exact[f"{phase}.completed"] = sum(1 for t in times if t is not None and math.isfinite(t))
            exact[f"{phase}.max_completion"] = max(t for t in times if t is not None)
        return Rep(wall=wall, exact=exact, ops=len(FLOWSIM_PHASES), parts=parts, layers=layers)

    def checks(self, exact: dict) -> list[tuple[str, bool]]:
        out = []
        for phase in FLOWSIM_PHASES:
            flows = self.phases[phase][1]
            makespan = exact[f"{phase}.makespan"]
            out += [
                (f"{phase}: every flow completes", exact[f"{phase}.completed"] == len(flows)),
                (f"{phase}: makespan == last completion", makespan == exact[f"{phase}.max_completion"]),
                (f"{phase}: makespan >= fluid drain bound",
                 makespan >= self.fluid_bound[phase] * (1 - 1e-9)),
            ]
        return out

    def per_layer(self, plain: list[Rep], traced: list[Rep], cal: dict) -> dict[str, float]:
        n = len(traced)
        out = {}
        for phase in FLOWSIM_PHASES:
            layers = _sum_phases(traced, phase)
            prefix = f"network.flowsim.{phase}."
            times = {
                layer: _per_rep(layers, f"network.flowsim.{layer}", cal, n)
                for layer in ("simulate", "engine_build", "solve")
            }
            flows = len(self.phases[phase][1])
            out.update(
                {
                    prefix + "simulate_s": sum(times.values()),
                    prefix + "engine_build_s": times["engine_build"],
                    prefix + "solve_s": times["solve"],
                    prefix + "solve_calls": _calls(layers, "network.flowsim.solve", n),
                    prefix + "self_s": times["simulate"],
                    prefix + "host_us_per_flow": host_time([r.parts[f"{phase}.wall"] for r in plain]) / flows * 1e6,
                }
            )
        return out


def _fluid_bound(topo, flows) -> float:
    """Largest per-link drain time: no schedule can finish sooner."""
    capacity = {}
    for a, b, data in topo.graph.edges(data=True):
        capacity[(a, b)] = capacity[(b, a)] = data["bandwidth"]
    traffic: dict = {}
    for flow in flows:
        for edge in flow.edges:
            traffic[edge] = traffic.get(edge, 0.0) + flow.size
    return max(t / capacity[e] for e, t in traffic.items())


WORKLOADS = {
    cls.name: cls for cls in (ServeStream, ServePressure, SweepFanout, ServiceJobs, FlowsimEP)
}
