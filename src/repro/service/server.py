"""The experiment server: routes, SSE streaming, artifact serving.

Routes (all JSON unless noted):

=========  ==========================  =====================================
Method     Path                        Meaning
=========  ==========================  =====================================
``GET``    ``/healthz``                liveness + version + job counts
``GET``    ``/metrics``                OpenMetrics text: server
                                       self-telemetry + every job registry
                                       labeled ``{job="..."}``
                                       (``?format=json`` keeps the legacy
                                       snapshot shape)
``GET``    ``/dash``                   live HTML dashboard (self-contained;
                                       renders SSE frames per job)
``POST``   ``/jobs``                   submit a job (``202``; ``429`` +
                                       ``Retry-After`` at capacity)
``GET``    ``/jobs``                   list every known job
``GET``    ``/jobs/{id}``              one job incl. its metrics snapshot
``DELETE`` ``/jobs/{id}``              cancel (idempotent once terminal)
``GET``    ``/jobs/{id}/events``       ``text/event-stream``: replay +
                                       live ``progress``/``cache_hit``/
                                       ``error``/``metrics``/``alert``/
                                       ``status`` frames, heartbeat
                                       comments, ends on
                                       ``done``/``failed``/``cancelled``
``GET``    ``/jobs/{id}/report``       the cache-independent sweep report
                                       (``?windows=1`` appends the merged
                                       telemetry section)
``GET``    ``/jobs/{id}/trace``        the job's Chrome trace JSON
=========  ==========================  =====================================

Concurrency model: one asyncio task per connection, one task per job
worker, one metrics pump per running job.  The sweep itself runs on an
executor thread; nothing on the event loop ever blocks on it, and SSE
consumers are isolated behind bounded :class:`EventBroker` buffers.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass
from pathlib import Path

import repro

from ..obs.metrics import MetricsRegistry
from ..obs import openmetrics as _om
from ..sweep import SweepCache, merged_windows_section
from .dash import render_dashboard
from .events import TERMINAL_EVENTS
from .http import (
    SSE_HEADER,
    SSE_HEARTBEAT,
    HttpError,
    HttpRequest,
    HttpResponse,
    json_response,
    read_request,
    sse_event,
)
from .breaker import CircuitBreaker, CircuitOpen
from .jobs import FinishedJob, JobManager, JobSpec, ServiceBusy
from .state import StateStore

__all__ = ["ExperimentServer", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` exposes as flags."""

    state_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in server.json
    cache_dir: str | Path | None = None
    cache: bool = True
    queue_size: int = 8
    job_workers: int = 2
    max_sweep_workers: int = 4
    heartbeat_s: float = 10.0
    metrics_interval_s: float = 1.0
    telemetry_interval_s: float = 0.5
    client_buffer: int = 256
    history_limit: int = 10_000
    retry_after_s: float = 2.0
    drain_grace_s: float = 10.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    hung_after_s: float = 60.0
    watchdog_interval_s: float = 0.5


class ExperimentServer:
    """A long-lived asyncio HTTP server over the sweep engine."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        # The registry exists before the StateStore so journal fsync
        # latency lands in the server's own telemetry from line one.
        self.metrics = MetricsRegistry()
        self.state = StateStore(config.state_dir, metrics=self.metrics)
        self.cache = SweepCache(config.cache_dir) if config.cache else None
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
        )
        self.manager = JobManager(
            state=self.state,
            cache=self.cache,
            queue_size=config.queue_size,
            job_workers=config.job_workers,
            max_sweep_workers=config.max_sweep_workers,
            metrics_interval=config.metrics_interval_s,
            client_buffer=config.client_buffer,
            history_limit=config.history_limit,
            retry_after=config.retry_after_s,
            registry=self.metrics,
            breaker=self.breaker,
            hung_after_s=config.hung_after_s,
            watchdog_interval_s=config.watchdog_interval_s,
        )
        self.host = config.host
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._telemetry_task: asyncio.Task | None = None
        self._routes = [
            ("GET", re.compile(r"^/healthz$"), self._get_healthz),
            ("GET", re.compile(r"^/metrics$"), self._get_metrics),
            ("GET", re.compile(r"^/dash$"), self._get_dash),
            ("POST", re.compile(r"^/jobs$"), self._post_jobs),
            ("GET", re.compile(r"^/jobs$"), self._get_jobs),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[\w.-]+)$"), self._get_job),
            ("DELETE", re.compile(r"^/jobs/(?P<job_id>[\w.-]+)$"), self._delete_job),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[\w.-]+)/events$"), None),  # SSE
            ("GET", re.compile(r"^/jobs/(?P<job_id>[\w.-]+)/report$"), self._get_report),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[\w.-]+)/trace$"), self._get_trace),
        ]

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Restore journaled jobs, start workers, bind the socket."""
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.state.write_server_info(self.host, self.port)
        self._telemetry_task = asyncio.create_task(self._telemetry_pump())

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> bool:
        """Graceful shutdown, phase one: refuse new work, settle old.

        Idempotent; flips the manager into draining (new ``POST /jobs``
        answer ``503`` + ``Retry-After`` immediately) and waits up to
        ``drain_grace_s`` for running jobs to stop (their running
        points are killed) and journal their ``drain`` records.  The
        listener stays up the whole time so health checks and SSE
        clients see the drain happen.  Call :meth:`stop` afterwards to close the socket.
        """
        return await self.manager.drain(self.config.drain_grace_s)

    async def stop(self) -> None:
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.stop()

    async def _telemetry_pump(self) -> None:
        """Server self-telemetry on a fixed cadence.

        Event-loop lag — how late the sleep wakes up — is the server's
        own "TPOT": it directly bounds SSE frame latency and HTTP
        responsiveness.  It lands in a histogram (for percentiles over
        the whole run), a bounded ring series (recent shape for the
        dashboard; decimation keeps it O(1) memory), and a last-value
        gauge; queue depth and worker utilization refresh on the same
        tick.
        """
        interval = self.config.telemetry_interval_s
        loop = asyncio.get_running_loop()
        lag_hist = self.metrics.histogram("service.loop.lag_s", growth=1.1)
        lag_series = self.metrics.series(
            "service.loop.lag_last_s.series", max_points=512, mode="ring"
        )
        lag_gauge = self.metrics.gauge("service.loop.lag_last_s")
        while True:
            before = loop.time()
            await asyncio.sleep(interval)
            lag = max(0.0, loop.time() - before - interval)
            lag_hist.observe(lag)
            lag_series.record(loop.time(), lag)
            lag_gauge.set(lag)
            self.manager.update_utilization()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                self.metrics.counter("service.http.requests").inc()
                response = await self._dispatch(request, writer)
            except HttpError as exc:
                response = exc.response()
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                self.metrics.counter("service.http.errors").inc()
                response = json_response(
                    {"error": f"{type(exc).__name__}: {exc}"}, status=500
                )
            if response is not None:
                writer.write(response.encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> HttpResponse | None:
        path_exists = False
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if not match:
                continue
            path_exists = True
            if method != request.method:
                continue
            if handler is None:  # the SSE route streams on the raw writer
                await self._stream_events(writer, **match.groupdict())
                return None
            return handler(request, **match.groupdict())
        if path_exists:
            raise HttpError(405, f"method {request.method} not allowed here")
        raise HttpError(404, f"no route for {request.path}")

    # -- plain routes ----------------------------------------------------

    def _job_or_404(self, job_id: str):
        try:
            return self.manager.jobs[job_id]
        except KeyError:
            raise HttpError(404, f"unknown job {job_id!r}") from None

    def _get_healthz(self, request: HttpRequest) -> HttpResponse:
        return json_response(
            {
                "ok": True,
                "version": repro.__version__,
                "jobs": len(self.manager.jobs),
                "in_flight": self.manager.in_flight,
                "capacity": self.manager.capacity,
                "draining": self.manager.draining,
                "breakers": self.breaker.describe(),
            }
        )

    def _get_metrics(self, request: HttpRequest) -> HttpResponse:
        if request.query.get("format") == "json":
            return json_response({"server": self.metrics.snapshot()})
        registries = [(self.metrics, None)]
        for job_id, job in self.manager.jobs.items():
            registries.append((job.metrics, {"job": job_id}))
        return HttpResponse(
            body=_om.render_openmetrics(registries).encode(),
            content_type=_om.CONTENT_TYPE,
        )

    def _get_dash(self, request: HttpRequest) -> HttpResponse:
        jobs = [job.describe() for job in self.manager.jobs.values()]
        return HttpResponse(
            body=render_dashboard(jobs, version=repro.__version__).encode(),
            content_type="text/html; charset=utf-8",
        )

    def _post_jobs(self, request: HttpRequest) -> HttpResponse:
        if self.manager.draining:
            raise HttpError(
                503,
                "server is draining; not accepting new jobs",
                headers={"Retry-After": f"{self.config.retry_after_s:g}"},
            )
        try:
            spec = JobSpec.from_payload(
                request.json(), max_workers=self.config.max_sweep_workers
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        try:
            job = self.manager.submit(spec)
        except ServiceBusy as exc:
            raise HttpError(
                429,
                "job queue at capacity",
                headers={"Retry-After": f"{exc.retry_after:g}"},
            ) from None
        except CircuitOpen as exc:
            raise HttpError(
                503,
                str(exc),
                headers={"Retry-After": f"{max(1.0, exc.retry_after):g}"},
            ) from None
        return json_response(job.describe(), status=202)

    def _get_jobs(self, request: HttpRequest) -> HttpResponse:
        return json_response(
            {"jobs": [job.describe() for job in self.manager.jobs.values()]}
        )

    def _get_job(self, request: HttpRequest, job_id: str) -> HttpResponse:
        job = self._job_or_404(job_id)
        return json_response({**job.describe(), "metrics": job.metrics.snapshot()})

    def _delete_job(self, request: HttpRequest, job_id: str) -> HttpResponse:
        self._job_or_404(job_id)
        return json_response(self.manager.cancel(job_id).describe())

    def _get_report(self, request: HttpRequest, job_id: str) -> HttpResponse:
        response = self._artifact(job_id, self.state.report_path(job_id), "report")
        if request.query.get("windows") in (None, "", "0"):
            # Default body is the artifact verbatim — byte-identical to
            # what the sweep engine wrote, telemetry or not.
            return response
        payload = json.loads(response.body)
        section = merged_windows_section(payload.get("points", []))
        if section is not None:
            payload["windows"] = section
        return json_response(payload)

    def _get_trace(self, request: HttpRequest, job_id: str) -> HttpResponse:
        return self._artifact(job_id, self.state.trace_path(job_id), "trace")

    def _artifact(self, job_id: str, path: Path, what: str) -> HttpResponse:
        job = self._job_or_404(job_id)
        if not path.is_file():
            raise HttpError(
                404, f"{what} for {job_id!r} not available (state: {job.state})"
            )
        return HttpResponse(body=path.read_bytes())

    # -- SSE -------------------------------------------------------------

    async def _stream_events(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        """Replay history, then stream live events until terminal.

        Heartbeat comments go out every ``heartbeat_s`` of silence.  A
        slow client only ever stalls *this* coroutine — the broker
        queue between it and the worker is bounded and lossy (metrics
        frames drop first), so the job never blocks and memory never
        grows with client count or slowness.  A finished job has no
        broker: its client gets the replay the job stored when it
        turned terminal, and the stream ends there.
        """
        job = self._job_or_404(job_id)
        self.metrics.counter("service.sse.clients").inc()
        if isinstance(job, FinishedJob):
            try:
                writer.write(SSE_HEADER)
                writer.write(job.replay)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return
        replay, queue = job.broker.subscribe()
        try:
            writer.write(SSE_HEADER)
            terminal = False
            for event, data in replay:
                writer.write(sse_event(event, data))
                terminal = terminal or event in TERMINAL_EVENTS
            await writer.drain()
            while not terminal:
                try:
                    event, data = await asyncio.wait_for(
                        queue.get(), timeout=self.config.heartbeat_s
                    )
                except asyncio.TimeoutError:
                    writer.write(SSE_HEARTBEAT)
                    await writer.drain()
                    continue
                writer.write(sse_event(event, data))
                await writer.drain()
                terminal = event in TERMINAL_EVENTS
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            job.broker.unsubscribe(queue)
