"""Long-lived async experiment service over the sweep engine.

The co-design loop the paper closes with (§6) only pays off when
experiments run continuously against a shared engine — not as one-shot
scripts.  ``repro serve`` turns this repository's simulators into that
service: a stdlib-only asyncio HTTP server (no runtime deps beyond
numpy/networkx) that

* accepts sweep **jobs** over ``POST /jobs`` — any registered sweep
  target, a grid and/or explicit points, shared ``base`` keys (a
  :class:`repro.faults.FaultSchedule` payload among them), a root seed
  — checks every point before anything forks, and fans each job out
  through :func:`repro.sweep.run_sweep` with the shared
  content-addressed :class:`repro.sweep.SweepCache`, so warm work is
  served from cache;
* applies explicit **backpressure**: a bounded queue + worker pool,
  with over-capacity submissions rejected ``429`` + ``Retry-After``
  rather than queued unboundedly;
* **streams** live progress over Server-Sent Events
  (``GET /jobs/{id}/events``): one frame per settled point, cache-hit
  instants, per-point error records, periodic
  :meth:`repro.obs.MetricsRegistry.snapshot` frames and heartbeats —
  behind bounded per-client buffers, so slow consumers lose metrics
  frames instead of blocking the worker;
* **persists sessions** as append-only JSONL journals under
  ``--state-dir``: a killed server restarts, lists its prior jobs, and
  resumes interrupted sweeps with only the unevaluated points
  recomputed (everything else hits the cache), producing a report
  byte-identical to an uninterrupted run;
* serves **artifacts**: the deterministic sweep report and the
  Chrome trace JSON per job;
* **hardens itself**: graceful drain on SIGTERM/SIGINT (``503`` +
  ``Retry-After`` while draining, running jobs interrupted at a point
  boundary with a journaled ``drain`` record, restart resumes
  byte-identically), per-job ``deadline_s``, a hung-job watchdog, a
  per-target :class:`CircuitBreaker` (consecutive-failure trip,
  half-open probe → ``503``), and supervised sweep execution
  (``timeout_s`` / ``max_attempts`` per job) so hostile points are
  killed, retried, and quarantined instead of wedging a worker;
* exposes **live telemetry**: ``GET /metrics`` renders every registry
  (server self-telemetry — event-loop lag, queue depth, worker
  utilization, cache hit ratio, journal fsync latency — plus one
  labeled family set per job) as OpenMetrics text for any Prometheus
  scraper, SLO ``alert`` frames ride the SSE stream as critical
  (replayed, never dropped) events, and ``GET /dash`` is a
  self-contained live HTML dashboard over those streams.

:class:`ExperimentServer` is the server, :class:`ServiceClient` the
stdlib test/scripting client, and the ``repro serve`` CLI subcommand
the front door.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "breaker": ("CircuitBreaker", "CircuitOpen"),
    "client": ("ServiceClient",),
    "dash": ("render_dashboard",),
    "events": ("EventBroker", "TERMINAL_EVENTS"),
    "jobs": ("FinishedJob", "Job", "JobManager", "JobSpec", "ServiceBusy", "TERMINAL_STATES"),
    "server": ("ExperimentServer", "ServiceConfig"),
    "state": ("StateStore",),
})
