"""Command-line interface: regenerate the paper's headline analyses.

Usage::

    python -m repro <command> [options]

Commands:

* ``summary [model]`` — architecture summary (Figure 1 as text).
* ``table1`` — KV cache comparison.
* ``table2`` — training cost comparison.
* ``table3`` — topology size/cost comparison.
* ``table5`` — link-layer latency comparison.
* ``tpot`` — §2.3.2 inference speed limits.
* ``budget [--tokens T]`` — training GPU-hour/dollar budget.
* ``serve-sim`` — request-level serving simulation (§2.3.1–§2.3.3);
  ``--json`` dumps the full ``SimReport`` as machine-readable JSON.
  Streams by default (constant memory — ``--requests 1000000`` is
  routine, with periodic progress on stderr for large runs);
  ``--record`` keeps exact per-request records and the per-request
  degradation breakdown.
* ``trace`` — run a simulator scenario with the observability layer
  on, write a Chrome trace-event file (chrome://tracing / Perfetto)
  and print a top-K span/metric summary.
* ``sweep`` — evaluate a parameter grid over a registered sweep
  target (``serving``, ``flowsim``, ``training``) across a process
  pool with content-addressed result caching: ``--grid k=a,b,c``
  declares an axis (repeatable, Cartesian product), ``--set k=v``
  fixes a shared key, ``--workers N`` fans out, ``--no-cache`` /
  ``--cache-dir`` control memoization and ``--json`` emits the
  deterministic result document (byte-identical at any worker count).
* ``serve`` — run the long-lived experiment service
  (:mod:`repro.service`): submit sweeps as jobs over HTTP, stream live
  progress and obs metrics over SSE, resume interrupted jobs from the
  journal + sweep cache after a restart, fetch report/trace artifacts;
  ``GET /metrics`` is the OpenMetrics exposition and ``GET /dash`` a
  self-contained live HTML dashboard.
* ``metrics`` — scrape a running service's ``/metrics`` exposition
  (``--json`` for the legacy snapshot shape).
* ``dash`` — one-shot terminal dashboard for a running service: job
  table plus server self-telemetry (sparklines for time series,
  percentiles for histograms).

``serve-sim --window SECONDS`` turns on windowed telemetry (tumbling
windows over the sim clock: per-window throughput, goodput, queue
depth, latency percentiles) and ``--slo RULE`` (repeatable) evaluates
SLO rules — ``burn>RATE[@OBJECTIVE]`` burn-rate rules or
``METRIC<OP>VALUE`` threshold rules — over those windows into a
deterministic fire/resolve alert timeline.  In a sweep the same pair
is two flat keys, ``--set window_s=2.0 --set 'slo=["burn>2@0.9"]'``;
whenever a point carries windows, the ``--json`` document gains a
cross-point ``windows`` section merged via ``Histogram.merge``.

``sweep`` and ``optimize`` check every point with the target's builder
(:func:`repro.sweep.targets.check_points`) before anything forks, as
the service does at submit: a bad point exits 1 with ``bad sweep spec:
...`` or ``bad search spec: ...``.

``serve-sim`` and ``trace`` build their scenarios with the sweep targets'
builders (:mod:`repro.sweep.targets`), on flat keys that state their own
defaults: disaggregated, 2+6 GPUs, 200 Poisson requests at 2 req/s; under
``--smoke``, 40 requests at 4 req/s with 256/64-token prompts/outputs
(``--requests``/``--rate`` are then ignored).  Unset keys take the
dataclass defaults, as in a ``sweep --target serving`` point (colocated).

``repro --version`` prints the package version.  An unknown subcommand
exits 2 with the usage message (pinned by ``tests/test_cli_summary.py``).

Both simulator commands accept ``--faults`` to inject failures mid-run:
either a schedule JSON file (``repro.faults.FaultSchedule.to_json``) or
``mtbf:MTBF[:MTTR[:HORIZON]]`` for seeded Poisson sampling.  ``serve-sim
--faults`` appends the degradation section (goodput before/during/after
each outage, retry and lost-work totals); ``trace --scenario network
--faults`` fails inter-switch links under the flow simulation; ``trace
--scenario training --faults`` runs the checkpoint/restart goodput
simulation.

Neither command profiles itself: per-layer timing comes from the
``perf/`` harness, and ``python -m cProfile -s cumtime -m repro
serve-sim ...`` lists the hottest functions.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .model import (
    DEEPSEEK_V2,
    DEEPSEEK_V3,
    LLAMA31_405B,
    MODEL_CATALOG,
    QWEN25_72B,
    compare_kv_cache,
    compare_training_cost,
)
from .model.summary import architecture_summary

COMPARISON_MODELS = [DEEPSEEK_V3, QWEN25_72B, LLAMA31_405B]


def _cmd_summary(args: argparse.Namespace) -> None:
    model = MODEL_CATALOG[args.model]
    print(architecture_summary(model))


def _cmd_table1(args: argparse.Namespace) -> None:
    del args
    for row in compare_kv_cache(COMPARISON_MODELS, DEEPSEEK_V3):
        print(
            f"{row.model_name:<16} ({row.attention_kind:>3})  "
            f"{row.kb_per_token:8.3f} KB/token  {row.multiplier:5.2f}x"
        )


def _cmd_table2(args: argparse.Namespace) -> None:
    del args
    models = [DEEPSEEK_V2, DEEPSEEK_V3, QWEN25_72B, LLAMA31_405B]
    for row in compare_training_cost(models):
        print(
            f"{row.model_name:<16} {row.kind:<6} {row.total_params / 1e9:6.0f}B  "
            f"{row.gflops_per_token:8.1f} GFLOPS/token"
        )


def _cmd_table3(args: argparse.Namespace) -> None:
    del args
    from .network import table3_rows

    for row in table3_rows():
        s = row.spec
        print(
            f"{s.name:<5} endpoints {s.endpoints:>7,}  switches {s.switches:>6,}  "
            f"links {s.links:>7,}  ${row.cost_musd:7.1f}M  "
            f"${row.cost_per_endpoint_kusd:.2f}k/EP"
        )


def _cmd_table5(args: argparse.Namespace) -> None:
    del args
    from .network import table5_rows

    for row in table5_rows():
        cross = "-" if row.cross_leaf_us is None else f"{row.cross_leaf_us:.2f} us"
        print(f"{row.link_layer:<12} same leaf {row.same_leaf_us:.2f} us  cross leaf {cross}")


def _cmd_tpot(args: argparse.Namespace) -> None:
    del args
    from .inference import compare_interconnects

    for row in compare_interconnects():
        print(
            f"{row.system:<22} stage {row.comm_stage_us:7.2f} us  "
            f"TPOT {row.tpot_ms:6.2f} ms  {row.tokens_per_second:7.0f} tok/s"
        )


def _cmd_budget(args: argparse.Namespace) -> None:
    from .parallel import (
        TrainingJobConfig,
        simulate_training_step,
        training_cost_usd,
        training_gpu_hours,
    )

    report = simulate_training_step(TrainingJobConfig())
    tokens = args.tokens * 1e12
    print(f"step {report.step_time:.2f} s, {report.tokens_per_day / 1e9:.1f} B tokens/day")
    print(f"{args.tokens:.1f}T tokens: {training_gpu_hours(report, tokens) / 1e6:.3f} M GPU-hours")
    print(f"cost @ $2/GPU-hour: ${training_cost_usd(report, tokens) / 1e6:.2f} M")


#: ``serve-sim``'s scenario as serving sweep-target flat keys.  Its flags
#: default to these (each flag's dest is its key), and ``trace --scenario
#: serving`` runs them unchanged.
_SERVE_SIM = {
    "mode": "disaggregated",
    "num_requests": 200,
    "request_rate": 2.0,
    "arrival": "poisson",
    "prefill_gpus": 2,
    "decode_gpus": 6,
}

#: ``--smoke``: a small fast workload that overrides ``--requests``/``--rate``.
_SMOKE_WORKLOAD = {
    "request_rate": 4.0,
    "num_requests": 40,
    "prompt_mean": 256,
    "prompt_cv": 0.3,
    "output_mean": 64,
    "output_cv": 0.3,
}


def _serving_config(args: argparse.Namespace, flat: dict):
    """Build the ``SimConfig`` of ``serve-sim``/``trace`` from flat keys.

    The serving sweep target's builder does the work, so the CLI and
    sweeps share one schema.  ``--smoke`` swaps in the smoke workload and
    ``--faults`` becomes the target's ``faults`` schedule dict.
    """
    from .sweep.targets import serving_scenario

    cfg = {**flat, **(_SMOKE_WORKLOAD if args.smoke else {})}
    if args.faults:
        from .faults import parse_faults_arg

        # Sampled schedules need a horizon: twice the mean arrival span
        # comfortably covers the decode tail of the workload.
        horizon = 2.0 * cfg["num_requests"] / cfg["request_rate"]
        targets = ("pool",) if cfg["mode"] == "colocated" else ("prefill", "decode")
        schedule = parse_faults_arg(
            args.faults, horizon=horizon, seed=args.seed, kind="gpu", targets=targets
        )
        cfg["faults"] = json.loads(schedule.to_json())
    try:
        return serving_scenario(cfg, args.seed)[0]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


#: serve-sim prints periodic progress only past this size — small runs
#: finish in well under a second and the extra lines would be noise.
_PROGRESS_MIN_REQUESTS = 10_000


def _serve_sim_progress(args: argparse.Namespace, config):
    """Progress callback for large ``serve-sim`` runs, or ``None``.

    Bounded output: the simulator fires every 5% of retired requests
    (≤ 21 lines for any request count).  Lines go to stderr so they
    never pollute piped output, and ``--json`` silences them entirely.
    """
    if args.json or config.workload.num_requests < _PROGRESS_MIN_REQUESTS:
        return None

    def on_progress(done: int, total: int, sim_time: float) -> None:
        print(
            f"  {done:>{len(str(total))}}/{total} requests "
            f"({done / total:4.0%})  sim t={sim_time:,.1f}s",
            file=sys.stderr,
            flush=True,
        )

    return on_progress


def _print_degradation(degradation) -> None:
    from .faults import NEVER

    print(
        f"faults: admitted {degradation.admitted} = finished {degradation.finished}"
        f" + dropped {degradation.dropped} + unserved {degradation.unserved}"
        f"  (identity {'holds' if degradation.accounted else 'VIOLATED'})"
    )
    print(
        f"  shed {degradation.shed}  retries {degradation.retries}  "
        f"retry-dropped {degradation.retry_dropped}  evicted {degradation.evicted}  "
        f"steps aborted {degradation.steps_aborted}  lost tokens {degradation.lost_tokens}"
    )
    for w in degradation.windows:
        end = "never" if w.end == NEVER else f"{w.end:.1f}s"
        print(
            f"  {w.kind} fault on '{w.target}' at {w.start:.1f}s (repair {end}, "
            f"-{w.gpus_lost} GPUs): goodput {w.goodput_before:.2f} -> "
            f"{w.goodput_during:.2f} -> {w.goodput_after:.2f} req/s, "
            f"SLO {w.slo_before:.0%} -> {w.slo_during:.0%} -> {w.slo_after:.0%}"
        )


def _cmd_serve_sim(args: argparse.Namespace) -> None:
    from .serving import ServingSimulator, report_asdict

    keys = (*_SERVE_SIM, "mtp", "record_requests", "window_s")
    config = _serving_config(
        args, {**{k: getattr(args, k) for k in keys}, "slo": args.slo or None}
    )
    simulator = ServingSimulator(config, on_progress=_serve_sim_progress(args, config))
    report = simulator.run()
    if args.json:
        print(json.dumps(report_asdict(report), indent=2, sort_keys=True))
        return
    ms = 1e3
    print(
        f"mode {args.mode}  gpus {args.prefill_gpus}+{args.decode_gpus}  "
        f"mtp {'on' if args.mtp else 'off'}  seed {args.seed}"
    )
    print(
        f"completed {report.completed}  preemptions {report.preemptions}  "
        f"duration {report.duration:.2f} s"
    )
    print(
        f"TTFT  p50 {report.ttft.p50 * ms:8.1f} ms  p99 {report.ttft.p99 * ms:8.1f} ms"
    )
    print(
        f"TPOT  p50 {report.tpot.p50 * ms:8.2f} ms  p99 {report.tpot.p99 * ms:8.2f} ms"
    )
    print(
        f"E2E   p50 {report.e2e.p50:8.2f} s   p99 {report.e2e.p99:8.2f} s"
    )
    print(
        f"throughput {report.throughput_tokens_per_s:,.0f} tok/s  "
        f"goodput {report.goodput_requests_per_s:.2f} req/s  "
        f"SLO attainment {report.slo_attainment:.0%}"
    )
    print(
        f"KV occupancy mean {report.mean_kv_occupancy:.1%} peak {report.peak_kv_occupancy:.1%}  "
        f"queue depth mean {report.mean_queue_depth:.1f} max {report.max_queue_depth}"
    )
    if args.mtp:
        print(f"MTP acceptance (measured) {report.mtp_acceptance_measured:.1%}")
    if report.degradation is not None:
        _print_degradation(report.degradation)
    if report.windows is not None:
        from .obs import sparkline, window_summaries

        summaries = window_summaries(list(report.windows))
        throughput = [s["throughput_tokens_per_s"] for s in summaries]
        attainment = [
            1.0 if s["slo_attainment"] is None else s["slo_attainment"]
            for s in summaries
        ]
        print(
            f"windows ({len(summaries)} x {args.window_s:g}s)  "
            f"throughput {sparkline(throughput)}  attainment {sparkline(attainment)}"
        )
    if report.alerts is not None:
        if not report.alerts:
            print("slo: monitored, no alerts")
        for a in report.alerts:
            ctx = (
                f"  (during {a.get('fault_target', '?')} fault)"
                if a.get("during_fault")
                else ""
            )
            print(
                f"slo: {a['state']:<7} t={a['time']:.1f}s  {a['rule']}  "
                f"value {a['value']:.3f} limit {a['limit']:g}{ctx}"
            )


def _trace_serving(args: argparse.Namespace, tracer, metrics) -> str:
    from .serving import ServingSimulator

    config = _serving_config(args, _SERVE_SIM)
    report = ServingSimulator(config, tracer=tracer, metrics=metrics).run()
    return (
        f"serving: {report.completed} requests, {report.preemptions} preemptions, "
        f"TPOT p99 {report.tpot.p99 * 1e3:.2f} ms over {report.duration:.2f} s"
    )


def _trace_network(args: argparse.Namespace, tracer, metrics) -> str:
    from .network import FlowSimulator
    from .sweep.targets import flowsim_scenario

    topo, flows, mode = flowsim_scenario({} if args.smoke else {"shifts": 15, "size_bytes": 1e9})
    sim = FlowSimulator(topo, tracer=tracer, metrics=metrics)
    faults = None
    if args.faults:
        from .faults import link_target, parse_faults_arg
        from .network import INTERSWITCH_LINK

        links = tuple(
            link_target(a, b)
            for a, b, data in topo.graph.edges(data=True)
            if data["kind"] == INTERSWITCH_LINK
        )
        faults = parse_faults_arg(
            args.faults, horizon=1.0, seed=args.seed, kind="link", targets=links
        )
    try:
        result = sim.simulate(flows, mode=mode, faults=faults)
    except ValueError as exc:  # e.g. a fault target not in the topology
        raise SystemExit(str(exc)) from None
    headline = (
        f"network: {len(flows)} flows over {topo.name}, "
        f"makespan {result.makespan * 1e3:.2f} ms"
    )
    fault_report = result.fault_report
    if fault_report is not None:
        headline += (
            f"; faults: {fault_report.events} events, "
            f"{len(fault_report.rerouted)} rerouted, "
            f"{len(fault_report.stalled)} stalled, "
            f"{len(fault_report.unfinished)} unfinished, "
            f"stall time {fault_report.stall_time * 1e3:.2f} ms"
        )
    return headline


def _trace_training(args: argparse.Namespace, tracer, metrics) -> str:
    from .model.config import TINY_MLA_MOE
    from .training import TrainableTransformer, markov_corpus, train

    if args.faults:
        from .faults import parse_faults_arg
        from .reliability import optimal_checkpoint_interval
        from .sweep.targets import training_scenario
        from .training import simulate_checkpointed_training

        work = 4 * 3600.0 if args.smoke else 48 * 3600.0
        cfg = {"work_s": work, "checkpoint_s": 60.0, "restart_s": 300.0}
        schedule = parse_faults_arg(
            args.faults, horizon=3 * work, seed=args.seed, kind="step", targets=("trainer",)
        )
        if args.faults.startswith("mtbf:"):
            mtbf = float(args.faults.split(":")[1])
            cfg["interval_s"] = optimal_checkpoint_interval(cfg["checkpoint_s"], mtbf)
        else:
            cfg["interval_s"] = work / 48
        cfg["faults"] = json.loads(schedule.to_json())
        positional, keywords = training_scenario(cfg, args.seed)
        report = simulate_checkpointed_training(
            *positional, **keywords, tracer=tracer, metrics=metrics
        )
        return (
            f"training: checkpointed goodput sim, {report.failures} failures, "
            f"{report.checkpoints} checkpoints, goodput {report.goodput:.1%} "
            f"(work {work / 3600:.0f} h, interval {cfg['interval_s']:.0f} s)"
        )

    steps = 5 if args.smoke else 50
    corpus = markov_corpus(TINY_MLA_MOE.vocab_size, 2_000, seed=args.seed)
    model = TrainableTransformer(TINY_MLA_MOE, seed=args.seed)
    result = train(model, corpus, steps, tracer=tracer, metrics=metrics)
    return f"training: {steps} steps, final loss {result.final_loss:.4f}"


def _sweep_value(text: str):
    """Parse one grid/set value: int, then float, bool, null, string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    return text


def _sweep_pairs(entries: list[str], what: str) -> list[tuple[str, list]]:
    pairs = []
    for entry in entries:
        key, sep, values = entry.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad {what} {entry!r}: expected K=V")
        if values.lstrip()[:1] in ("{", "["):
            # A structured value (e.g. a fault schedule dict): one JSON
            # literal, not a comma-separated list.
            try:
                pairs.append((key, [json.loads(values)]))
            except json.JSONDecodeError as exc:
                raise SystemExit(f"bad {what} {entry!r}: invalid JSON ({exc})")
            continue
        pairs.append((key, [_sweep_value(v) for v in values.split(",")]))
    return pairs


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .obs import MetricsRegistry
    from .sweep import (
        SweepCache,
        SweepSpec,
        get_target,
        grid,
        merged_windows_section,
        print_sweep_summary,
        run_sweep,
    )
    from .sweep.targets import check_points

    try:
        # get_target rather than a target_names() membership test: it
        # resolves lazily-registered targets (chaos, optimize) too.
        get_target(args.target)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    axes = dict(_sweep_pairs(args.grid, "--grid"))
    base = {k: v[0] for k, v in _sweep_pairs(args.set, "--set")}
    if not axes:
        raise SystemExit("need at least one --grid K=V1,V2,... axis")
    points = grid(**axes)
    try:
        check_points(args.target, points, base)
    except ValueError as exc:
        raise SystemExit(f"bad sweep spec: {exc}")
    spec = SweepSpec(target=args.target, points=points, base=base, seed=args.seed)
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    metrics = MetricsRegistry()
    supervise = None
    if args.timeout is not None or args.retries > 1:
        from .sweep import SupervisorPolicy

        supervise = SupervisorPolicy(timeout_s=args.timeout, max_attempts=args.retries)
    result = run_sweep(
        spec,
        workers=args.workers,
        cache=cache,
        metrics=metrics,
        progress=not args.json,
        strict=not args.keep_going,
        supervise=supervise,
    )
    if args.json:
        payload = result.payload()
        # Only points with windows add the section, so a sweep without
        # telemetry prints the same document as a telemetry-unaware one.
        section = merged_windows_section(payload["points"])
        if section is not None:
            payload["windows"] = section
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    print_sweep_summary(result)
    where = "off" if cache is None else str(cache.root)
    print(
        f"\n{len(result.points)} points  evaluated {result.evaluated}  "
        f"cache hits {result.cache_hits}  wall {result.wall_time:.2f}s  cache {where}"
    )
    results = [p.result for p in result.points]
    section = merged_windows_section([{"result": r} for r in results])
    if section is not None:
        from .obs import sparkline

        throughput = [s["throughput_tokens_per_s"] for s in section["summaries"]]
        print(
            f"windows: {len(section['merged'])} merged across "
            f"{section['points']} points  throughput {sparkline(throughput)}"
        )
    alerted = [r["alerts"] for r in results if isinstance(r, dict) and "alerts" in r]
    if alerted:
        print(f"slo: {sum(map(len, alerted))} alert transitions across all points")


def _cmd_optimize(args: argparse.Namespace) -> None:
    from .obs import MetricsRegistry
    from .optimize import print_search_summary, run_search, search_scenario
    from .sweep import SweepCache, get_target

    try:
        get_target(args.target)  # resolves lazy targets (chaos, optimize)
    except KeyError as exc:
        raise SystemExit(str(exc))
    space = dict(_sweep_pairs(args.space, "--space"))
    if not space:
        raise SystemExit("need at least one --space K=V1,V2,... axis")
    # The flags as the optimize target's flat config: a search checks
    # the same way from the CLI as from a sweep point or a service job.
    config = {
        "target": args.target,
        "objective": args.objective,
        "space": space,
        "base": {k: v[0] for k, v in _sweep_pairs(args.set, "--set")},
        "eta": args.eta,
        "rungs": args.rungs,
        "budget_s": args.budget,
        "initial": args.initial,
    }
    if args.ladder is not None:
        try:
            config["ladder"] = json.loads(args.ladder)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"bad --ladder: {exc}")
    try:
        spec = search_scenario(config, args.seed)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"bad search spec: {exc}")
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    result = run_search(
        spec,
        workers=args.workers,
        cache=cache,
        metrics=MetricsRegistry(),
        progress=not args.json,
    )
    if args.json:
        sys.stdout.write(result.to_json())
        return
    print_search_summary(result)
    where = "off" if cache is None else str(cache.root)
    print(
        f"\n{len(result.trajectory)} evaluations  computed {result.evaluated}  "
        f"cache hits {result.cache_hits}  sim {result.sim_seconds:.1f}s  "
        f"grid ~{result.grid_sim_seconds:.1f}s (~{result.speedup:.1f}x)  "
        f"wall {result.wall_time:.2f}s  cache {where}"
        + ("  [budget stop]" if result.stopped_early else "")
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import signal

    from .service import ExperimentServer, ServiceConfig

    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        max_sweep_workers=args.max_sweep_workers,
        heartbeat_s=args.heartbeat,
        metrics_interval_s=args.metrics_interval,
        telemetry_interval_s=args.telemetry_interval,
        drain_grace_s=args.drain_grace,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        hung_after_s=args.hung_after,
        history_limit=args.history_limit,
    )

    async def _main() -> None:
        server = ExperimentServer(config)
        await server.start()
        cache = "off" if server.cache is None else str(server.cache.root)
        resumed = len(server.manager.live)
        print(
            f"repro service listening on http://{server.host}:{server.port}",
            flush=True,
        )
        print(
            f"  state {server.state.root}  cache {cache}  "
            f"workers {config.job_workers}  queue {config.queue_size}  "
            f"jobs {len(server.manager.jobs)} ({resumed} resumed)",
            flush=True,
        )
        # SIGTERM/SIGINT drain instead of dying at once: stop
        # accepting (503 + Retry-After), interrupt running jobs (their
        # forked workers are killed mid-point), journal the drain, then
        # exit — a restarted server resumes the interrupted jobs from
        # the cache.  A signal sent to a sweep worker alone never lands
        # here: workers detach the inherited signal wakeup fd.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        serving = asyncio.create_task(server.serve_forever())
        await stop.wait()
        print(
            f"repro service draining (grace {config.drain_grace_s:g}s)...",
            file=sys.stderr,
            flush=True,
        )
        settled = await server.drain()
        await server.stop()
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass
        print(
            "repro service stopped"
            + ("" if settled else " (drain grace expired with jobs running)"),
            file=sys.stderr,
        )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro service stopped", file=sys.stderr)


def _service_url(args: argparse.Namespace) -> str:
    """Resolve the running service's base URL: ``--url`` wins, else the
    ``server.json`` the server wrote into its state dir."""
    if args.url:
        return args.url.rstrip("/")
    from pathlib import Path

    info_path = Path(args.state_dir).expanduser() / "server.json"
    try:
        info = json.loads(info_path.read_text())
    except (OSError, ValueError):
        raise SystemExit(
            f"no running service found ({info_path} unreadable); "
            "start one with 'repro serve' or pass --url"
        ) from None
    return f"http://{info['host']}:{info['port']}"


def _service_get(url: str) -> bytes:
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise SystemExit(f"GET {url} failed: {exc}") from None


def _cmd_metrics(args: argparse.Namespace) -> None:
    url = _service_url(args) + "/metrics"
    if args.json:
        url += "?format=json"
    sys.stdout.write(_service_get(url).decode())


def _cmd_dash(args: argparse.Namespace) -> None:
    from .obs.summary import print_table, sparkline

    base = _service_url(args)
    jobs = json.loads(_service_get(base + "/jobs"))["jobs"]
    server = json.loads(_service_get(base + "/metrics?format=json"))["server"]
    print(f"service {base}  (live page: {base}/dash)")
    if jobs:
        print_table(
            "jobs",
            ["id", "name", "target", "state", "done", "hits", "errors"],
            [
                [
                    j["id"], j.get("name") or "-", j["target"], j["state"],
                    f"{j['done']}/{j['total']}", j["cache_hits"], j["errors"],
                ]
                for j in jobs
            ],
        )
    else:
        print("no jobs yet")
    rows = []
    for name, value in sorted(server.items()):
        if isinstance(value, dict):  # histogram summary
            shown = f"p50 {value['p50']:.4g}  p99 {value['p99']:.4g}  n={value['count']}"
        elif isinstance(value, list):  # time series -> recent shape
            shown = sparkline([v for _, v in value[-64:]]) or "-"
        else:
            shown = value
        rows.append([name, shown])
    if rows:
        print_table("server telemetry", ["metric", "value"], rows)


def _cmd_trace(args: argparse.Namespace) -> None:
    from .obs import MetricsRegistry, Tracer, print_trace_summary

    runners = {
        "serving": _trace_serving,
        "network": _trace_network,
        "training": _trace_training,
    }
    tracer = Tracer()
    metrics = MetricsRegistry()
    headline = runners[args.scenario](args, tracer, metrics)
    out = args.out or f"{args.scenario}.trace.json"
    path = tracer.write(out)
    print(headline)
    print(f"trace: {len(tracer.events)} events -> {path}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    print_trace_summary(tracer, metrics, top_k=args.top)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DeepSeek-V3 ISCA'25 reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="architecture summary")
    p.add_argument("model", nargs="?", default="deepseek-v3", choices=sorted(MODEL_CATALOG))
    p.set_defaults(func=_cmd_summary)

    for name, func, help_text in (
        ("table1", _cmd_table1, "KV cache per token (Table 1)"),
        ("table2", _cmd_table2, "training GFLOPS/token (Table 2)"),
        ("table3", _cmd_table3, "topology comparison (Table 3)"),
        ("table5", _cmd_table5, "link latency (Table 5)"),
        ("tpot", _cmd_tpot, "EP inference speed limits (Section 2.3.2)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)

    p = sub.add_parser("budget", help="training GPU-hours and cost")
    p.add_argument("--tokens", type=float, default=14.8, help="training tokens, in trillions")
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser(
        "serve-sim", help="request-level serving simulation (Sections 2.3.1-2.3.3)"
    )
    p.add_argument("--mode", choices=["colocated", "disaggregated"])
    p.add_argument(
        "--requests", dest="num_requests", type=int, metavar="REQUESTS",
        help="requests to simulate",
    )
    p.add_argument(
        "--rate", dest="request_rate", type=float, metavar="RATE",
        help="mean arrival rate, req/s",
    )
    p.add_argument("--arrival", choices=["poisson", "bursty"])
    p.add_argument("--prefill-gpus", type=int)
    p.add_argument("--decode-gpus", type=int)
    p.add_argument("--mtp", action="store_true", help="enable MTP speculative decoding")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true", help="small fast workload")
    p.add_argument(
        "--record", dest="record_requests", action="store_true",
        help="keep exact per-request records (O(requests) memory; "
        "enables the per-request degradation breakdown)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="dump the full SimReport as machine-readable JSON",
    )
    p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject failures: schedule JSON path or mtbf:MTBF[:MTTR[:HORIZON]]",
    )
    p.add_argument(
        "--window", dest="window_s", type=float, default=None, metavar="SECONDS",
        help="windowed telemetry: tumbling window width on the sim clock "
        "(adds the 'windows' section to --json output)",
    )
    p.add_argument(
        "--slo", action="append", default=[], metavar="RULE",
        help="SLO monitor rule, repeatable: 'burn>RATE[@OBJECTIVE]' or "
        "'METRIC<OP>VALUE' (e.g. tpot_p99<0.05); requires --window",
    )
    p.set_defaults(func=_cmd_serve_sim, **_SERVE_SIM)

    p = sub.add_parser(
        "sweep",
        help="evaluate a parameter grid in parallel with result caching",
    )
    p.add_argument("--target", required=True, help="registered sweep target name")
    p.add_argument(
        "--grid", action="append", default=[], metavar="K=V1,V2,...",
        help="one grid axis (repeatable; axes form a Cartesian product)",
    )
    p.add_argument(
        "--set", action="append", default=[], metavar="K=V",
        help="fixed config key shared by every point (repeatable)",
    )
    p.add_argument("--workers", type=int, default=1, help="process fan-out")
    p.add_argument("--seed", type=int, default=0, help="root seed (per-point seeds derive from it)")
    p.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default ~/.cache/repro-sweep or $REPRO_SWEEP_CACHE)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the deterministic sweep document instead of the table",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="supervised execution: kill any point attempt exceeding this "
        "budget (counts as one failed attempt)",
    )
    p.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="supervised execution: attempts per point before quarantine "
        "(default 1 = no retry; >1 enables the supervisor)",
    )
    p.add_argument(
        "--keep-going", action="store_true",
        help="record per-point failures as structured error records and "
        "continue instead of aborting on the first one",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "optimize",
        help="multi-fidelity Pareto search over a sweep target's config space",
    )
    p.add_argument("--target", required=True, help="registered sweep target name")
    p.add_argument(
        "--objective", required=True,
        help="objective DSL: 'maximize goodput s.t. tpot_p99<=0.05', "
        "'pareto(cost, goodput, slo_attainment)', ...",
    )
    p.add_argument(
        "--space", action="append", default=[], metavar="K=V1,V2,...",
        help="one search axis (repeatable; neighbor expansion steps ±1 "
        "along the declared value order)",
    )
    p.add_argument(
        "--set", action="append", default=[], metavar="K=V",
        help="fixed config key shared by every point (repeatable)",
    )
    p.add_argument(
        "--eta", type=int, default=4,
        help="promotion divisor: ceil(n/eta) survive each rung (default 4)",
    )
    p.add_argument(
        "--rungs", type=int, default=None,
        help="use only the last N rungs of the target's fidelity ladder",
    )
    p.add_argument(
        "--budget", type=float, default=None, metavar="SIM_SECONDS",
        help="simulated-seconds budget; no new batch starts once spent",
    )
    p.add_argument(
        "--initial", type=int, default=None, metavar="N",
        help="seeded rung-0 subsample size (enables best-first neighbor "
        "expansion; default = the full space)",
    )
    p.add_argument(
        "--ladder", default=None, metavar="JSON",
        help='override the fidelity ladder, e.g. '
        '\'{"key": "num_requests", "rungs": [250, 1000, 4000], '
        '"cost": "duration_s"}\'',
    )
    p.add_argument("--workers", type=int, default=1, help="process fan-out per batch")
    p.add_argument("--seed", type=int, default=0, help="root seed (per-point seeds derive from it)")
    p.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default ~/.cache/repro-sweep or $REPRO_SWEEP_CACHE)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the deterministic search document instead of the tables",
    )
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "serve",
        help="run the long-lived async experiment service (jobs + SSE)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is written to "
        "<state-dir>/server.json)",
    )
    p.add_argument(
        "--state-dir", default="~/.local/state/repro-serve",
        help="session directory: job journals, report/trace artifacts",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="sweep cache directory (default ~/.cache/repro-sweep or "
        "$REPRO_SWEEP_CACHE)",
    )
    p.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p.add_argument(
        "--queue-size", type=int, default=8,
        help="jobs allowed to wait beyond the running ones (excess gets 429)",
    )
    p.add_argument("--job-workers", type=int, default=2, help="concurrent jobs")
    p.add_argument(
        "--max-sweep-workers", type=int, default=4,
        help="cap on a job's per-sweep process fan-out",
    )
    p.add_argument(
        "--heartbeat", type=float, default=10.0,
        help="SSE heartbeat interval, seconds",
    )
    p.add_argument(
        "--metrics-interval", type=float, default=1.0,
        help="SSE metrics-snapshot interval, seconds",
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=0.5,
        help="server self-telemetry sampling interval, seconds",
    )
    p.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds to wait for running jobs to stop at a point "
        "boundary on SIGTERM/SIGINT before exiting",
    )
    p.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive failed jobs that trip a target's circuit "
        "breaker (rejected with 503 until the cooldown)",
    )
    p.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open breaker waits before admitting one "
        "half-open probe job",
    )
    p.add_argument(
        "--hung-after", type=float, default=60.0,
        help="flag a running job as hung after this many seconds "
        "without a settled point (journal + SSE + metrics; 0 disables)",
    )
    p.add_argument(
        "--history-limit", type=int, default=10_000,
        help="SSE replay history cap per job (oldest events drop with "
        "a leading 'truncated' marker for late subscribers)",
    )
    p.set_defaults(func=_cmd_serve)

    for name, func, help_text in (
        (
            "metrics",
            _cmd_metrics,
            "print a running service's /metrics exposition (OpenMetrics text)",
        ),
        (
            "dash",
            _cmd_dash,
            "terminal snapshot of a running service: jobs + self-telemetry",
        ),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--url", default=None,
            help="service base URL (default: read <state-dir>/server.json)",
        )
        p.add_argument(
            "--state-dir", default="~/.local/state/repro-serve",
            help="state dir of the service to contact (for server.json)",
        )
        if name == "metrics":
            p.add_argument(
                "--json", action="store_true",
                help="fetch the JSON snapshot instead of OpenMetrics text",
            )
        p.set_defaults(func=func)

    p = sub.add_parser(
        "trace",
        help="run a simulator with tracing on and write Chrome trace-event JSON",
    )
    p.add_argument(
        "--scenario", choices=["serving", "network", "training"], default="serving"
    )
    p.add_argument("--smoke", action="store_true", help="small fast scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default <scenario>.trace.json)")
    p.add_argument("--top", type=int, default=10, help="span kinds to list in the summary")
    p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject failures: schedule JSON path or mtbf:MTBF[:MTTR[:HORIZON]]",
    )
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
