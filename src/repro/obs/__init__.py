"""Unified tracing + metrics for the simulators (observability layer).

The paper's co-design arguments are about *where time goes* — decode
steps stuck behind prefill bursts (§2.3.1), all-to-all dominating the
decode slot (§2.3.2), links saturating under routing collisions (§4.3).
This package makes those visible: every simulator accepts an optional
:class:`Tracer` (span events on the simulated clock, exported as Chrome
trace-event JSON for ``chrome://tracing``/Perfetto) and keeps its
quantitative channels in a :class:`MetricsRegistry` (counters, gauges,
time series, streaming-percentile histograms).

Instrumentation defaults to :data:`NULL_TRACER`, a null object whose
recording methods are no-ops, so an uninstrumented run pays ~nothing.
``repro trace --scenario serving|network|training`` runs a scenario
with tracing on, writes the ``.trace.json`` and prints a span/metric
summary.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "metrics": (
        "Counter", "Gauge", "Histogram", "HistogramSummary", "MetricsRegistry", "TimeSeries",
    ),
    "openmetrics": (
        "metric_name", "parse_openmetrics", "percentile_from_buckets", "render_openmetrics",
    ),
    "slo": ("AlertEvent", "SloRule", "evaluate_slo", "parse_slo_rules"),
    "summary": ("print_table", "print_trace_summary", "sparkline"),
    "trace": ("NULL_TRACER", "NullTracer", "Tracer"),
    "windows": ("WindowedMetrics", "merge_window_rollups", "window_summaries"),
})
