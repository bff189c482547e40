"""``repro.obs`` -- zero-dependency tracing and metrics for every layer.

Spans (:mod:`repro.obs.trace`) follow one logical request across the
engine's pool executors, the distributed worker's claim/execute/publish
loop and the HTTP service, sharing a single ``trace_id`` end to end.
Metrics (:mod:`repro.obs.metrics`) collect process-local counters,
gauges and histograms exposed as ``GET /metrics`` Prometheus text and
``metrics_snapshot()`` dicts.  Inspection (:mod:`repro.obs.inspect`)
renders recorded traces for the ``python -m repro trace`` subcommand.

See docs/OBSERVABILITY.md for the span model and the metric-name table.
"""

from repro.obs.inspect import (
    critical_path,
    load_spans,
    render_critical_path,
    render_summary,
    render_tree,
    summarize,
)
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_snapshot,
    render_prometheus,
    reset_metrics,
)
from repro.obs.trace import (
    TRACE_HEADER,
    activate_carrier,
    carrier_from_header,
    carrier_to_header,
    configure_tracing,
    current_carrier,
    trace_sink,
    trace_span,
    tracing,
    tracing_enabled,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "TRACE_HEADER",
    "activate_carrier",
    "carrier_from_header",
    "carrier_to_header",
    "configure_tracing",
    "counter",
    "critical_path",
    "current_carrier",
    "gauge",
    "histogram",
    "load_spans",
    "metrics_snapshot",
    "render_critical_path",
    "render_prometheus",
    "render_summary",
    "render_tree",
    "reset_metrics",
    "summarize",
    "trace_sink",
    "trace_span",
    "tracing",
    "tracing_enabled",
]
