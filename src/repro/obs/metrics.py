"""Process-local metrics: counters, gauges, histograms, Prometheus text.

One registry per process collects named series with optional labels.
Instruments are cheap (one lock, one dict lookup per update) and always
on -- unlike tracing there is no enable switch, because a handful of
counter bumps per sweep point is noise next to a solver call.

``metrics_snapshot()`` renders the registry as a plain JSON-safe dict
(merged into ``WorkerReport`` and ``GET /health``);
``render_prometheus()`` produces the text exposition format served by
``GET /metrics`` on the service server.

Metric families used across the codebase (see docs/OBSERVABILITY.md for
the full table):

=====================================  =========  ====================================
name                                   kind       labels
=====================================  =========  ====================================
repro_cache_events_total               counter    outcome=hit|miss
repro_points_executed_total            counter    executor=serial|process
repro_point_wall_seconds               histogram  --
repro_dispatch_overhead_seconds_total  counter    executor=process
repro_batch_groups_total               counter    mode=stacked|serial|fallback
repro_batch_group_points               histogram  --
repro_claim_outcomes_total             counter    status
repro_lease_renewals_total             counter    --
repro_jobs_total                       counter    state=done|failed
repro_queue_depth                      gauge      state
repro_http_requests_total              counter    endpoint, method, code
repro_http_request_seconds             histogram  endpoint
=====================================  =========  ====================================

``repro_dispatch_overhead_seconds_total`` is a ``process`` sweep's fork and
result wait beyond its groups' compute.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "render_prometheus",
    "reset_metrics",
]

DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value that can move both ways."""

    kind = "gauge"
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Bucketed distribution with sum and count (Prometheus-compatible)."""

    kind = "histogram"
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(
        self, lock: threading.Lock, buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self._lock = lock
        self.buckets = tuple(sorted(buckets))
        # counts[i] observations fell in (buckets[i-1], buckets[i]];
        # counts[-1] is the +Inf overflow bucket.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for index, edge in enumerate(self.buckets):
                if value <= edge:
                    self.counts[index] += 1
                    break
            else:
                self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts, matching Prometheus ``le`` semantics."""
        total = 0
        out = []
        for bucket_count in self.counts:
            total += bucket_count
            out.append(total)
        return out


_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _series_name(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe map of (name, labels) -> instrument."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, _LabelKey], Counter | Gauge | Histogram] = {}

    def _get(self, cls: type, name: str, labels: dict[str, Any], **kwargs: Any) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(self._lock, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        **labels: Any,
    ) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    def reset(self) -> None:
        """Drop every registered series (tests and fresh worker runs)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump: ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``."""
        with self._lock:
            items = sorted(self._metrics.items())
        out: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for (name, labels), metric in items:
            series = _series_name(name, labels)
            if isinstance(metric, Counter):
                out["counters"][series] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][series] = metric.value
            else:
                out["histograms"][series] = {
                    "count": metric.count,
                    "sum": metric.sum,
                }
        return out

    def render_prometheus(self) -> str:
        """Text exposition format (version 0.0.4) for ``GET /metrics``."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: list[str] = []
        seen_types: set[str] = set()
        for (name, labels), metric in items:
            if name not in seen_types:
                lines.append(f"# TYPE {name} {metric.kind}")
                seen_types.add(name)
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{_series_name(name, labels)} {_format(metric.value)}")
                continue
            cumulative = metric.cumulative()
            edges = [_format(edge) for edge in metric.buckets] + ["+Inf"]
            for edge, count in zip(edges, cumulative):
                bucket_labels = labels + (("le", edge),)
                lines.append(f"{_series_name(name + '_bucket', bucket_labels)} {count}")
            lines.append(f"{_series_name(name + '_sum', labels)} {_format(metric.sum)}")
            lines.append(f"{_series_name(name + '_count', labels)} {metric.count}")
        return "\n".join(lines) + "\n"


def _format(value: float) -> str:
    # Integral values print without a trailing ".0" -- counters read as
    # counts, and bucket edges match their Python literals.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


REGISTRY = MetricsRegistry()


def counter(name: str, **labels: Any) -> Counter:
    """The process-wide counter for ``name`` + labels (created on first use)."""
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    """The process-wide gauge for ``name`` + labels (created on first use)."""
    return REGISTRY.gauge(name, **labels)


def histogram(
    name: str, buckets: Iterable[float] | None = None, **labels: Any
) -> Histogram:
    """The process-wide histogram for ``name`` + labels (created on first use)."""
    return REGISTRY.histogram(name, buckets=buckets, **labels)


def metrics_snapshot() -> dict[str, Any]:
    """JSON-safe dump of the default registry."""
    return REGISTRY.snapshot()


def render_prometheus() -> str:
    """Prometheus text exposition of the default registry."""
    return REGISTRY.render_prometheus()


def reset_metrics() -> None:
    """Clear the default registry (test isolation)."""
    REGISTRY.reset()
