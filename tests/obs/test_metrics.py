"""Metrics registry: instruments, labels, snapshot, Prometheus rendering."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    counter,
    metrics_snapshot,
    reset_metrics,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("events_total").inc()
        registry.counter("events_total").inc(3)
        assert registry.counter("events_total").value == 4

    def test_labels_create_independent_series(self):
        registry = MetricsRegistry()
        registry.counter("events_total", outcome="hit").inc()
        registry.counter("events_total", outcome="miss").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]['events_total{outcome="hit"}'] == 1
        assert snapshot["counters"]['events_total{outcome="miss"}'] == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("r", a="1", b="2").inc()
        registry.counter("r", b="2", a="1").inc()
        assert registry.counter("r", a="1", b="2").value == 2

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_histogram_counts_sum_and_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=[0.1, 1.0])
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)
        assert hist.counts == [1, 1, 1]  # per-bucket, +Inf last
        assert hist.cumulative() == [1, 2, 3]

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("mixed")
        with pytest.raises(TypeError):
            registry.gauge("mixed")

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestSnapshotAndRender:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", state="done").inc()
        registry.gauge("depth", state="queued").set(3)
        registry.histogram("seconds").observe(0.2)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["gauges"]['depth{state="queued"}'] == 3
        assert snapshot["histograms"]["seconds"] == {"count": 1, "sum": 0.2}

    def test_prometheus_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", state="done").inc(2)
        registry.histogram("repro_seconds", buckets=[0.5, 1.0]).observe(0.7)
        text = registry.render_prometheus()
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{state="done"} 2' in text
        assert "# TYPE repro_seconds histogram" in text
        assert 'repro_seconds_bucket{le="0.5"} 0' in text
        assert 'repro_seconds_bucket{le="1"} 1' in text
        assert 'repro_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_seconds_sum 0.7" in text
        assert "repro_seconds_count 1" in text
        assert text.endswith("\n")

    def test_type_line_emitted_once_per_family(self):
        registry = MetricsRegistry()
        registry.counter("family_total", k="a").inc()
        registry.counter("family_total", k="b").inc()
        text = registry.render_prometheus()
        assert text.count("# TYPE family_total counter") == 1

    def test_reset_clears_every_series(self):
        registry = MetricsRegistry()
        registry.counter("gone_total").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestModuleRegistry:
    def test_module_helpers_share_one_registry(self):
        reset_metrics()
        counter("repro_test_events_total").inc()
        assert (
            metrics_snapshot()["counters"]["repro_test_events_total"] == 1
        )
        reset_metrics()
