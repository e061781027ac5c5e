"""Tests for metric collection: the simulations and soaks count into
:class:`MetricsRegistry` and time into :class:`Histogram` directly (the
``sim.metrics`` aliases ``MetricSet`` / ``LatencyRecorder`` are gone)."""

import math

from repro.telemetry.metrics import Histogram, MetricsRegistry


class TestLatencyRecorder:
    def test_empty_stats_are_nan(self):
        rec = Histogram()
        assert math.isnan(rec.mean)
        assert math.isnan(rec.p50)
        assert math.isnan(rec.maximum)

    def test_single_sample(self):
        rec = Histogram()
        rec.record(5.0)
        assert rec.mean == 5.0
        assert rec.p50 == 5.0
        assert rec.percentile(0) == 5.0
        assert rec.percentile(100) == 5.0

    def test_mean(self):
        rec = Histogram()
        for v in (1.0, 2.0, 3.0):
            rec.record(v)
        assert rec.mean == 2.0

    def test_percentiles(self):
        rec = Histogram()
        for v in range(1, 101):
            rec.record(float(v))
        assert rec.p50 == 50.5
        assert abs(rec.percentile(99) - 99.01) < 0.011
        assert rec.percentile(0) == 1.0
        assert rec.percentile(100) == 100.0
        assert rec.maximum == 100.0

    def test_interpolation(self):
        rec = Histogram()
        rec.record(0.0)
        rec.record(10.0)
        assert rec.p50 == 5.0

    def test_order_independent(self):
        a, b = Histogram(), Histogram()
        for v in (5.0, 1.0, 3.0):
            a.record(v)
        for v in (1.0, 3.0, 5.0):
            b.record(v)
        assert a.p50 == b.p50

    def test_len(self):
        rec = Histogram()
        rec.record(1.0)
        assert len(rec) == 1


class TestMetricSet:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.counter("joins").incr()
        metrics.counter("joins").incr(2)
        assert metrics.counters()["joins"] == 3

    def test_latency_lazy_creation(self):
        metrics = MetricsRegistry()
        metrics.histogram("auth").record(0.1)
        assert metrics.histogram("auth") is metrics.histograms()["auth"]

    def test_snapshot(self):
        """``snapshot()`` is the dict ``MetricSet.snapshot()`` returned —
        what ``SoakReport.format_table`` reads."""
        metrics = MetricsRegistry()
        metrics.counter("x").incr()
        metrics.counter("rejoins").incr(3)
        metrics.histogram("y").record(2.0)
        metrics.histogram("y").record(4.0)
        assert metrics.snapshot() == {
            "counters": {"x": 1, "rejoins": 3},
            "latencies": {
                "y": {"count": 2, "mean": 3.0, "p50": 3.0,
                      "p99": 3.98, "max": 4.0},
            },
        }
