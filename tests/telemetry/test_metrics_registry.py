"""Tests for the metrics registry and its instruments."""

import math

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_series,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.incr()
        c.incr(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().incr(-1)

    def test_gauge_set_and_add(self):
        g = Gauge()
        g.set(3.0)
        g.add(-1.5)
        assert g.value == 1.5

    def test_histogram_empty_stats_are_nan(self):
        h = Histogram()
        assert math.isnan(h.mean)
        assert math.isnan(h.p50)
        assert math.isnan(h.maximum)

    def test_histogram_percentile_interpolates(self):
        h = Histogram()
        for v in (0.0, 1.0, 2.0, 3.0):
            h.record(v)
        assert h.p50 == pytest.approx(1.5)
        assert h.percentile(100) == 3.0
        assert h.summary()["count"] == 4


class TestRegistry:
    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        reg.counter("rejoins", node="u1").incr()
        reg.counter("rejoins", node="u1").incr()
        assert reg.counter("rejoins", node="u1").value == 2

    def test_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("rejoins", node="u1").incr()
        reg.counter("rejoins", node="u2").incr(2)
        assert reg.counters() == {
            'rejoins{node="u1"}': 1,
            'rejoins{node="u2"}': 2,
        }

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("m", b="2", a="1")
        b = reg.counter("m", a="1", b="2")
        assert a is b

    def test_render_series_bare_and_labeled(self):
        assert render_series("up", ()) == "up"
        assert render_series("up", (("node", "u1"),)) == 'up{node="u1"}'

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("events").incr(3)
        reg.gauge("members").set(4)
        reg.histogram("latency", node="u1").record(0.25)
        snap = reg.snapshot()
        assert snap["counters"] == {"events": 3}
        assert reg.gauges() == {"members": 4}  # a view of their own
        assert snap["latencies"]['latency{node="u1"}']["count"] == 1

    def test_iter_series_covers_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("c").incr()
        reg.gauge("g").set(1)
        reg.histogram("h").record(1.0)
        kinds = sorted(kind for kind, *_ in reg.iter_series())
        assert kinds == ["counter", "gauge", "histogram"]
