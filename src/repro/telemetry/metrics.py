"""Metrics registry: counters, gauges, histograms, per-node labels.

Instruments are cheap plain objects; the registry keys them by
``(name, sorted label items)`` so the same metric can be tracked per
node, per window, per stack...  Rendering for humans and for
Prometheus-style scrapes lives in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def incr(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters only go up")
        self.value += by


class Gauge:
    """A value that goes up and down (e.g. connected members)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass
class Histogram:
    """Sample collector with linear-interpolated percentiles."""

    samples: list[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile (p in [0, 100])."""
        if not self.samples:
            return math.nan
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        weight = rank - low
        return data[low] * (1 - weight) + data[high] * weight

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def summary(self) -> dict:
        return {
            "count": len(self),
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "max": self.maximum,
        }


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_series(name: str, key: LabelKey) -> str:
    """Prometheus-style series name: ``name{k="v",...}`` (or bare)."""
    if not key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named, labeled instruments with lazy creation.

    ``registry.counter("rejoins", node="user-3").incr()`` — one series
    per distinct label set.  ``snapshot()`` renders counters and
    histograms to plain dicts for reports and assertions.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -- views ---------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """All counter series, keyed by rendered series name."""
        return {
            render_series(name, key): c.value
            for (name, key), c in self._counters.items()
        }

    def gauges(self) -> dict[str, float]:
        return {
            render_series(name, key): g.value
            for (name, key), g in self._gauges.items()
        }

    def histograms(self) -> dict[str, Histogram]:
        return {
            render_series(name, key): h
            for (name, key), h in self._histograms.items()
        }

    def iter_series(self):
        """Yield ``(kind, name, label_key, instrument)`` for export."""
        for (name, key), c in self._counters.items():
            yield "counter", name, key, c
        for (name, key), g in self._gauges.items():
            yield "gauge", name, key, g
        for (name, key), h in self._histograms.items():
            yield "histogram", name, key, h

    def snapshot(self) -> dict:
        """A plain-dict view for reports and assertions: counters by
        series and histograms as their ``latencies`` summaries."""
        return {
            "counters": self.counters(),
            "latencies": {
                series: h.summary() for series, h in self.histograms().items()
            },
        }
