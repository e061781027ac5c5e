"""Structured telemetry for the ITGM stack.

* :mod:`~repro.telemetry.events` — the typed event bus (no-op by
  default; components fall back to :data:`DEFAULT_BUS`).
* :mod:`~repro.telemetry.metrics` — labeled counters/gauges/histograms.
* :mod:`~repro.telemetry.export` — JSONL / Prometheus / live summary.
* :mod:`~repro.telemetry.health` — live §5.4 invariant probe.

See ``docs/observability.md`` for the taxonomy and exporter formats.
"""

from repro.telemetry.events import (
    DEFAULT_BUS,
    EVENT_TYPES,
    EventBus,
    TelemetryEvent,
    TelemetryRecord,
    classify_rejection,
    frame_id,
    rejection_event,
    resolve_bus,
)
from repro.telemetry.export import (
    JsonlExporter,
    LiveSummary,
    attach_jsonl,
    events_to_registry,
    record_to_dict,
    render_prometheus,
    validate_jsonl,
)
from repro.telemetry.health import HealthProbe
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_series,
)

__all__ = [
    "DEFAULT_BUS",
    "EVENT_TYPES",
    "EventBus",
    "TelemetryEvent",
    "TelemetryRecord",
    "classify_rejection",
    "frame_id",
    "rejection_event",
    "resolve_bus",
    "JsonlExporter",
    "LiveSummary",
    "attach_jsonl",
    "events_to_registry",
    "record_to_dict",
    "render_prometheus",
    "validate_jsonl",
    "HealthProbe",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_series",
]
