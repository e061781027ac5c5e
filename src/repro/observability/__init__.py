"""Observability: causal traces, phase profiles, SLOs, flight recorder.

Four consumers of the same typed event stream
(:mod:`repro.telemetry.events`), built so that *everything observed is
derivable from a seeded run* — same seed, same virtual clock, same
bytes out:

* :mod:`repro.observability.trace` — reconstruct per-operation causal
  DAGs (a join, a rekey, a migration, a view change) from the events'
  frame ids and correlation fields.
* :mod:`repro.observability.profile` — a clock-injected phase profiler
  attributing time to named hot-path phases (seal, open, certify,
  wal.append, demux, multicast...), flamegraph-style.
* :mod:`repro.observability.slo` — declarative SLOs over the event
  stream with multi-window burn-rate evaluation; soaks can fail on
  burn.
* :mod:`repro.observability.flightrec` — a bounded ring of recent
  events that, on a terminal event (recovery gave up, equivocation
  detected, probe violation), dumps the ring plus the causal trace of
  the failing operation as a deterministic JSONL bundle.

All of it is subscriber-side: protocol code never imports this package;
it only emits events (and optionally accepts a profiler via
``bind_profiler``).
"""

from repro.observability.flightrec import (
    TRIGGERS,
    FlightRecorder,
    bundle_to_jsonl,
    load_bundle,
    render_bundle,
    write_bundle,
)
from repro.observability.profile import PhaseProfiler
from repro.observability.slo import (
    BurnWindow,
    SLOEvaluator,
    SLOReport,
    SLOSpec,
    default_slos,
)
from repro.observability.trace import TraceBuilder, TraceGraph, TraceNode

__all__ = [
    "BurnWindow",
    "FlightRecorder",
    "PhaseProfiler",
    "SLOEvaluator",
    "SLOReport",
    "SLOSpec",
    "TRIGGERS",
    "TraceBuilder",
    "TraceGraph",
    "TraceNode",
    "bundle_to_jsonl",
    "default_slos",
    "load_bundle",
    "render_bundle",
    "write_bundle",
]
