"""Crash flight recorder: the last N events plus the causal story.

A :class:`FlightRecorder` is a bus subscriber holding a bounded ring of
recent events.  When a **terminal** event arrives — recovery gave up,
a member produced equivocation evidence, the live health probe saw a
§5.4 invariant break — it captures a bundle:

* the trigger event itself,
* the full ring (the last ``CAPACITY`` events before and including the
  trigger, in order),
* the **causal trace** of the trigger: the ancestors of the triggering
  event in the ring's reconstructed
  :class:`~repro.observability.trace.TraceGraph`, each annotated with
  its resolved parent edges.  For an equivocation this walks back from
  the detection through the certificate delivery frame to the member's
  session root — the offending mutation, not just the alarm.

Bundles serialize to sorted-key JSONL (:func:`bundle_to_jsonl`), so a
seeded virtual-time run dumps **byte-identical** bundles across
processes — the acceptance check for ``repro obs flightrec``.  Capture
keeps recording: the ring is copied, not drained, and later triggers
produce further bundles.
"""

from __future__ import annotations

import json
from collections import deque

from repro.observability.trace import TraceBuilder
from repro.telemetry.events import TelemetryRecord
from repro.telemetry.export import record_to_dict

#: Terminal events worth a bundle, by type name.
TRIGGERS = frozenset({
    "RecoveryGaveUp",
    "EquivocationDetected",
    "ProbeViolation",
})
#: Events the ring holds.
CAPACITY = 256


class FlightRecorder:
    """Ring-buffer subscriber that dumps forensics on terminal events."""

    def __init__(self) -> None:
        self._ring: deque[dict] = deque(maxlen=CAPACITY)
        #: Captured bundles, oldest first.
        self.bundles: list[dict] = []

    def __call__(self, record: TelemetryRecord) -> None:
        payload = record_to_dict(record)
        self._ring.append(payload)
        if payload["event"] in TRIGGERS:
            self.bundles.append(self._capture(payload))

    def __len__(self) -> int:
        return len(self._ring)

    def _capture(self, trigger: dict) -> dict:
        builder = TraceBuilder()
        builder.extend(self._ring)
        graph = builder.build()
        trace = []
        for seq in graph.ancestors(trigger["seq"]):
            node = graph.nodes[seq]
            entry = dict(node.data)
            entry["parents"] = [
                [parent, kind] for parent, kind in node.parents
            ]
            trace.append(entry)
        return {
            "trigger": trigger,
            "ring": [dict(payload) for payload in self._ring],
            "trace": trace,
        }


def bundle_to_jsonl(bundle: dict) -> str:
    """Serialize one bundle as deterministic JSONL.

    One line per element, each self-describing via its ``record`` key
    (``trigger`` / ``ring`` / ``trace``), keys sorted — same bundle,
    same bytes.
    """
    lines = [json.dumps(
        {"record": "trigger", **bundle["trigger"]}, sort_keys=True,
    )]
    for payload in bundle["ring"]:
        lines.append(json.dumps(
            {"record": "ring", **payload}, sort_keys=True,
        ))
    for entry in bundle["trace"]:
        lines.append(json.dumps(
            {"record": "trace", **entry}, sort_keys=True,
        ))
    return "\n".join(lines) + "\n"


def write_bundle(bundle: dict, path) -> None:
    with open(path, "w") as f:
        f.write(bundle_to_jsonl(bundle))


def load_bundle(source) -> dict:
    """Parse a JSONL bundle back into the capture structure."""
    if isinstance(source, (str, bytes)):
        with open(source) as f:
            lines = f.readlines()
    else:
        lines = list(source)
    bundle: dict = {"trigger": None, "ring": [], "trace": []}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        kind = payload.pop("record", None)
        if kind == "trigger":
            bundle["trigger"] = payload
        elif kind == "ring":
            bundle["ring"].append(payload)
        elif kind == "trace":
            bundle["trace"].append(payload)
        else:
            raise ValueError(f"unknown bundle record kind {kind!r}")
    if bundle["trigger"] is None:
        raise ValueError("bundle has no trigger record")
    return bundle


def render_bundle(bundle: dict) -> str:
    """Human-readable forensic summary of one bundle."""
    trigger = bundle["trigger"]
    lines = [
        f"flight recorder: {trigger['event']} at t={trigger['ts']:.2f} "
        f"(seq {trigger['seq']})",
        f"  ring: {len(bundle['ring'])} events captured",
        f"  causal trace of seq {trigger['seq']}:",
    ]
    for entry in bundle["trace"]:
        parents = entry.get("parents") or []
        via = (
            " <- " + ", ".join(f"{p}:{kind}" for p, kind in parents)
            if parents else " (root)"
        )
        bits = [
            f"{field}={entry[field]}"
            for field in ("node", "leader", "session", "accused", "epoch",
                          "record_seq", "message")
            if entry.get(field) not in (None, "")
        ]
        detail = f" {' '.join(bits)}" if bits else ""
        lines.append(
            f"    [{entry['seq']}] t={entry['ts']:.2f} "
            f"{entry['event']}{detail}{via}"
        )
    return "\n".join(lines)


__all__ = [
    "FlightRecorder",
    "TRIGGERS",
    "bundle_to_jsonl",
    "load_bundle",
    "render_bundle",
    "write_bundle",
]
