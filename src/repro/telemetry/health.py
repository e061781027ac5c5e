"""Health probe: fold the live event stream into the §5.4 invariants.

The chaos soak asserts the paper's safety properties by sampling
protocol state; this probe checks the *event stream* itself, which
gives what the state sampler cannot: violations are reported **with
the event trail that led to them** (the last ``TRAIL`` records before the
offending event, frame ids included), so a failed invariant is a story,
not a boolean.

Invariants checked live (per §5.4's per-session reading):

1. **Epoch monotonicity** — within one member session (bounded by
   ``JoinCompleted`` events), accepted group-key epochs from a given
   leader are strictly increasing.  A replayed or reordered key
   distribution that re-installed an old epoch trips this.
2. **Epoch/fingerprint agreement** — all members that install
   ``(leader, epoch)`` install the *same* key fingerprint; two
   different fingerprints for one epoch would mean the leader (or the
   wire) equivocated.
"""

from __future__ import annotations

from collections import deque

from repro.telemetry.events import (
    EventBus,
    JoinCompleted,
    ProbeViolation,
    RekeyInstalled,
    TelemetryRecord,
)


#: Records of event trail a violation report carries.
TRAIL = 24


class HealthProbe:
    """A bus subscriber that checks invariants as events arrive."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self._trail: deque[TelemetryRecord] = deque(maxlen=TRAIL)
        #: (member, leader) -> session generation (bumped per rejoin).
        self._generation: dict[tuple[str, str], int] = {}
        #: (member, leader, generation) -> last accepted epoch.
        self._last_epoch: dict[tuple[str, str, int], int] = {}
        #: (leader, epoch) -> fingerprint first seen for it.
        self._fingerprints: dict[tuple[str, int], str] = {}
        #: The bus we watch (set by subscribe_to); violations are
        #: echoed onto it as ProbeViolation events so downstream
        #: subscribers (e.g. a flight recorder) can trigger on them.
        self._bus: EventBus | None = None
        self.checked = 0

    def subscribe_to(self, bus: EventBus) -> "HealthProbe":
        bus.subscribe(self)
        self._bus = bus
        return self

    # -- the subscriber ------------------------------------------------------

    def __call__(self, record: TelemetryRecord) -> None:
        event = record.event
        if isinstance(event, JoinCompleted):
            key = (event.node, event.leader)
            self._generation[key] = self._generation.get(key, 0) + 1
        elif isinstance(event, RekeyInstalled):
            self._check_install(event)
        self._trail.append(record)

    def _check_install(self, event: RekeyInstalled) -> None:
        self.checked += 1
        member, leader = event.node, event.leader
        generation = self._generation.get((member, leader), 0)
        key = (member, leader, generation)
        last = self._last_epoch.get(key)
        if last is not None and event.epoch <= last:
            kind = "duplicate" if event.epoch == last else "stale"
            self._report(
                f"{member}<-{leader}: {kind} group-key epoch "
                f"{event.epoch} accepted after {last} "
                f"(session generation {generation})"
            )
        self._last_epoch[key] = event.epoch

        seen = self._fingerprints.setdefault(
            (leader, event.epoch), event.fingerprint
        )
        if seen != event.fingerprint:
            self._report(
                f"{leader} epoch {event.epoch}: fingerprint disagreement "
                f"({event.fingerprint[:8]} vs {seen[:8]})"
            )

    def _report(self, message: str) -> None:
        trail = " | ".join(self._describe(r) for r in self._trail)
        self.violations.append(
            f"{message}\n    trail: {trail}" if trail else message
        )
        if self._bus is not None:
            # emit() iterates a copy of the subscriber list, so
            # emitting from inside this subscriber is safe.
            self._bus.emit(ProbeViolation(message))

    @staticmethod
    def _describe(record: TelemetryRecord) -> str:
        event = record.event
        name = type(event).__name__
        bits = [f"t={record.ts:.2f}"]
        for attr in ("node", "frame", "epoch"):
            value = getattr(event, attr, None)
            if value is not None and value != "":
                bits.append(f"{attr}={value}")
        return f"{name}({', '.join(bits)})"
