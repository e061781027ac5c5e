"""The protocol event bus: typed, timestamped, zero-dependency.

Every instrumented component (protocol cores, the network, the
supervisor) holds an :class:`EventBus` and emits typed events through
it.  The design constraints, in order:

1. **Free when off.**  Components guard every emission with
   ``if self._telemetry:`` — a bus with no subscribers is falsy, so the
   disabled hot path costs one attribute load and one boolean test.
   The overhead benchmark (``benchmarks/test_bench_telemetry.py``)
   holds this to ≤2% on the handshake and rekey paths.
2. **Deterministic.**  Timestamps come from an injected
   :class:`~repro.util.clock.Clock` (never a bare ``time.monotonic()``
   call), so a virtual-time chaos run produces byte-identical event
   logs per seed.  A monotonically increasing sequence number breaks
   ties and makes the total order explicit.
3. **Correlatable.**  Wire frames are identified by
   :func:`frame_id` — a truncated SHA-256 of the encoded envelope —
   shared between telemetry events, the JSONL log, and the transcript
   formatter (:mod:`repro.enclaves.tracing`), so a ``ReplayRejected``
   event names exactly the frame an analyst can find in the transcript.

Components default to the module-level :data:`DEFAULT_BUS` when no bus
is injected.  This is deliberate: scenario builders deep inside the
attack library construct protocol stacks with no plumbing for a bus, so
``python -m repro trace --scenario attack-matrix`` simply subscribes to
the default bus and observes everything.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields

from repro.util.clock import Clock, RealClock
from repro.wire.message import Envelope


def frame_id(envelope: Envelope) -> str:
    """Deterministic 12-hex-digit identifier for one wire frame.

    Two byte-identical frames (a retransmission, a replay) share an id —
    which is exactly what an analyst wants: the ``ReplayRejected`` event
    carries the id of the original frame it is a copy of.
    """
    return hashlib.sha256(envelope.to_bytes()).hexdigest()[:12]


# -- event taxonomy ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """Base class for all telemetry events (no fields of its own)."""


#: name -> event class, for schema validation of exported logs.
EVENT_TYPES: dict[str, type] = {}


def register_event(cls):
    """Class decorator: make an event type known to the exporters."""
    EVENT_TYPES[cls.__name__] = cls
    return cls


# protocol lifecycle ---------------------------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class JoinStarted(TelemetryEvent):
    """A member sent AuthInitReq (message 1).

    ``frame`` is the id of the AuthInitReq envelope itself — the root
    of the causal chain a :class:`~repro.observability.trace.TraceBuilder`
    reconstructs for the join."""

    node: str
    leader: str
    frame: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class JoinCompleted(TelemetryEvent):
    """The member accepted AuthKeyDist and is Connected."""

    node: str
    leader: str
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class AuthAccepted(TelemetryEvent):
    """The leader accepted a member's AuthAckKey (membership begins)."""

    node: str
    member: str
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class JoinDenied(TelemetryEvent):
    """The leader silently denied a join (unknown user / policy)."""

    node: str
    member: str
    reason: str
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class MemberDeparted(TelemetryEvent):
    """The leader processed a member's ReqClose."""

    node: str
    member: str
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class MemberExpelled(TelemetryEvent):
    """The leader unilaterally closed a member's session."""

    node: str
    member: str


@register_event
@dataclass(frozen=True, slots=True)
class RekeyIssued(TelemetryEvent):
    """The leader rotated the group key to ``epoch``.

    ``caused_by`` names the inbound frame whose handling triggered the
    rotation (empty for leader-initiated rotations such as
    :meth:`~repro.enclaves.itgm.leader.GroupLeader.rekey_now`)."""

    node: str
    epoch: int
    eviction: bool
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class RekeyInstalled(TelemetryEvent):
    """A member accepted and installed the group key for ``epoch``."""

    node: str
    leader: str
    epoch: int
    fingerprint: str
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class AdminAccepted(TelemetryEvent):
    """A member accepted one admin payload on the nonce-chained channel."""

    node: str
    leader: str
    kind: str
    caused_by: str = ""


# rejections ----------------------------------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class ReplayRejected(TelemetryEvent):
    """A frame was discarded by the freshness shield (stale nonce)."""

    node: str
    label: str
    reason: str
    frame: str


@register_event
@dataclass(frozen=True, slots=True)
class IntegrityRejected(TelemetryEvent):
    """A frame failed authentication / decoding / identity binding."""

    node: str
    label: str
    reason: str
    frame: str


@register_event
@dataclass(frozen=True, slots=True)
class FrameRejected(TelemetryEvent):
    """A frame was discarded for state reasons (wrong state, label...)."""

    node: str
    label: str
    reason: str
    frame: str


# network fates -------------------------------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class FrameDropped(TelemetryEvent):
    """The adversary/fault layer dropped a frame."""

    origin: str
    recipient: str
    label: str
    frame: str


@register_event
@dataclass(frozen=True, slots=True)
class FrameDuplicated(TelemetryEvent):
    origin: str
    recipient: str
    label: str
    frame: str


@register_event
@dataclass(frozen=True, slots=True)
class FrameDelayed(TelemetryEvent):
    origin: str
    recipient: str
    label: str
    frame: str
    hold: float


@register_event
@dataclass(frozen=True, slots=True)
class FrameReplaced(TelemetryEvent):
    """A frame was substituted on the wire (active adversary)."""

    origin: str
    recipient: str
    label: str
    frame: str
    substitutes: int


@register_event
@dataclass(frozen=True, slots=True)
class FrameInjected(TelemetryEvent):
    """An adversary-forged frame entered the network."""

    sender: str
    recipient: str
    label: str
    frame: str


@register_event
@dataclass(frozen=True, slots=True)
class FaultWindowOpened(TelemetryEvent):
    """A scheduled fault window became active."""

    name: str
    start: float
    end: float


@register_event
@dataclass(frozen=True, slots=True)
class FaultWindowClosed(TelemetryEvent):
    name: str
    end: float


# supervision / failover ----------------------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class WatchdogFired(TelemetryEvent):
    """A member's liveness watchdog suspected its leader."""

    node: str
    leader: str
    silence: float


@register_event
@dataclass(frozen=True, slots=True)
class RejoinCompleted(TelemetryEvent):
    """A supervised member recovered into a group."""

    node: str
    leader: str
    attempts: int
    downtime: float


@register_event
@dataclass(frozen=True, slots=True)
class RecoveryGaveUp(TelemetryEvent):
    """Every rejoin avenue failed; the supervisor stopped trying.

    ``last_error`` carries the final failure reason (which manager, and
    why) so an operator does not have to replay the whole event stream
    to learn how recovery died."""

    node: str
    attempts: int
    last_error: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class LeaderCrashed(TelemetryEvent):
    """The orchestrator killed the running manager."""

    node: str
    warm: bool


@register_event
@dataclass(frozen=True, slots=True)
class LeaderRestored(TelemetryEvent):
    """A crashed manager came back by replaying its journal."""

    node: str


@register_event
@dataclass(frozen=True, slots=True)
class LeaderFailover(TelemetryEvent):
    """A standby manager was promoted; the primary stays dead."""

    node: str
    to: str


# durability / journal -------------------------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class JournalAppended(TelemetryEvent):
    """One sealed record was appended to the leader's write-ahead log.

    ``caused_by`` names the inbound frame whose handling produced the
    mutation (empty for leader-initiated checkpoints)."""

    node: str
    kind: str
    record_seq: int
    size: int
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class JournalSynced(TelemetryEvent):
    """An fsync made ``records`` buffered journal records durable."""

    node: str
    records: int


@register_event
@dataclass(frozen=True, slots=True)
class JournalCompacted(TelemetryEvent):
    """The journal was rewritten as one base snapshot (``folded`` deltas
    absorbed), bounding future replay time."""

    node: str
    record_seq: int
    folded: int


@register_event
@dataclass(frozen=True, slots=True)
class JournalReplayed(TelemetryEvent):
    """Crash recovery replayed the journal into a restored leader.

    ``truncated`` is true when a torn or corrupt tail was discarded;
    ``reason`` says why.  ``duration`` comes from the injected clock
    (zero on the virtual-time loop), so seeded logs stay deterministic.
    """

    node: str
    base_seq: int
    records: int
    truncated: bool
    reason: str
    duration: float


@register_event
@dataclass(frozen=True, slots=True)
class JournalShipped(TelemetryEvent):
    """Durable journal records were streamed to a standby follower."""

    node: str
    peer: str
    record_seq: int


@register_event
@dataclass(frozen=True, slots=True)
class FollowerLagged(TelemetryEvent):
    """A shipped record left a follower's applied head behind its
    offered head (a delta arrived before any base snapshot, or replay
    is trailing) — the lag :func:`~repro.storage.shipping.promote`
    refuses to promote across."""

    node: str
    peer: str
    applied_seq: int
    offered_seq: int


@register_event
@dataclass(frozen=True, slots=True)
class StandbyPromoted(TelemetryEvent):
    """A standby materialized a leader from shipped journal state."""

    node: str
    record_seq: int


# fabric (multi-group shard hosting) -----------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class DirectoryUpdated(TelemetryEvent):
    """The group directory changed a routing entry (``change`` is one of
    ``create`` / ``move`` / ``delete`` / ``fail``)."""

    version: int
    group: str
    shard: str
    change: str


@register_event
@dataclass(frozen=True, slots=True)
class GroupHosted(TelemetryEvent):
    """A shard started serving a group (fresh or re-hosted)."""

    node: str
    group: str
    record_seq: int


@register_event
@dataclass(frozen=True, slots=True)
class GroupRedirected(TelemetryEvent):
    """A shard answered a stale-routed frame with a directory redirect."""

    node: str
    group: str
    member: str
    target: str
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class ShardDelivered(TelemetryEvent):
    """A shard demuxed a GROUP_WRAP frame into a hosted leader core.

    The causal splice between the fabric and protocol layers: ``frame``
    is the wrapper envelope's id, ``inner`` the unwrapped envelope's id
    — the same id the hosted leader's own events then carry in their
    ``caused_by`` fields.  ``member`` is the inner frame's origin, so a
    delivery whose frame ids appear nowhere else (mid-handshake frames
    the member sends without emitting an event) still anchors to the
    sender's session in a causal trace."""

    node: str
    group: str
    member: str
    frame: str
    inner: str


@register_event
@dataclass(frozen=True, slots=True)
class ForeignGroupRejected(TelemetryEvent):
    """A shard rejected a frame scoped to a group it does not host.

    The loud path for cross-posting: an adversary rewrapping group A's
    traffic toward group B's shard lands here (unknown group id) or in
    the hosted leader's ordinary rejection events (known group id,
    foreign seal)."""

    node: str
    group: str
    frame: str
    reason: str


@register_event
@dataclass(frozen=True, slots=True)
class MigrationStarted(TelemetryEvent):
    """A group migration began: the source shard quiesced the group."""

    group: str
    source: str
    target: str


@register_event
@dataclass(frozen=True, slots=True)
class MigrationAborted(TelemetryEvent):
    """A migration failed mid-flight; the source resumed the group."""

    group: str
    source: str
    reason: str


@register_event
@dataclass(frozen=True, slots=True)
class GroupMigrated(TelemetryEvent):
    """A group moved shards: journal shipped, directory flipped."""

    group: str
    source: str
    target: str
    record_seq: int


@register_event
@dataclass(frozen=True, slots=True)
class ShardFailed(TelemetryEvent):
    """A shard host crashed; its groups need re-homing."""

    node: str
    groups: int


# quorum (Byzantine leader replication) ---------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class AttestationIssued(TelemetryEvent):
    """A replica co-signed one mutation statement."""

    node: str
    session: str
    record_seq: int
    epoch: int


@register_event
@dataclass(frozen=True, slots=True)
class AttestationRefused(TelemetryEvent):
    """A replica declined to attest (conflicting statement for a seq it
    already signed, or its shipped journal replica failed to replay)."""

    node: str
    session: str
    reason: str


@register_event
@dataclass(frozen=True, slots=True)
class CertificateIssued(TelemetryEvent):
    """The primary assembled a quorum certificate for one mutation."""

    node: str
    session: str
    record_seq: int
    epoch: int
    signers: int
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class CertificateVerified(TelemetryEvent):
    """A member verified a mutation's quorum certificate and applied it."""

    node: str
    session: str
    epoch: int
    signers: int
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class EquivocationDetected(TelemetryEvent):
    """Two valid attestation sets conflict for one epoch/seq.

    ``evidence`` is the hex-encoded signed
    :class:`~repro.quorum.attestation.EquivocationEvidence` blob —
    self-contained proof any key-holding party can re-verify.
    ``caused_by`` names the admin frame that delivered the conflicting
    certificate, so a flight-recorder bundle can walk back from the
    detection to the offending mutation."""

    node: str
    session: str
    accused: str
    epoch: int
    evidence: str
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class ViewChangeStarted(TelemetryEvent):
    """The quorum began evicting a faulty replica."""

    session: str
    accused: str
    reason: str


@register_event
@dataclass(frozen=True, slots=True)
class ReplicaEvicted(TelemetryEvent):
    """A replica was removed from the quorum (its attestations are now
    rejected by every verifier that learns of the eviction)."""

    session: str
    replica: str


@register_event
@dataclass(frozen=True, slots=True)
class ViewChangeCompleted(TelemetryEvent):
    """A new primary took over and re-keyed at a strictly higher epoch."""

    session: str
    new_primary: str
    epoch: int


# overload (backpressure / admission) ----------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class FrameShed(TelemetryEvent):
    """An ingest queue refused one frame under overload.

    ``reason`` is one of ``capacity`` (the bounded mailbox was full and
    nothing lower-priority could be evicted, or this frame was the one
    evicted to make room) or ``fair_share`` (the sender exhausted its
    per-sender token bucket).  The typed record is the whole point:
    the seed transport grew its mailbox silently, so a flooding insider
    was invisible until honest members starved."""

    node: str
    sender: str
    label: str
    priority: str
    reason: str


@register_event
@dataclass(frozen=True, slots=True)
class QueueSaturated(TelemetryEvent):
    """A bounded mailbox crossed into saturation (depth hit capacity).

    Emitted once per saturation episode — the mailbox re-arms after
    draining below half capacity — so a sustained flood produces a
    bounded evidence stream, not one event per shed frame."""

    node: str
    depth: int
    capacity: int


@register_event
@dataclass(frozen=True, slots=True)
class FrameUnroutable(TelemetryEvent):
    """The leader endpoint dropped an outbound frame with no live link
    for its recipient (the seed path dropped these silently)."""

    node: str
    recipient: str
    label: str
    frame: str


@register_event
@dataclass(frozen=True, slots=True)
class RouteReclaimed(TelemetryEvent):
    """A TCP peer claimed a return-route address another live link held.

    Legitimate after a member reconnects; an evidence trail when an
    insider tries to steal a peer's return route (the crypto already
    makes the theft useless — this makes it *observable*)."""

    node: str
    peer: str
    frame: str


@register_event
@dataclass(frozen=True, slots=True)
class TransportError(TelemetryEvent):
    """An unexpected (non-stream) exception surfaced from a transport
    handler — previously swallowed by a blanket ``except``."""

    node: str
    peer: str
    error: str


@register_event
@dataclass(frozen=True, slots=True)
class RetryBudgetExhausted(TelemetryEvent):
    """A retry loop stopped early: its budget ran dry.

    Retry budgets convert a correlated failure (dead leader, partition)
    from a retry storm into a bounded, observable give-up."""

    node: str
    operation: str
    attempts: int


# data plane (sender-key ratchets / reliable multicast) ----------------------


@register_event
@dataclass(frozen=True, slots=True)
class DataDelivered(TelemetryEvent):
    """An endpoint opened one ratcheted data frame and released its
    plaintext to the application.

    ``chain_seq`` is the position on the sender's chain (named apart
    from the record-level bus ``seq``); the message key for that
    position is consumed (and for in-order delivery, ratcheted away)
    the moment this event fires — a second frame for the same
    ``(sender, epoch, chain_seq)`` lands in :class:`DataShed`."""

    node: str
    sender: str
    epoch: int
    chain_seq: int
    caused_by: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class DataShed(TelemetryEvent):
    """A data frame was discarded by the ratcheted channel.

    ``reason`` is one of ``replay`` (consumed seq), ``window`` (past the
    skip-window), ``epoch`` (sealed under a chain the channel has
    re-seeded away), or ``integrity`` (MAC/codec failure).  The typed
    record is what the data-plane attacks assert on: a past member's
    replayed chain state must land here, not in silence."""

    node: str
    sender: str
    epoch: int
    chain_seq: int
    reason: str
    frame: str = ""


@register_event
@dataclass(frozen=True, slots=True)
class RatchetSkipStored(TelemetryEvent):
    """Out-of-order delivery: the receive chain ratcheted past
    ``chain_seq`` and banked its message key for the late frame
    (``stored`` keys now held for this sender's chain)."""

    node: str
    sender: str
    chain_seq: int
    stored: int


@register_event
@dataclass(frozen=True, slots=True)
class RatchetWindowExceeded(TelemetryEvent):
    """A frame's chain seq would require ratcheting past the bounded
    skip-window — shed loudly instead of burning unbounded chain
    state."""

    node: str
    sender: str
    chain_seq: int
    window: int
    frame: str = ""


# observability ---------------------------------------------------------------


@register_event
@dataclass(frozen=True, slots=True)
class ProbeViolation(TelemetryEvent):
    """The live §5.4 health probe observed an invariant violation.

    Emitted by :class:`~repro.telemetry.health.HealthProbe` when it is
    watching a bus, so invariant breaks become terminal events a
    flight recorder can trigger on."""

    message: str


# -- rejection classification ------------------------------------------------

_REPLAY_MARKERS = ("replay", "stale nonce")
_INTEGRITY_MARKERS = (
    "authentication", "identity mismatch", "malformed", "undecodable",
    "group-key check", "certificate", "uncertified", "attestation",
)


def classify_rejection(reason: str) -> str:
    """Map a protocol rejection reason to its telemetry family.

    ``replay``    — the freshness shield (§3.2's chained nonces) fired;
    ``integrity`` — a seal, codec, or identity binding failed;
    ``state``     — legal-looking frame in the wrong state / bad label.
    """
    lowered = reason.lower()
    if any(marker in lowered for marker in _REPLAY_MARKERS):
        return "replay"
    if any(marker in lowered for marker in _INTEGRITY_MARKERS):
        return "integrity"
    return "state"


def rejection_event(
    node: str, reason: str, label, envelope: Envelope
) -> TelemetryEvent:
    """Build the right rejection event for one discarded frame."""
    label_name = getattr(label, "name", str(label))
    fid = frame_id(envelope)
    kind = classify_rejection(reason)
    if kind == "replay":
        return ReplayRejected(node, label_name, reason, fid)
    if kind == "integrity":
        return IntegrityRejected(node, label_name, reason, fid)
    return FrameRejected(node, label_name, reason, fid)


# -- the bus -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TelemetryRecord:
    """One emitted event with its bus-assigned timestamp and sequence."""

    ts: float
    seq: int
    event: TelemetryEvent

    def as_dict(self) -> dict:
        """Flatten to a JSON-ready dict (``event`` holds the type name)."""
        payload: dict = {"ts": self.ts, "seq": self.seq,
                         "event": type(self.event).__name__}
        for f in fields(self.event):
            payload[f.name] = getattr(self.event, f.name)
        return payload


Subscriber = Callable[[TelemetryRecord], None]


class EventBus:
    """Synchronous fan-out of telemetry events to subscribers.

    Falsy when nobody is listening — emit sites use that as their
    fast-path guard.  Timestamps come from the injected clock; swap in
    a :class:`~repro.chaos.loop.LoopClock` (virtual time) or a
    :class:`~repro.util.clock.TickClock` (logical time) for
    deterministic logs.
    """

    __slots__ = ("_subscribers", "_clock", "_seq")

    def __init__(self, clock: Clock | None = None) -> None:
        self._subscribers: list[Subscriber] = []
        self._clock: Clock = clock if clock is not None else RealClock()
        self._seq = 0

    def __bool__(self) -> bool:
        return bool(self._subscribers)

    @property
    def clock(self) -> Clock:
        return self._clock

    def set_clock(self, clock: Clock) -> None:
        """Swap the timestamp source (virtual-time runs do this)."""
        self._clock = clock

    @property
    def seq(self) -> int:
        """Sequence number of the last stamped record."""
        return self._seq

    def reset_seq(self, seq: int = 0) -> None:
        """Restart the sequence counter (new logical stream).

        ``repro trace`` resets the shared default bus around each run so
        a repeated same-seed invocation in one process exports the same
        bytes a fresh process would.
        """
        self._seq = seq

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def emit(self, event: TelemetryEvent) -> None:
        """Stamp and fan out one event (no-op without subscribers)."""
        if not self._subscribers:
            return
        self._seq += 1
        record = TelemetryRecord(self._clock.now(), self._seq, event)
        for subscriber in list(self._subscribers):
            subscriber(record)

    @contextmanager
    def capture(self):
        """Collect records emitted inside the ``with`` block."""
        records: list[TelemetryRecord] = []
        self.subscribe(records.append)
        try:
            yield records
        finally:
            self.unsubscribe(records.append)


#: The bus components fall back to when none is injected.  No-op until
#: something subscribes — `python -m repro trace` does exactly that.
DEFAULT_BUS = EventBus()


def resolve_bus(bus: EventBus | None) -> EventBus:
    """The injected bus, or the process-wide default."""
    return bus if bus is not None else DEFAULT_BUS
