"""Admission control: priority classes + per-sender fair share.

Two orthogonal questions are answered before a frame enters a bounded
mailbox:

1. **How important is it?**  :func:`classify_frame` maps a wire label
   to a :class:`PriorityClass`.  The ordering encodes the paper's
   availability argument: losing a view-change/rekey/close frame
   (CONTROL) desyncs sessions and costs a re-authentication storm;
   losing a heartbeat costs a spurious suspicion; losing a join frame
   delays one member; losing an app frame costs a retransmission.
   Under saturation the cheap losses must happen first.
2. **Is the sender within its fair share?**  :class:`FairShareAdmission`
   keeps one :class:`TokenBucket` per sender, so one flooding insider
   exhausts *its own* bucket while honest peers' buckets stay full.
   CONTROL frames get a *separate, generous* per-sender bucket rather
   than a blanket exemption: the class is derived from the plaintext
   wire label, which the leader must not trust (see
   ``repro.net.tcp``), so an exemption would let an insider label its
   flood ``ACK``/``ADMIN_MSG`` and skip pacing entirely — filling the
   mailbox at top priority, where lower classes can never evict it.
   The control bucket is sized so honest control traffic (a handful of
   acks and rekey legs per sender) never hits it, while a mislabeled
   flood is shed just like any other flood.

Both are pure arithmetic over an explicitly passed ``now`` (virtual
seconds), so seeded soaks are deterministic and no wall clock is ever
read.
"""

from __future__ import annotations

import enum

from repro.wire.labels import DATA_CONTROL_LABELS, Label
from repro.wire.message import Envelope, unwrap_group


class PriorityClass(enum.IntEnum):
    """Frame importance under overload; lower value = served first."""

    CONTROL = 0
    HEARTBEAT = 1
    JOIN = 2
    APP = 3


#: Labels that carry session-critical control traffic (admin channel:
#: rekeys, expels, view-change certificates; acks; closes; redirects).
_CONTROL_LABELS = frozenset({
    Label.ADMIN_MSG, Label.ACK, Label.REQ_CLOSE, Label.GROUP_REDIRECT,
    Label.NEW_KEY, Label.NEW_KEY_ACK, Label.REQ_CLOSE_LEGACY,
    Label.CLOSE_CONNECTION, Label.MEM_ADDED, Label.MEM_REMOVED,
    Label.CONNECTION_DENIED,
})

#: Labels that belong to a join handshake (either stack, any leg).
_JOIN_LABELS = frozenset({
    Label.AUTH_INIT_REQ, Label.AUTH_KEY_DIST, Label.AUTH_ACK_KEY,
    Label.REQ_OPEN, Label.ACK_OPEN, Label.LEGACY_AUTH_1,
    Label.LEGACY_AUTH_2, Label.LEGACY_AUTH_3,
})

#: Data-plane flow control (cumulative acks, gap reports).  Small,
#: rare, and loss converts directly into retransmit traffic — so they
#: sit at heartbeat tier: above joins and bulk data, below the admin
#: channel.  Bulk ``DATA_MSG`` frames are deliberately *not* here: a
#: data flood must land in the APP class where fair-share pacing
#: starves the flooder, never the joins.
_DATA_CONTROL_LABELS = DATA_CONTROL_LABELS


def classify_frame(envelope: Envelope) -> PriorityClass:
    """The priority class of one wire frame.

    ``GROUP_WRAP`` fabric envelopes are classified by their *inner*
    frame — the wrapper is routing, not intent; a malformed wrapper
    classifies as APP (it will be rejected loudly downstream anyway,
    so it deserves no priority).  The parse this takes is the demux's
    too: :func:`~repro.wire.message.unwrap_group` keeps it on the frame.

    Liveness beacons are ordinary ``APP_DATA`` frames sealed by the
    leader (see ``GroupLeader.heartbeat``); they flow leader → member
    and never reach a leader's intake, so every ``APP_DATA`` frame an
    intake sees is APP.
    """
    label = envelope.label
    if label is Label.GROUP_WRAP:
        try:
            _, inner = unwrap_group(envelope)
        except Exception:
            return PriorityClass.APP
        return classify_frame(inner)
    if label in _CONTROL_LABELS:
        return PriorityClass.CONTROL
    if label in _DATA_CONTROL_LABELS:
        return PriorityClass.HEARTBEAT
    if label in _JOIN_LABELS:
        return PriorityClass.JOIN
    return PriorityClass.APP


class TokenBucket:
    """A deterministic token bucket over explicit timestamps.

    ``rate`` tokens accrue per second up to ``burst``; :meth:`allow`
    spends one.  Time never comes from a wall clock — the caller passes
    ``now`` (virtual seconds), so two seeded runs make identical
    decisions.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = 0.0

    def _refill(self, now: float) -> None:
        if now > self._stamp:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now

    def allow(self, now: float) -> bool:
        """Spend one token if available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


#: Per-sender pacing: ``FAIR_RATE`` tokens per virtual second up to
#: ``FAIR_BURST``.  The CONTROL class has its own bucket per sender on
#: the same pacing: generous relative to honest control traffic (a
#: handful of acks and rekey legs), but a hard ceiling on an insider
#: mislabeling its flood as control (see the module docstring).
FAIR_RATE = 10.0
FAIR_BURST = 20.0


class FairShareAdmission:
    """One token bucket per sender; floods exhaust only their own.

    Buckets are created lazily on first sight of a sender and never
    expire (the soak's sender population is bounded; a production
    deployment would LRU them).  The mailbox that consults it counts
    the refusals per sender (``MailboxStats.shed_by_sender``).
    """

    def __init__(self) -> None:
        self._buckets: dict[str, TokenBucket] = {}
        self._control_buckets: dict[str, TokenBucket] = {}

    def bucket(self, sender: str) -> TokenBucket:
        bucket = self._buckets.get(sender)
        if bucket is None:
            bucket = TokenBucket(FAIR_RATE, FAIR_BURST)
            self._buckets[sender] = bucket
        return bucket

    def control_bucket(self, sender: str) -> TokenBucket:
        """The separate CONTROL-class bucket for one sender.

        Separate so a sender's own app flood can never starve its
        genuine acks/rekey legs — but still a bucket, so a flood merely
        *labeled* control is paced like any other flood.
        """
        bucket = self._control_buckets.get(sender)
        if bucket is None:
            bucket = TokenBucket(FAIR_RATE, FAIR_BURST)
            self._control_buckets[sender] = bucket
        return bucket

    def admit(
        self, sender: str, priority: PriorityClass, now: float
    ) -> bool:
        """True when ``sender`` may enqueue one frame at ``now``."""
        if priority is PriorityClass.CONTROL:
            bucket = self.control_bucket(sender)
        else:
            bucket = self.bucket(sender)
        return bucket.allow(now)


__all__ = [
    "FairShareAdmission",
    "PriorityClass",
    "TokenBucket",
    "classify_frame",
]
