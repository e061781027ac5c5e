"""ACK/NACK reliable multicast over the ratcheted channel.

The leader relays data frames without opening them, so it also cannot
acknowledge them — reliability is end-to-end.  Each receiver answers
every delivered frame with a cumulative ``DATA_ACK`` for that sender's
chain, plus a ``DATA_NACK`` naming outstanding gaps whenever its skip
store holds banked keys (frames ratcheted past but not yet seen).

The sender keeps the *plaintext* of every unacknowledged frame and the
sealed envelope it last sent for it:

* a NACK retransmits the cached envelope verbatim (the receiver's
  banked skip key is exactly the key that opens it);
* a retransmit timer (:class:`~repro.overload.deadline.AdaptiveDeadline`
  over an RFC 6298 :class:`~repro.overload.deadline.LatencyTracker`,
  driven by the sim clock) resends frames whose ACKs are overdue,
  spending a Finagle-style
  :class:`~repro.overload.deadline.RetryBudget` so a dead group drains
  into a bounded, observable give-up instead of a retry storm;
* an epoch rebind (membership changed → every chain re-seeded)
  re-seals all pending plaintexts on the *new* chain with new sequence
  numbers — the old epoch's frames are undeliverable by design.

ACK/NACK payloads are sealed under the current group key (they are
group-internal flow control, not end-to-end secrets) with associated
data binding label, origin sender, acker, and epoch; the origin and
acker ride in the clear so the relay can route without opening.  Every
ACK of an epoch goes through the channel's one ``control_cipher``, so
the group key's subkeys are derived once and its cipher context is kept
for as long as the epoch lasts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.mac import hmac_sha256
from repro.exceptions import (
    CodecError,
    IntegrityError,
    RatchetError,
    StateError,
)
from repro.overload.deadline import AdaptiveDeadline, LatencyTracker, RetryBudget
from repro.telemetry.events import (
    EventBus,
    RetryBudgetExhausted,
    resolve_bus,
)
from repro.wire.codec import decode_fields, decode_str, encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope

_SEQ_LEN = 8


def _control_ad(label: Label, origin: str, acker: str, epoch: int) -> bytes:
    return encode_fields([
        b"repro-data-ctl", bytes([label.value]),
        encode_str(origin), encode_str(acker), epoch.to_bytes(8, "big"),
    ])


def _seal_control(
    label: Label,
    cipher: AuthenticatedCipher,
    origin: str,
    acker: str,
    epoch: int,
    seqs: list[int],
    relay: str,
) -> Envelope:
    """Build one sealed ACK/NACK envelope addressed at the relay."""
    payload = encode_fields(
        [epoch.to_bytes(8, "big")] + [s.to_bytes(_SEQ_LEN, "big") for s in seqs]
    )
    ad = _control_ad(label, origin, acker, epoch)
    # Deterministic nonce: the message key is the (multi-use) group
    # key, but (label, origin, acker, epoch, payload) fully determines
    # the plaintext, so equal nonces only ever pair with equal
    # plaintexts — reproducible frames, no keystream reuse leak.
    nonce = hmac_sha256(b"repro-data-ctl-nonce", ad + payload)[:8]
    box = cipher.seal_with_nonce(nonce, payload, ad)
    body = encode_fields([encode_str(origin), encode_str(acker), box.to_bytes()])
    return Envelope(label, acker, relay, body)


def decode_control_routing(body: bytes) -> tuple[str, str, bytes]:
    """Parse ``(origin, acker, sealed box)`` — the relay-visible part."""
    origin_b, acker_b, box = decode_fields(body, expect=3)
    return decode_str(origin_b), decode_str(acker_b), box


_MSG_MAGIC = b"repro-data-msg"


def wrap_msg(msg_id: int, payload: bytes) -> bytes:
    """Prefix a payload with its stable message id.

    The id is assigned once per ``send`` and survives epoch re-seals
    (which mint *new* sequence numbers on *new* chains), so it is the
    only handle a receiver has to notice "I already delivered this
    payload at the previous epoch, its ack just got lost".
    """
    return encode_fields([_MSG_MAGIC, msg_id.to_bytes(8, "big"), payload])


def unwrap_msg(plain: bytes) -> tuple[int | None, bytes]:
    """Inverse of :func:`wrap_msg`; bare payloads pass through as
    ``(None, plain)`` so unreliable senders interoperate."""
    try:
        magic, mid, payload = decode_fields(plain, expect=3)
    except CodecError:
        return None, plain
    if magic != _MSG_MAGIC or len(mid) != 8:
        return None, plain
    return int.from_bytes(mid, "big"), payload


class ReliableSender:
    """Sender-side reliability for one node's outgoing chain."""

    def __init__(
        self,
        node: str,
        channel,
        *,
        peers: Callable[[], Iterable[str]],
        telemetry: EventBus | None = None,
    ) -> None:
        self.node = node
        self.channel = channel
        self._peers = peers
        self._telemetry = resolve_bus(telemetry)
        self.tracker = LatencyTracker()
        self.deadline = AdaptiveDeadline(self.tracker)
        self.budget = RetryBudget()
        #: seq -> (message id, plaintext, sealed envelope, last send time).
        #: The message id is assigned once per payload and survives
        #: epoch re-seals, so receivers can deduplicate a payload that
        #: was delivered at epoch e and re-sent (unacked) at e+1.
        self._pending: dict[int, tuple[int, bytes, Envelope, float]] = {}
        self._next_msg_id = 0
        self._acked: dict[str, int] = {}
        self._relay: str | None = None
        self._epoch = -1
        self.sent = 0
        self.retransmits = 0
        self.fully_acked = 0
        self._budget_starved = False

    @property
    def pending(self) -> int:
        return len(self._pending)

    def send(self, payload: bytes, relay: str, now: float) -> Envelope:
        """Seal one payload and start tracking it until fully acked."""
        self._sync_epoch()
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        seq, envelope = self.channel.seal(wrap_msg(msg_id, payload), relay)
        self._relay = relay
        self._pending[seq] = (msg_id, payload, envelope, now)
        self.budget.record_request()
        self.sent += 1
        return envelope

    def _sync_epoch(self) -> None:
        if self.channel.epoch != self._epoch:
            self._epoch = self.channel.epoch
            self._acked = {}

    def rebind(self, now: float) -> list[Envelope]:
        """Re-seal every pending payload on the (new-epoch) chain.

        Returns the fresh envelopes to post.  Old-epoch acks are
        meaningless against new sequence numbers, so per-peer ack state
        resets with the chains.
        """
        if self._relay is None or self.channel.epoch == self._epoch:
            self._sync_epoch()
            return []
        pending = [self._pending[seq][:2] for seq in sorted(self._pending)]
        self._pending = {}
        self._sync_epoch()
        out = []
        for msg_id, payload in pending:
            seq, envelope = self.channel.seal(
                wrap_msg(msg_id, payload), self._relay)
            self._pending[seq] = (msg_id, payload, envelope, now)
            out.append(envelope)
        return out

    def on_ack(self, envelope: Envelope, now: float) -> None:
        """Fold one DATA_ACK into the pending set (bad acks ignored)."""
        if envelope.label is not Label.DATA_ACK:
            return
        parsed = self._open(Label.DATA_ACK, envelope)
        if parsed is None:
            return
        # ACK values ride +1 on the wire so "nothing contiguous yet"
        # (cumulative -1) stays an unsigned field.
        acker = parsed[0]
        cum = parsed[1][0] - 1 if parsed[1] else -1
        previous = self._acked.get(acker, -1)
        if cum <= previous:
            return
        self._acked[acker] = cum
        # RTT sample: age of the newest frame this ack covers.
        newest = max(
            (sent for seq, (_, _, _, sent) in self._pending.items()
             if seq <= cum),
            default=None,
        )
        if newest is not None:
            self.tracker.observe(max(0.0, now - newest))
        self._collect()

    def on_nack(self, envelope: Envelope) -> list[Envelope]:
        """Retransmit the cached frames a DATA_NACK names."""
        if envelope.label is not Label.DATA_NACK:
            return []
        parsed = self._open(Label.DATA_NACK, envelope)
        if parsed is None:
            return []
        out = []
        for seq in parsed[1]:
            entry = self._pending.get(seq)
            if entry is None:
                continue
            if not self.budget.record_retry():
                self._starve()
                break
            out.append(entry[2])
            self.retransmits += 1
        return out

    def tick(self, now: float) -> list[Envelope]:
        """Retransmit frames whose acknowledgements are overdue."""
        self._sync_epoch()
        overdue = self.deadline.current()
        out = []
        for seq in sorted(self._pending):
            msg_id, payload, envelope, sent_at = self._pending[seq]
            if now - sent_at < overdue:
                continue
            if not self.budget.record_retry():
                self._starve()
                break
            self._pending[seq] = (msg_id, payload, envelope, now)
            out.append(envelope)
            self.retransmits += 1
        return out

    def _starve(self) -> None:
        if not self._budget_starved and self._telemetry:
            self._telemetry.emit(RetryBudgetExhausted(
                self.node, "data-retransmit", self.budget.retries))
        self._budget_starved = True

    def _collect(self) -> None:
        """Drop frames every current peer has cumulatively acked."""
        peers = [p for p in self._peers() if p != self.node]
        if not peers:
            return
        floor = min(self._acked.get(p, -1) for p in peers)
        done = [seq for seq in self._pending if seq <= floor]
        for seq in done:
            del self._pending[seq]
            self.fully_acked += 1
        if done:
            self._budget_starved = False

    def _open(self, label: Label, envelope: Envelope):
        cipher = self.channel.control_cipher
        if cipher is None:
            return None
        try:
            origin, acker, box_b = decode_control_routing(envelope.body)
            if origin != self.node:
                return None
            ad = _control_ad(label, origin, acker, self.channel.epoch)
            plain = cipher.open(SealedBox.from_bytes(box_b), ad)
            fields = decode_fields(plain)
        except (CodecError, IntegrityError):
            return None
        if not fields or len(fields[0]) != 8:
            return None
        epoch = int.from_bytes(fields[0], "big")
        if epoch != self.channel.epoch:
            return None
        seqs = []
        for raw in fields[1:]:
            if len(raw) != _SEQ_LEN:
                return None
            seqs.append(int.from_bytes(raw, "big"))
        return acker, seqs


class ReliableReceiver:
    """Receiver-side reliability: deliver, then ack and report gaps."""

    def __init__(self, node: str, channel) -> None:
        self.node = node
        self.channel = channel
        self.acks_sent = 0
        self.nacks_sent = 0
        #: sender -> message ids already delivered (any epoch).  The
        #: ratchet already rejects within-epoch replays; this catches
        #: the one duplicate it cannot — a payload re-sealed on a new
        #: chain after its ack was lost across an epoch bump.
        self._seen: dict[str, set[int]] = {}
        self.duplicates_suppressed = 0

    def on_data(
        self, envelope: Envelope, relay: str
    ) -> tuple[tuple[str, int, bytes] | None, list[Envelope]]:
        """Open one data frame: ``((sender, seq, payload) | None, control)``.

        Rejections are already counted and emitted by the channel —
        this layer only swallows the typed exception and answers
        deliveries with flow control.  A cross-epoch duplicate (same
        message id, fresh chain position) returns ``None`` for the
        application but still acks, so the sender's pending clears.
        """
        try:
            sender, seq, plaintext = self.channel.open(envelope)
        except (RatchetError, IntegrityError, CodecError, StateError):
            return None, []
        msg_id, payload = unwrap_msg(plaintext)
        delivery: tuple[str, int, bytes] | None = (sender, seq, payload)
        if msg_id is not None:
            seen = self._seen.setdefault(sender, set())
            if msg_id in seen:
                delivery = None
                self.duplicates_suppressed += 1
            else:
                seen.add(msg_id)
        cipher = self.channel.control_cipher
        state = self.channel.receiver_state(sender)
        if cipher is None or state is None:
            return delivery, []
        control = [_seal_control(
            Label.DATA_ACK, cipher, sender, self.node, self.channel.epoch,
            [state.contiguous_delivered() + 1], relay,  # +1: see on_ack
        )]
        self.acks_sent += 1
        gaps = state.outstanding()
        if gaps:
            control.append(_seal_control(
                Label.DATA_NACK, cipher, sender, self.node, self.channel.epoch,
                gaps, relay,
            ))
            self.nacks_sent += 1
        return delivery, control


__all__ = [
    "ReliableReceiver",
    "ReliableSender",
    "decode_control_routing",
    "unwrap_msg",
    "wrap_msg",
]
