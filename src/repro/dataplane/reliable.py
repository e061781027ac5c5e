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
* a retransmit timer (the adaptive deadline of an RFC 6298
  :class:`~repro.overload.deadline.LatencyTracker`, driven by the sim
  clock) resends frames whose ACKs are overdue,
  spending a Finagle-style
  :class:`~repro.overload.deadline.RetryBudget` so a dead group drains
  into a bounded, observable give-up instead of a retry storm;
* an epoch rebind (membership changed → every chain re-seeded)
  re-seals all pending plaintexts on the *new* chain with new sequence
  numbers — the old epoch's frames are undeliverable by design.

ACKs and NACKs are authenticated under the current group key, not
encrypted.  Uplink body (``DATA_ACK`` / ``DATA_NACK``, member to relay)::

    fields[ origin | acker | payload | tag ]
    payload = epoch (8B BE) || seq (8B BE)*

``tag`` is the HMAC of the group key's MAC subkey (the channel's one
``control_cipher``, subkeys derived by the epoch's first ACK) over the
payload, with associated data binding label, origin, acker and epoch.
What the tag gives the origin: a current holder of ``K_g`` said this —
an outsider or a past member can neither forge an ACK (and make a
sender drop a frame nobody received) nor replay one across epochs or
into the other label.  An epoch and a sequence number are all an ACK
says, and both already ride in the clear in every ``DATA_MSG`` body, so
there was never anything in it to hide.

Downlink body (relay to origin): always a *bundle*, ``fields[item...]``
whose items are uplink bodies verbatim — every control frame for one
``(label, origin)`` that reached the relay in one flush, a lone ACK as a
bundle of one.  The relay reads an item's origin to route it and
nothing else; the origin verifies each item on its own, so a forged or
stale item costs only itself.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache

from repro.crypto.aead import AuthenticatedCipher
from repro.exceptions import (
    CodecError,
    IntegrityError,
    RatchetError,
    StateError,
)
from repro.overload.deadline import LatencyTracker, RetryBudget
from repro.telemetry.events import (
    EventBus,
    RetryBudgetExhausted,
    resolve_bus,
)
from repro.util.bytesops import constant_time_eq
from repro.wire.codec import (
    COUNT_LEN, MAX_FIELD_LEN, U32, decode_fields, decode_str, encode_after,
    encode_fields, encode_str, field_head, fixed_layout,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope

_SEQ_LEN = 8


@lru_cache(maxsize=4096)
def _control_ad_head(label: Label, origin: str, acker: str) -> bytes:
    # All of the associated data but its last eight bytes, the epoch:
    # fixed for a pair of members for as long as both are in the group,
    # so computed once for the pair.  Not once per epoch — epochs only go
    # up, and a memory keyed on them fills with entries nobody asks for
    # again.  The first field is one no sealed box is ever opened under:
    # a control tag and a ``SealedBox`` tag share a layout and, here, a
    # key, so the associated data is what keeps them apart.
    return encode_fields([
        b"repro-data-ctl-mac", bytes([label.value]),
        encode_str(origin), encode_str(acker), bytes(8),
    ])[:-8]


def _control_ad(label: Label, origin: str, acker: str, epoch: int) -> bytes:
    return _control_ad_head(label, origin, acker) + epoch.to_bytes(8, "big")


def _seal_control(
    label: Label,
    cipher: AuthenticatedCipher,
    origin: str,
    acker: str,
    epoch: int,
    seqs: list[int],
    relay: str,
) -> Envelope:
    """Build one authenticated ACK/NACK envelope addressed at the relay."""
    payload = b"".join(
        [epoch.to_bytes(8, "big")] + [s.to_bytes(_SEQ_LEN, "big") for s in seqs]
    )
    tag = cipher.tag(payload, _control_ad(label, origin, acker, epoch))
    body = encode_after(field_head(4, origin, acker), payload, tag)
    return Envelope(label, acker, relay, body)


def _decode_control_routing(body: bytes) -> tuple[str, str, bytes, bytes]:
    origin_b, acker_b, payload, tag = decode_fields(body, expect=4)
    return decode_str(origin_b), decode_str(acker_b), payload, tag


@fixed_layout(_decode_control_routing)
def decode_control_routing(body: bytes) -> tuple[str, str, bytes, bytes] | None:
    """Parse one uplink body: ``(origin, acker, payload, tag)``.  The
    relay routes on the origin and reads nothing else."""
    length = U32.unpack_from
    count, origin_len = COUNT_LEN.unpack_from(body)
    acker_at = 8 + origin_len
    payload_at = acker_at + 4 + length(body, acker_at)[0]
    tag_at = payload_at + 4 + length(body, payload_at)[0]
    if (count == 4 and tag_at + 4 + length(body, tag_at)[0] == len(body)
            <= MAX_FIELD_LEN):
        return (body[8:acker_at].decode("utf-8"),
                body[acker_at + 4:payload_at].decode("utf-8"),
                body[payload_at + 4:tag_at], body[tag_at + 4:])
    return None


def bundle_control(items: list[bytes]) -> bytes:
    """The downlink body carrying these uplink bodies to their origin."""
    return encode_fields(items)


def unbundle_control(body: bytes) -> list[bytes]:
    """Inverse of :func:`bundle_control` (:class:`CodecError` if
    malformed); the items are not validated here."""
    return decode_fields(body)


_MSG_MAGIC = b"repro-data-msg"
_MSG_HEAD = field_head(3, _MSG_MAGIC) + U32.pack(8)  # up to the id
_MSG_TAIL = struct.Struct(">QI")  # id | len payload


def wrap_msg(msg_id: int, payload: bytes) -> bytes:
    """Prefix a payload with its stable message id.

    The id is assigned once per ``send`` and survives epoch re-seals
    (which mint *new* sequence numbers on *new* chains), so it is the
    only handle a receiver has to notice "I already delivered this
    payload at the previous epoch, its ack just got lost".
    """
    return encode_after(_MSG_HEAD + msg_id.to_bytes(8, "big"), payload)


def unwrap_msg(plain: bytes) -> tuple[int | None, bytes]:
    """Inverse of :func:`wrap_msg`; bare payloads pass through as
    ``(None, plain)`` so unreliable senders interoperate."""
    at = len(_MSG_HEAD) + _MSG_TAIL.size
    if plain[:len(_MSG_HEAD)] == _MSG_HEAD and len(plain) >= at:
        msg_id, size = _MSG_TAIL.unpack_from(plain, len(_MSG_HEAD))
        if len(plain) == at + size and size <= MAX_FIELD_LEN:
            return msg_id, plain[at:]
    return None, plain


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
        """Fold every item of one DATA_ACK bundle into the pending set
        (a bad item is ignored; the others still count), then drop the
        frames every current peer has acked, once for the bundle."""
        if envelope.label is not Label.DATA_ACK:
            return
        acked, pending = self._acked, self._pending
        # What every peer has acked so far in this bundle: those frames
        # are as good as dropped, so no later item's RTT sample reads
        # them -- the samples an item-by-item drop would have taken.
        floor, peers = -1, None
        for acker, seqs in self._open(envelope):
            # ACK values ride +1 on the wire so "nothing contiguous yet"
            # (cumulative -1) stays an unsigned field.
            cum = seqs[0] - 1 if seqs else -1
            if cum <= acked.get(acker, -1):
                continue
            acked[acker] = cum
            # RTT sample: age of the newest frame this ack covers.
            newest = max(
                (sent for seq, (_, _, _, sent) in pending.items()
                 if floor < seq <= cum),
                default=None,
            )
            if newest is not None:
                self.tracker.observe(max(0.0, now - newest))
            if peers is None:
                peers = [p for p in self._peers() if p != self.node]
            if peers:
                floor = min(acked.get(p, -1) for p in peers)
        if floor >= 0:
            self._collect(floor)

    def on_nack(self, envelope: Envelope) -> list[Envelope]:
        """Retransmit the cached frames a DATA_NACK bundle names."""
        if envelope.label is not Label.DATA_NACK:
            return []
        out = []
        for _acker, seqs in self._open(envelope):
            for seq in seqs:
                entry = self._pending.get(seq)
                if entry is None:
                    continue
                if not self.budget.record_retry():
                    self._starve()
                    return out
                out.append(entry[2])
                self.retransmits += 1
        return out

    def tick(self, now: float) -> list[Envelope]:
        """Retransmit frames whose acknowledgements are overdue."""
        self._sync_epoch()
        overdue = self.tracker.deadline()
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

    def _collect(self, floor: int) -> None:
        """Drop the frames at or below ``floor``, the lowest cumulative
        ack among the current peers."""
        done = [seq for seq in self._pending if seq <= floor]
        for seq in done:
            del self._pending[seq]
            self.fully_acked += 1
        if done:
            self._budget_starved = False

    def _open(self, envelope: Envelope) -> Iterator[tuple[str, list[int]]]:
        """``(acker, seqs)`` for each item of a downlink bundle that is
        addressed to this node's chain and verifies under the current
        epoch's group key; every other item is skipped."""
        cipher = self.channel.control_cipher
        if cipher is None:
            return
        try:
            items = unbundle_control(envelope.body)
        except CodecError:
            return
        label, epoch = envelope.label, self.channel.epoch
        epoch_b = epoch.to_bytes(8, "big")
        for item in items:
            try:
                origin, acker, payload, tag = decode_control_routing(item)
            except CodecError:
                continue
            if origin != self.node:
                continue
            expected = cipher.tag(
                payload, _control_ad(label, origin, acker, epoch))
            if not constant_time_eq(expected, tag):
                continue
            if len(payload) % _SEQ_LEN or payload[:8] != epoch_b:
                continue
            yield acker, [
                int.from_bytes(payload[i:i + _SEQ_LEN], "big")
                for i in range(8, len(payload), _SEQ_LEN)
            ]


class ReliableReceiver:
    """Receiver-side reliability: deliver, then ack and report gaps."""

    def __init__(self, node: str, channel) -> None:
        self.node = node
        self.channel = channel
        self.acks_sent = 0
        self.nacks_sent = 0
        #: sender -> message ids already delivered (any epoch) since it
        #: last joined.  The ratchet already rejects within-epoch
        #: replays; this catches the one duplicate it cannot — a payload
        #: re-sealed on a new chain after its ack was lost across an
        #: epoch bump.
        self._seen: dict[str, set[int]] = {}
        self.duplicates_suppressed = 0

    def forget(self, senders: Iterable[str]) -> None:
        """These senders (re)joined: what they send from here on is new."""
        for sender in senders:
            self._seen.pop(sender, None)

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
    "bundle_control",
    "decode_control_routing",
    "unbundle_control",
    "unwrap_msg",
    "wrap_msg",
]
