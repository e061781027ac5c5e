"""The epoch-bound ratcheted data channel (and its weak baseline).

:class:`DataChannel` is the tentpole: it owns one
:class:`~repro.dataplane.ratchet.SenderState` for the local node and
one :class:`~repro.dataplane.ratchet.ReceiverState` per remote sender,
all seeded from the **current group-key epoch**.  :meth:`DataChannel.rebind`
is called on every membership rekey — new epoch, new chains — which is
precisely what makes rekey-on-leave a *data-plane* guarantee: the group
key a leaver departs with never becomes the post-leave group key, so
the chains it could derive (and any ``SenderState``/``ReceiverState``
it captured) open nothing sealed after the leave commits.

:class:`GroupKeyChannel` is the deliberate baseline the data-plane
attacks run against: the same wire format, but every frame sealed
directly under the bare group key with no per-message ratchet and no
replay accounting — the pre-PR state of ``APP_DATA``, given a channel
API so the attack matrix can compare the two stacks frame for frame.

Wire format (``DATA_MSG`` body)::

    fields[ sender | epoch (8B BE) | seq (8B BE) | SealedBox ]

The sealed box's associated data binds label, sender, epoch, and seq,
so a frame cannot be replayed under a different chain position or a
different epoch even if the key were somehow right.  The CTR nonce is
the sequence number itself — each message key seals exactly one frame,
making deterministic nonces safe and the whole frame reproducible.

What a bind costs: nothing.  :meth:`DataChannel.rebind` only records the
new group key and epoch; the local chain is seeded by the first
:meth:`~DataChannel.seal`, a remote sender's by its first frame, and the
group-key subkeys of :attr:`~DataChannel.control_cipher` (flow control,
one cipher per bound epoch) by the first ACK — a member that sits
through three rekeys without traffic derives no key at all.  Message
keys come off the chain as the ``(enc, mac)`` pair and go straight to
``provider.seal``/``open`` on the one-shot path: no
:class:`~repro.crypto.aead.AuthenticatedCipher`, no per-message KDF, and
no cache that outlives the frame.
"""

from __future__ import annotations

import struct

from repro.crypto.aead import (
    AuthenticatedCipher, SealedBox, pack_box, unpack_box,
)
from repro.crypto.keys import GroupKey
from repro.crypto.mac import hmac_sha256
from repro.crypto.provider import get_provider
from repro.dataplane.ratchet import (
    DEFAULT_SKIP_WINDOW,
    ReceiverState,
    SenderState,
    seed_chain,
)
from repro.exceptions import (
    CodecError,
    EpochMismatchError,
    IntegrityError,
    RatchetReplayError,
    SkipWindowExceeded,
    StateError,
)
from repro.telemetry.events import (
    DataDelivered,
    DataShed,
    EventBus,
    RatchetSkipStored,
    RatchetWindowExceeded,
    frame_id,
    resolve_bus,
)
from repro.wire.codec import (
    COUNT_LEN, MAX_FIELD_LEN, decode_fields, decode_str, encode_after,
    field_head, fixed_layout,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope

_SEQ_LEN = 8
_EPOCH_SEQ = struct.Struct(">IQIQ")  # len=8 | epoch | len=8 | seq
_BODY_TAIL = struct.Struct(">IQIQI")  # the same, then len box


def data_ad(sender: str, epoch: int, seq: int) -> bytes:
    """Associated data binding one data frame to its chain position."""
    return (field_head(4, b"repro-data", sender)
            + _EPOCH_SEQ.pack(_SEQ_LEN, epoch, _SEQ_LEN, seq))


def encode_data_body(sender: str, epoch: int, seq: int, box: bytes) -> bytes:
    return encode_after(
        field_head(4, sender) + _EPOCH_SEQ.pack(_SEQ_LEN, epoch, _SEQ_LEN, seq),
        box)


def _decode_data_body(body: bytes) -> tuple[str, int, int, bytes]:
    sender_b, epoch_b, seq_b, box = decode_fields(body, expect=4)
    if len(epoch_b) != _SEQ_LEN or len(seq_b) != _SEQ_LEN:
        raise CodecError("epoch/seq must be 8 bytes")
    return (
        decode_str(sender_b),
        int.from_bytes(epoch_b, "big"),
        int.from_bytes(seq_b, "big"),
        box,
    )


@fixed_layout(_decode_data_body)
def decode_data_body(body: bytes) -> tuple[str, int, int, bytes] | None:
    """Parse a DATA_MSG body; raises :class:`CodecError` if malformed."""
    count, sender_end = COUNT_LEN.unpack_from(body)
    sender_end += 8
    epoch_len, epoch, seq_len, seq, box_len = _BODY_TAIL.unpack_from(
        body, sender_end)
    if (count == 4 and epoch_len == seq_len == _SEQ_LEN and len(body)
            == sender_end + _BODY_TAIL.size + box_len <= MAX_FIELD_LEN):
        return (body[8:sender_end].decode("utf-8"), epoch, seq,
                body[sender_end + _BODY_TAIL.size:])
    return None


class DataChannel:
    """Per-sender ratchet chains bound to the current group epoch."""

    def __init__(
        self,
        node: str,
        *,
        window: int = DEFAULT_SKIP_WINDOW,
        telemetry: EventBus | None = None,
    ) -> None:
        self.node = node
        self.window = window
        self._telemetry = resolve_bus(telemetry)
        self._group_key: GroupKey | None = None
        self._epoch = -1
        self._sender: SenderState | None = None
        self._receivers: dict[str, ReceiverState] = {}
        #: The bound epoch's group-key cipher (None while unbound).  The
        #: reliability layer tags flow control with its MAC subkey; data
        #: frames never use it.
        self.control_cipher: AuthenticatedCipher | None = None
        #: Frames this channel delivered / shed (cheap introspection
        #: for soaks and attacks without a telemetry subscription).
        self.delivered = 0
        self.shed = 0

    @property
    def epoch(self) -> int:
        """Group-key epoch the chains are currently seeded from."""
        return self._epoch

    @property
    def bound(self) -> bool:
        return self._group_key is not None

    def rebind(self, group_key: GroupKey, epoch: int) -> None:
        """Bind every chain to a new group-key epoch.

        Called on each installed rekey.  All previous sender and
        receiver state — including banked skip keys — is discarded:
        in-flight frames from the old epoch are the reliability layer's
        problem (it re-seals them), not a hole in forward secrecy.
        Nothing is derived here; each chain is seeded when it is first
        used (see the module docstring).
        """
        if epoch == self._epoch:
            return
        self._group_key = group_key
        self._epoch = epoch
        self._sender = None
        self._receivers = {}
        self.control_cipher = AuthenticatedCipher(group_key)

    def _receiver_for(self, sender: str) -> ReceiverState:
        state = self._receivers.get(sender)
        if state is None:
            state = ReceiverState(
                seed_chain(self._group_key, self._epoch, sender),
                window=self.window,
            )
            self._receivers[sender] = state
        return state

    def seal(self, payload: bytes, recipient: str) -> tuple[int, Envelope]:
        """Seal one frame on the local chain; returns ``(seq, envelope)``.

        ``recipient`` is the relay point (the leader / shard address);
        confidentiality does not depend on it — the relay never holds a
        message key.
        """
        if self._group_key is None:
            raise StateError("data channel not bound to a group epoch")
        if self._sender is None:
            self._sender = SenderState(
                seed_chain(self._group_key, self._epoch, self.node)
            )
        seq, (enc_key, mac_key) = self._sender.next_key()
        nonce = seq.to_bytes(_SEQ_LEN, "big")
        ciphertext, tag = get_provider().seal(
            enc_key, mac_key, nonce, payload,
            data_ad(self.node, self._epoch, seq),
        )
        body = encode_data_body(self.node, self._epoch, seq,
                                pack_box(nonce, ciphertext, tag))
        return seq, Envelope(Label.DATA_MSG, self.node, recipient, body)

    def open(self, envelope: Envelope) -> tuple[str, int, bytes]:
        """Open one DATA_MSG frame: ``(sender, seq, plaintext)``.

        Raises the typed rejection (and emits the matching ``DataShed``
        telemetry) without touching chain state on any failure path —
        only a MAC-verified frame commits the ratchet forward.
        """
        if envelope.label is not Label.DATA_MSG:
            raise StateError(f"not a data frame: {envelope.label.name}")
        bus = self._telemetry
        fid = frame_id(envelope) if bus else ""
        try:
            sender, epoch, seq, box_b = decode_data_body(envelope.body)
        except CodecError:
            self.shed += 1
            if bus:
                bus.emit(DataShed(self.node, envelope.sender, -1, -1,
                                  "integrity", fid))
            raise
        if self._group_key is None or epoch != self._epoch:
            self.shed += 1
            if bus:
                bus.emit(DataShed(self.node, sender, epoch, seq, "epoch", fid))
            raise EpochMismatchError(
                f"frame epoch {epoch}, channel epoch {self._epoch}"
            )
        receiver = self._receiver_for(sender)
        try:
            pending = receiver.lookup(seq)
        except RatchetReplayError:
            self.shed += 1
            if bus:
                bus.emit(DataShed(self.node, sender, epoch, seq, "replay", fid))
            raise
        except SkipWindowExceeded:
            self.shed += 1
            if bus:
                bus.emit(RatchetWindowExceeded(
                    self.node, sender, seq, receiver.window, fid))
                bus.emit(DataShed(self.node, sender, epoch, seq, "window", fid))
            raise
        try:
            plaintext = get_provider().open(
                *pending.key, *unpack_box(box_b), data_ad(sender, epoch, seq),
            )
        except (IntegrityError, CodecError):
            self.shed += 1
            if bus:
                bus.emit(DataShed(self.node, sender, epoch, seq,
                                  "integrity", fid))
            raise
        banked = receiver.commit(pending)
        self.delivered += 1
        if bus:
            if banked:
                bus.emit(RatchetSkipStored(self.node, sender, seq,
                                           receiver.stored))
            bus.emit(DataDelivered(self.node, sender, epoch, seq, fid))
        return sender, seq, plaintext

    # -- reliability hooks -----------------------------------------------------

    def receiver_state(self, sender: str) -> ReceiverState | None:
        """The receive chain for one sender (None before first frame)."""
        return self._receivers.get(sender)

    def skip_stats(self) -> dict:
        """Aggregate skip-window counters across all receive chains."""
        hits = sum(r.skip_hits for r in self._receivers.values())
        banked = sum(r.skips_banked for r in self._receivers.values())
        evicted = sum(r.skips_evicted for r in self._receivers.values())
        return {"skip_hits": hits, "skips_banked": banked,
                "skips_evicted": evicted}


class GroupKeyChannel:
    """Baseline channel: bare group-key sealing, no ratchet, no replay
    accounting.

    This is what ``APP_DATA`` already does, wearing the data-plane wire
    format so :mod:`repro.attacks.past_member_data` and
    :mod:`repro.attacks.data_replay` can demonstrate the difference on
    identical traffic.  Both of its weaknesses are intentional:

    * a member who left with the group key reads everything sealed
      under that key (no per-message forward secrecy, and with a
      manual/cadence rekey policy the key survives the leave), and
    * the same frame delivered twice is *accepted* twice.

    The CTR nonce is derived deterministically from (sender, epoch,
    seq) so baseline runs stay byte-reproducible per seed.
    """

    def __init__(self, node: str, *, telemetry: EventBus | None = None) -> None:
        self.node = node
        self._telemetry = resolve_bus(telemetry)
        self._cipher: AuthenticatedCipher | None = None
        self._epoch = -1
        self._next_seq = 0
        self.delivered = 0
        self.shed = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def control_cipher(self) -> AuthenticatedCipher | None:
        """Flow control shares the one group-key cipher data uses."""
        return self._cipher

    @property
    def bound(self) -> bool:
        return self._cipher is not None

    def rebind(self, group_key: GroupKey, epoch: int) -> None:
        if epoch == self._epoch:
            return
        self._cipher = AuthenticatedCipher(group_key)
        self._epoch = epoch

    def seal(self, payload: bytes, recipient: str) -> tuple[int, Envelope]:
        if self._cipher is None:
            raise StateError("baseline channel not bound to a group epoch")
        seq = self._next_seq
        self._next_seq += 1
        nonce = hmac_sha256(
            b"repro-data-baseline-nonce",
            data_ad(self.node, self._epoch, seq),
        )[:8]
        box = self._cipher.seal_with_nonce(
            nonce, payload, data_ad(self.node, self._epoch, seq)
        )
        body = encode_data_body(self.node, self._epoch, seq, box.to_bytes())
        return seq, Envelope(Label.DATA_MSG, self.node, recipient, body)

    def open(self, envelope: Envelope) -> tuple[str, int, bytes]:
        if envelope.label is not Label.DATA_MSG:
            raise StateError(f"not a data frame: {envelope.label.name}")
        bus = self._telemetry
        fid = frame_id(envelope) if bus else ""
        sender, epoch, seq, box_b = decode_data_body(envelope.body)
        if self._cipher is None:
            raise StateError("baseline channel not bound to a group epoch")
        try:
            plaintext = self._cipher.open(
                SealedBox.from_bytes(box_b), data_ad(sender, epoch, seq)
            )
        except (IntegrityError, CodecError):
            self.shed += 1
            if bus:
                bus.emit(DataShed(self.node, sender, epoch, seq,
                                  "integrity", fid))
            raise
        # No replay check, no window, no ratchet: the baseline accepts
        # any frame the current group key verifies.
        self.delivered += 1
        if bus:
            bus.emit(DataDelivered(self.node, sender, epoch, seq, fid))
        return sender, seq, plaintext

    def receiver_state(self, sender: str) -> None:
        """No receive chains here, so nothing to acknowledge from."""
        return None


__all__ = [
    "DataChannel",
    "GroupKeyChannel",
    "data_ad",
    "decode_data_body",
    "encode_data_body",
]
