"""Group-management payloads: the ``X`` field of AdminMsg.

The paper (§3.2): "The field X is the actual group-management message.
For example, X may specify a new group key and initialization vector, or
indicate that a member has joined or left the session."

Each payload type has an injective binary encoding; :func:`decode_payload`
is the total inverse.  Payload bytes travel *inside* the AdminMsg sealed
box, so they inherit its authenticity, ordering, and freshness — none of
the payload types needs its own nonce or signature.

Nothing in §3.2 obliges X to be a single notification, and
:class:`BatchPayload` is the X that carries several: everything the
leader had queued for a member when its channel fell idle.  It exists
only on the wire — ``snd_A`` and ``rcv_A`` record its items, never the
batch — so the frame is the unit of freshness, retransmission and
replay rejection while the §5.4 lists keep one entry per notification.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.crypto.keys import KEY_LEN, GroupKey
from repro.exceptions import CodecError
from repro.wire.codec import (
    decode_fields,
    decode_str,
    decode_str_list,
    encode_fields,
    encode_str,
    encode_str_list,
    field_head,
    fixed_layout,
)

_TAG_NEW_KEY = 0x01
_TAG_JOINED = 0x02
_TAG_LEFT = 0x03
_TAG_MEMBERSHIP = 0x04
_TAG_TEXT = 0x05
_TAG_CERTIFIED = 0x06
_TAG_BATCH = 0x07


@dataclass(frozen=True)
class AdminPayload:
    """Base class for group-management payloads.  Frozen, so the encoding
    is kept from first use, outside ``==``, ``hash``, ``repr`` and
    ``dataclasses.replace`` (as ``Envelope._unwrapped`` is)."""

    _encoded: bytes | None = field(default=None, init=False, compare=False,
                                   repr=False)

    def encode(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            encoded = encode_fields(self._fields())
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    def _fields(self) -> list[bytes]:
        raise NotImplementedError


@dataclass(frozen=True)
class NewGroupKeyPayload(AdminPayload):
    """Distribute a new group key K_g' (replaces §2.2's ``new_key``).

    ``eviction`` marks rotations that cryptographically evict someone
    (a leave or expulsion): receivers must then drop their previous-
    epoch cipher immediately, closing the rekey grace window — an
    ex-member's old key must not be honored for even one more frame.
    Benign rotations (join, periodic, manual) keep the grace window so
    in-flight traffic survives the rotation.
    """

    key: GroupKey
    epoch: int
    eviction: bool = False

    def _fields(self) -> list[bytes]:
        return [bytes([_TAG_NEW_KEY]), self.key.material,
                self.epoch.to_bytes(8, "big"),
                bytes([1 if self.eviction else 0])]


@dataclass(frozen=True)
class MemberJoinedPayload(AdminPayload):
    """Announce that a user joined (authenticated replacement for the
    legacy plaintext notification)."""

    user_id: str

    def _fields(self) -> list[bytes]:
        return [bytes([_TAG_JOINED]), encode_str(self.user_id)]


@dataclass(frozen=True)
class MemberLeftPayload(AdminPayload):
    """Announce that a user left (replaces the forgeable ``mem_removed``)."""

    user_id: str

    def _fields(self) -> list[bytes]:
        return [bytes([_TAG_LEFT]), encode_str(self.user_id)]


@dataclass(frozen=True)
class MembershipPayload(AdminPayload):
    """Full membership view sent to a newly joined member."""

    members: tuple[str, ...]

    def _fields(self) -> list[bytes]:
        return [bytes([_TAG_MEMBERSHIP]), encode_str_list(list(self.members))]


@dataclass(frozen=True)
class CertifiedPayload(AdminPayload):
    """An inner payload plus a quorum certificate over its statement.

    The Byzantine-quorum extension (:mod:`repro.quorum`): the inner
    payload is an ordinary group-management message; ``certificate``
    is the encoded :class:`~repro.quorum.attestation.QuorumCertificate`
    binding it to ``f + 1`` replica attestations.  The bytes are opaque
    at this layer — the admin codec stays independent of the quorum
    package; only quorum-aware members parse and verify them.  Nesting
    is rejected at decode time: a certificate certifies a concrete
    mutation, never another certificate.
    """

    inner: AdminPayload
    certificate: bytes

    def _fields(self) -> list[bytes]:
        return [bytes([_TAG_CERTIFIED]), self.inner.encode(), self.certificate]


@dataclass(frozen=True)
class TextPayload(AdminPayload):
    """Free-form admin text (used by tests and ablation benchmarks)."""

    text: str

    def _fields(self) -> list[bytes]:
        return [bytes([_TAG_TEXT]), encode_str(self.text)]


@dataclass(frozen=True)
class BatchPayload(AdminPayload):
    """Two or more payloads travelling as the X of one AdminMsg.

    The items are accepted or rejected together (one seal, one nonce
    step, one Ack) and applied in order.  A batch never nests and never
    holds fewer than two items — a lone payload is sent bare, so every
    payload sequence has exactly one wire form.
    """

    items: tuple[AdminPayload, ...]

    def _fields(self) -> list[bytes]:
        return [bytes([_TAG_BATCH]), *(item.encode() for item in self.items)]


def as_one_payload(queued: Sequence[AdminPayload]) -> AdminPayload:
    """The X that carries ``queued`` (non-empty): a lone payload as it
    is, several as one batch."""
    return queued[0] if len(queued) == 1 else BatchPayload(tuple(queued))


def items_of(payload: AdminPayload) -> tuple[AdminPayload, ...]:
    """What an X adds to ``snd_A``/``rcv_A``: inverse of
    :func:`as_one_payload`."""
    return payload.items if isinstance(payload, BatchPayload) else (payload,)


#: Wrappers, and what each may not contain — checked on the tag, before
#: recursing, so decoding depth is bounded whatever the input nests.
_NO_NESTING = {_TAG_CERTIFIED: "CertifiedPayload", _TAG_BATCH: "BatchPayload"}


def _decode_payload(
    data: bytes, _forbidden: tuple[int, ...] = ()
) -> AdminPayload:
    fields = decode_fields(data)
    if not fields or len(fields[0]) != 1:
        raise CodecError("admin payload missing tag")
    tag = fields[0][0]
    if tag in _forbidden:
        raise CodecError(f"nested {_NO_NESTING[tag]}")
    if tag == _TAG_NEW_KEY:
        if (
            len(fields) != 4 or len(fields[1]) != KEY_LEN
            or len(fields[2]) != 8 or len(fields[3]) != 1
            or fields[3][0] not in (0, 1)
        ):
            raise CodecError("malformed NewGroupKeyPayload")
        return NewGroupKeyPayload(
            key=GroupKey(fields[1]),
            epoch=int.from_bytes(fields[2], "big"),
            eviction=bool(fields[3][0]),
        )
    if tag == _TAG_JOINED:
        if len(fields) != 2:
            raise CodecError("malformed MemberJoinedPayload")
        return MemberJoinedPayload(user_id=decode_str(fields[1]))
    if tag == _TAG_LEFT:
        if len(fields) != 2:
            raise CodecError("malformed MemberLeftPayload")
        return MemberLeftPayload(user_id=decode_str(fields[1]))
    if tag == _TAG_MEMBERSHIP:
        if len(fields) != 2:
            raise CodecError("malformed MembershipPayload")
        return MembershipPayload(members=tuple(decode_str_list(fields[1])))
    if tag == _TAG_TEXT:
        if len(fields) != 2:
            raise CodecError("malformed TextPayload")
        return TextPayload(text=decode_str(fields[1]))
    if tag == _TAG_CERTIFIED:
        if len(fields) != 3:
            raise CodecError("malformed CertifiedPayload")
        inner = decode_payload(fields[1], tuple(_NO_NESTING))
        return CertifiedPayload(inner=inner, certificate=fields[2])
    if tag == _TAG_BATCH:
        if len(fields) < 3:
            raise CodecError("BatchPayload needs at least two items")
        return BatchPayload(tuple(
            decode_payload(item, (_TAG_BATCH,)) for item in fields[1:]
        ))
    raise CodecError(f"unknown admin payload tag {tag:#x}")


#: A rekey: ``count=4 | len=1 | tag | len=32 | key | len=8 | epoch |
#: len=1 | eviction``, 62 bytes.
_NEW_KEY_HEAD = field_head(4, bytes([_TAG_NEW_KEY]), bytes(KEY_LEN))[:-KEY_LEN]
_NEW_KEY = struct.Struct(f">{len(_NEW_KEY_HEAD)}s{KEY_LEN}sIQIB")


@fixed_layout(_decode_payload)
def decode_payload(
    data: bytes, _forbidden: tuple[int, ...] = ()
) -> AdminPayload | None:
    """Decode any admin payload, raising :class:`CodecError` if malformed.
    A rekey, read directly, keeps ``data`` as its encoding: the codec is
    canonical (``tests/enclaves/itgm/test_admin.py`` checks it)."""
    if len(data) != _NEW_KEY.size:
        return None
    head, key, epoch_len, epoch, flag_len, flag = _NEW_KEY.unpack(data)
    if (head != _NEW_KEY_HEAD or epoch_len != 8 or flag_len != 1
            or flag > 1):
        return None
    payload = NewGroupKeyPayload(GroupKey(key), epoch, bool(flag))
    object.__setattr__(payload, "_encoded", data)
    return payload
