"""The message envelope.

The formal model (paper §4) says: "Each message consists of a label, an
apparent sender, an intended recipient, and a content."  The sender and
recipient fields are *claims* — the network is insecure, so nothing about
an envelope is trustworthy until the cryptographic content inside has
been verified.  Endpoints route on the envelope but authenticate only on
the sealed body.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.exceptions import CodecError
from repro.wire.codec import (
    COUNT_LEN,
    MAX_FIELD_LEN,
    decode_fields,
    decode_str,
    encode_after,
    field_head,
    fixed_layout,
)
from repro.wire.labels import Label

# An envelope is ``encode_fields`` of exactly four fields, the first one
# byte long: ``count=4 | len=1 | label | len sender | len recipient |
# len body``.  Everything up to the label depends on the label alone.
_HEAD = struct.Struct(">IIBI")  # count, label length, label, sender length
_SENDER_AT = _HEAD.size
_U32 = struct.Struct(">I")
_HEAD_OF = {label: struct.pack(">IIB", 4, 1, label.value) for label in Label}
_LABEL_OF = {label.value: label for label in Label}


@dataclass(frozen=True, slots=True)
class Envelope:
    """One wire message: (label, apparent sender, intended recipient, body)."""

    label: Label
    sender: str
    recipient: str
    body: bytes
    #: What :func:`unwrap_group` read out of this frame, kept so every
    #: layer of one hop shares one parse.  Not a constructor argument,
    #: not compared, hashed or printed, and not copied by
    #: ``dataclasses.replace``: a frame with another body starts without.
    _unwrapped: "tuple[str, Envelope] | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    def to_bytes(self) -> bytes:
        """Serialize to the canonical wire form, the bytes of
        ``encode_fields([label byte, sender, recipient, body])``."""
        sender = self.sender.encode("utf-8")
        recipient = self.recipient.encode("utf-8")
        body = self.body
        if not isinstance(body, (bytes, bytearray)):
            raise CodecError(f"field must be bytes, got {type(body).__name__}")
        if max(len(sender), len(recipient), len(body)) > MAX_FIELD_LEN:
            raise CodecError("field too long")
        pack = _U32.pack
        return b"".join((
            _HEAD_OF[self.label], pack(len(sender)), sender,
            pack(len(recipient)), recipient, pack(len(body)), body,
        ))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        """Parse a wire message, raising :class:`CodecError` if malformed.

        The fixed shape is read directly.  Input that does not fit it is
        handed to the generic decoder, the reference for what is
        accepted, which names what is wrong with it.
        """
        try:
            count, label_len, label, sender_len = _HEAD.unpack_from(data)
            sender_end = _SENDER_AT + sender_len
            (recipient_len,) = _U32.unpack_from(data, sender_end)
            recipient_end = sender_end + 4 + recipient_len
            (body_len,) = _U32.unpack_from(data, recipient_end)
            body_at = recipient_end + 4
            if (count == 4 and label_len == 1
                    and body_at + body_len == len(data)
                    and max(sender_len, recipient_len, body_len)
                    <= MAX_FIELD_LEN):
                return cls(
                    _LABEL_OF[label],
                    data[_SENDER_AT:sender_end].decode("utf-8"),
                    data[sender_end + 4:recipient_end].decode("utf-8"),
                    data[body_at:],
                )
        except (struct.error, KeyError, UnicodeDecodeError):
            pass
        label_b, sender_b, recipient_b, body = decode_fields(data, expect=4)
        if len(label_b) != 1:
            raise CodecError("label must be one byte")
        try:
            label = Label(label_b[0])
        except ValueError as exc:
            raise CodecError(f"unknown label {label_b[0]:#x}") from exc
        return cls(
            label=label,
            sender=decode_str(sender_b),
            recipient=decode_str(recipient_b),
            body=body,
        )

    def __repr__(self) -> str:
        return (
            f"Envelope({self.label.name}, {self.sender!r}->{self.recipient!r}, "
            f"{len(self.body)}B)"
        )


def wrap_group(group_id: str, inner: Envelope, shard: str) -> Envelope:
    """Scope ``inner`` to one group and address it at a shard endpoint.

    The wrapper carries the group id in the clear — it is routing
    metadata, exactly like the envelope's sender/recipient claims, and
    just as untrustworthy: the shard only uses it to pick which hosted
    leader sees the inner envelope, and that leader still authenticates
    the sealed content.  A frame rewrapped for a different group
    therefore lands on a leader whose keys reject it.
    """
    return Envelope(
        label=Label.GROUP_WRAP,
        sender=inner.sender,
        recipient=shard,
        body=encode_after(field_head(2, group_id), inner.to_bytes()),
    )


def _parse_wrapper_body(body: bytes) -> tuple[str, Envelope]:
    group_b, inner_b = decode_fields(body, expect=2)
    return decode_str(group_b), Envelope.from_bytes(inner_b)


@fixed_layout(_parse_wrapper_body)
def parse_wrapper_body(body: bytes) -> tuple[str, Envelope] | None:
    """``(group id, inner envelope)`` from a GROUP_WRAP body."""
    count, group_len = COUNT_LEN.unpack_from(body)
    inner_at = 8 + group_len
    (inner_len,) = _U32.unpack_from(body, inner_at)
    if count == 2 and inner_at + 4 + inner_len == len(body) <= MAX_FIELD_LEN:
        group_id = body[8:inner_at].decode("utf-8")
        return group_id, Envelope.from_bytes(body[inner_at + 4:])
    return None


def unwrap_group(envelope: Envelope) -> tuple[str, Envelope]:
    """Extract ``(group id, inner envelope)`` from a GROUP_WRAP frame.

    Raises :class:`CodecError` on a wrong label or malformed body —
    shards reject such frames loudly rather than guessing a group.
    A successful parse is kept on the wrapper, so admission and demux
    read one frame once; a failed one leaves nothing behind.
    """
    parsed = envelope._unwrapped
    if parsed is None:
        if envelope.label is not Label.GROUP_WRAP:
            raise CodecError(
                f"expected GROUP_WRAP, got {envelope.label.name}"
            )
        parsed = parse_wrapper_body(envelope.body)
        object.__setattr__(envelope, "_unwrapped", parsed)
    return parsed
