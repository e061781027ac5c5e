"""Tests for admin payload encoding."""

import pytest

from repro.crypto.keys import GroupKey
from repro.enclaves.itgm.admin import (
    BatchPayload,
    CertifiedPayload,
    MemberJoinedPayload,
    MemberLeftPayload,
    MembershipPayload,
    NewGroupKeyPayload,
    TextPayload,
    decode_payload,
)
from repro.exceptions import CodecError
from repro.wire.codec import encode_fields


PAYLOADS = [
    NewGroupKeyPayload(key=GroupKey(b"\x11" * 32), epoch=7),
    MemberJoinedPayload("alice"),
    MemberLeftPayload("bob"),
    MembershipPayload(("alice", "bob", "carol")),
    MembershipPayload(()),
    TextPayload("hello"),
    TextPayload(""),
    BatchPayload((MemberLeftPayload("bob"),
                  NewGroupKeyPayload(GroupKey(b"\x22" * 32), 8, True))),
    BatchPayload((TextPayload("a"), TextPayload("a"), TextPayload(""))),
    BatchPayload((CertifiedPayload(MemberJoinedPayload("dan"), b"cert"),
                  TextPayload("bare"))),
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
def test_roundtrip(payload):
    assert decode_payload(payload.encode()) == payload


def test_epoch_preserved():
    payload = NewGroupKeyPayload(key=GroupKey(bytes(32)), epoch=2**40)
    assert decode_payload(payload.encode()).epoch == 2**40


def test_unknown_tag_rejected():
    with pytest.raises(CodecError):
        decode_payload(encode_fields([bytes([0x7F]), b"x"]))


def test_missing_tag_rejected():
    with pytest.raises(CodecError):
        decode_payload(encode_fields([]))


def test_multibyte_tag_rejected():
    with pytest.raises(CodecError):
        decode_payload(encode_fields([b"\x01\x01", b"x"]))


def test_garbage_rejected():
    with pytest.raises(CodecError):
        decode_payload(b"\xff" * 10)


def test_new_key_wrong_material_length_rejected():
    with pytest.raises(CodecError):
        decode_payload(
            encode_fields([bytes([0x01]), bytes(16), (0).to_bytes(8, "big")])
        )


def test_new_key_wrong_field_count_rejected():
    with pytest.raises(CodecError):
        decode_payload(encode_fields([bytes([0x01]), bytes(32)]))


def test_joined_extra_field_rejected():
    with pytest.raises(CodecError):
        decode_payload(encode_fields([bytes([0x02]), b"alice", b"extra"]))


def test_encodings_distinct():
    # Joined vs Left with the same user must encode differently.
    assert MemberJoinedPayload("x").encode() != MemberLeftPayload("x").encode()


def test_payloads_hashable_and_frozen():
    payload = MemberJoinedPayload("alice")
    assert hash(payload) == hash(MemberJoinedPayload("alice"))
    with pytest.raises(AttributeError):
        payload.user_id = "mallory"  # type: ignore[misc]


class TestBatchPayload:
    """One X, several payloads: exactly one wire form per sequence."""

    ITEMS = (MemberJoinedPayload("alice"), TextPayload("t"))

    def _batch(self, *encoded_items):
        return encode_fields([bytes([0x07]), *encoded_items])

    def test_items_keep_their_order(self):
        batch = BatchPayload(self.ITEMS)
        assert decode_payload(batch.encode()).items == self.ITEMS
        assert batch.encode() != BatchPayload(self.ITEMS[::-1]).encode()

    def test_item_boundaries_are_not_ambiguous(self):
        # Same concatenated bytes, different split: different encodings.
        assert BatchPayload((TextPayload("ab"), TextPayload("c"))).encode() \
            != BatchPayload((TextPayload("a"), TextPayload("bc"))).encode()

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_items_rejected(self, count):
        with pytest.raises(CodecError, match="at least two"):
            decode_payload(
                self._batch(*[TextPayload("x").encode()] * count))

    def test_nested_batch_rejected(self):
        inner = BatchPayload(self.ITEMS).encode()
        with pytest.raises(CodecError, match="nested BatchPayload"):
            decode_payload(self._batch(TextPayload("x").encode(), inner))

    def test_batch_inside_certificate_rejected(self):
        # A certificate certifies one concrete mutation.
        wrapped = encode_fields(
            [bytes([0x06]), BatchPayload(self.ITEMS).encode(), b"cert"])
        with pytest.raises(CodecError, match="nested BatchPayload"):
            decode_payload(wrapped)

    @pytest.mark.parametrize("wrap", [
        lambda x: encode_fields(
            [bytes([0x07]), TextPayload("t").encode(), x]),
        lambda x: encode_fields([bytes([0x06]), x, b"cert"]),
    ], ids=["batch", "certified"])
    def test_nesting_is_refused_on_the_tag_not_after_recursing(self, wrap):
        x = TextPayload("t").encode()
        for _ in range(5000):  # far past the interpreter's stack
            x = wrap(x)
        with pytest.raises(CodecError, match="nested"):
            decode_payload(x)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError):
            decode_payload(BatchPayload(self.ITEMS).encode() + b"\x00")

    def test_trailing_bytes_inside_an_item_rejected(self):
        with pytest.raises(CodecError):
            decode_payload(self._batch(
                TextPayload("x").encode(), TextPayload("y").encode() + b"z"))

    def test_unknown_inner_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown admin payload tag"):
            decode_payload(self._batch(
                TextPayload("x").encode(),
                encode_fields([bytes([0x7F]), b"x"])))

    def test_malformed_inner_item_rejected(self):
        with pytest.raises(CodecError):
            decode_payload(self._batch(
                TextPayload("x").encode(),
                encode_fields([bytes([0x02]), b"alice", b"extra"])))
