"""Tests for admin payload encoding."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from repro.wire.codec import decode_fields, encode_fields


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


# -- canonical codec: what makes a kept encoding sound -----------------------
#
# ``decode_payload`` keeps the bytes a rekey was read from as its encoding,
# and the leader's journal and fan-out reuse a payload's first encoding.
# Both are sound only because the codec is canonical: an accepted byte
# string is *the* encoding of what it decodes to, for every tag.
# ``_rebuilt`` makes the payload again from its values alone, so nothing
# kept is consulted.

keys = st.binary(min_size=32, max_size=32).map(GroupKey)
ids = st.text(max_size=8)
leaf_payloads = st.one_of(
    st.builds(NewGroupKeyPayload, keys, st.integers(0, 2**64 - 1),
              st.booleans()),
    st.builds(MemberJoinedPayload, ids),
    st.builds(MemberLeftPayload, ids),
    st.builds(MembershipPayload, st.lists(ids, max_size=4).map(tuple)),
    st.builds(TextPayload, ids),
)
single_payloads = st.one_of(
    leaf_payloads,
    st.builds(CertifiedPayload, leaf_payloads, st.binary(max_size=16)),
)
any_payloads = st.one_of(
    single_payloads,
    st.lists(single_payloads, min_size=2, max_size=4).map(
        lambda items: BatchPayload(tuple(items))),
)


def _rebuilt(payload):
    if isinstance(payload, BatchPayload):
        return BatchPayload(tuple(_rebuilt(item) for item in payload.items))
    if isinstance(payload, CertifiedPayload):
        return CertifiedPayload(_rebuilt(payload.inner), payload.certificate)
    return dataclasses.replace(payload)


def _assert_canonical(data):
    try:
        payload = decode_payload(data)
    except CodecError:
        return None
    assert payload.encode() == data
    assert _rebuilt(payload).encode() == data
    return payload


@given(any_payloads)
def test_every_encoding_decodes_to_itself(payload):
    encoded = payload.encode()
    assert encoded == _rebuilt(payload).encode()
    assert _assert_canonical(encoded) == payload


@given(any_payloads, st.data())
def test_every_accepted_byte_string_is_the_encoding_of_its_payload(
    payload, data
):
    """Near a valid encoding — one field replaced, one byte replaced, a
    field dropped or repeated — whatever ``decode_payload`` accepts
    re-encodes to exactly the bytes it read, for every tag."""
    fields = decode_fields(payload.encode())
    at = data.draw(st.integers(0, len(fields) - 1))
    variants = [
        fields[:at] + [data.draw(st.binary(max_size=40))] + fields[at + 1:],
        fields[:at] + fields[at + 1:],
        fields[:at + 1] + fields[at:],
    ]
    for variant in variants:
        _assert_canonical(encode_fields(variant))
    encoded = payload.encode()
    where = data.draw(st.integers(0, len(encoded) - 1))
    byte = data.draw(st.integers(0, 255))
    _assert_canonical(encoded[:where] + bytes([byte]) + encoded[where + 1:])


@given(st.binary(max_size=96))
def test_arbitrary_accepted_bytes_are_canonical(data):
    _assert_canonical(data)


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
def test_a_kept_encoding_is_invisible(payload):
    fresh = _rebuilt(payload)
    kept = decode_payload(payload.encode())
    kept.encode()  # a rekey kept the bytes it was read from; others now
    assert fresh._encoded is None and kept._encoded == payload.encode()
    # Equality, hash and repr do not see it...
    assert kept == fresh and hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh)
    # ...copies are whole payloads, kept bytes or not...
    for duplicate in (pickle.loads(pickle.dumps(kept)), copy.deepcopy(kept),
                      pickle.loads(pickle.dumps(fresh))):
        assert duplicate == kept
        assert duplicate.encode() == kept.encode()
    # ...and the constructor does not take it.
    with pytest.raises(ValueError):
        dataclasses.replace(kept, _encoded=b"")


def test_a_replaced_payload_starts_without_the_stale_encoding():
    received = PAYLOADS[0].encode()
    kept = decode_payload(received)
    assert kept._encoded is received  # a rekey keeps the bytes it came in
    moved = dataclasses.replace(kept, epoch=kept.epoch + 1)
    assert moved._encoded is None
    assert moved.encode() != kept.encode()
    assert decode_payload(moved.encode()) == moved
    assert dataclasses.replace(kept)._encoded is None
    with pytest.raises(TypeError):
        NewGroupKeyPayload(kept.key, kept.epoch, False, kept.encode())
