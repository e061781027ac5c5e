"""Property-based tests for the wire codec: total, injective, inverse."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import CodecError
from repro.wire.codec import (
    MAX_FIELD_LEN,
    decode_fields,
    decode_str,
    encode_fields,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope

field_lists = st.lists(st.binary(max_size=128), max_size=8)


@given(field_lists)
def test_decode_inverts_encode(fields):
    assert decode_fields(encode_fields(fields)) == fields


@given(field_lists, field_lists)
def test_injective(a, b):
    if a != b:
        assert encode_fields(a) != encode_fields(b)


@given(st.binary(max_size=256))
def test_decode_is_total(data):
    """Arbitrary bytes either decode or raise CodecError — never crash
    with anything else, never hang."""
    try:
        decode_fields(data)
    except CodecError:
        pass


@given(field_lists, st.binary(min_size=1, max_size=16))
def test_trailing_garbage_always_rejected(fields, garbage):
    with pytest.raises(CodecError):
        decode_fields(encode_fields(fields) + garbage)


# -- differential: the one-pass codec against the codec it replaced ---------
#
# Frozen copy of encode_fields/decode_fields as they stood before the
# one-pass rewrite (a helper call per field).  Every byte on the wire and
# every journal record goes through this format, so the rewrite is held
# to the old implementation's exact output and exact error messages.


def encode_u32(value):
    if not 0 <= value < (1 << 32):
        raise CodecError(f"u32 out of range: {value}")
    return struct.pack(">I", value)


def decode_u32(data):
    if len(data) != 4:
        raise CodecError("u32 must be exactly 4 bytes")
    return struct.unpack(">I", data)[0]


def _frozen_encode_fields(fields):
    parts = []
    count = 0
    for f in fields:
        if not isinstance(f, (bytes, bytearray)):
            raise CodecError(f"field must be bytes, got {type(f).__name__}")
        if len(f) > MAX_FIELD_LEN:
            raise CodecError("field too long")
        parts.append(encode_u32(len(f)) + bytes(f))
        count += 1
    return encode_u32(count) + b"".join(parts)


def _frozen_decode_fields(data, expect=None):
    if len(data) < 4:
        raise CodecError("truncated field list (missing count)")
    count = decode_u32(data[:4])
    offset = 4
    fields = []
    for _ in range(count):
        if offset + 4 > len(data):
            raise CodecError("truncated field list (missing length)")
        length = decode_u32(data[offset:offset + 4])
        offset += 4
        if length > MAX_FIELD_LEN:
            raise CodecError("field too long")
        if offset + length > len(data):
            raise CodecError("truncated field body")
        fields.append(data[offset:offset + length])
        offset += length
    if offset != len(data):
        raise CodecError("trailing bytes after field list")
    if expect is not None and count != expect:
        raise CodecError(f"expected {expect} fields, got {count}")
    return fields


def _outcome(fn, *args):
    """A call's result, or the message of the CodecError it raised."""
    try:
        return fn(*args)
    except CodecError as exc:
        return ("CodecError", str(exc))


def _same_decode(data, expect=None):
    got = _outcome(decode_fields, data, expect)
    assert got == _outcome(_frozen_decode_fields, data, expect)
    return got


mixed_fields = st.lists(
    st.one_of(st.binary(max_size=128),
              st.binary(max_size=128).map(bytearray)),
    max_size=8,
)


@given(mixed_fields)
def test_encode_matches_frozen_codec(fields):
    encoded = encode_fields(fields)
    assert type(encoded) is bytes
    assert encoded == _frozen_encode_fields(fields)
    # A generator is consumed once, as before.
    assert encode_fields(f for f in fields) == encoded


def test_encode_edge_cases_match_frozen_codec():
    largest = bytes(MAX_FIELD_LEN)
    for fields in ([], [b""], [largest], [b"x", bytearray(b"yz"), b""]):
        assert encode_fields(fields) == _frozen_encode_fields(fields)
    assert _same_decode(encode_fields([largest])) == [largest]
    for bad in ([largest + b"!"], ["text"], [b"ok", None]):
        refused = _outcome(encode_fields, bad)
        assert refused[0] == "CodecError"
        assert refused == _outcome(_frozen_encode_fields, bad)


@given(field_lists, st.data())
def test_malformed_input_matches_frozen_codec(fields, data):
    """Every truncation, a trailing byte, an inflated count and an
    inflated length of a valid encoding: the same fields or the same
    CodecError message from both codecs, with and without ``expect``."""
    encoded = encode_fields(fields)
    expect = data.draw(st.sampled_from([None, len(fields), len(fields) + 1]))
    _same_decode(encoded, expect)
    for cut in range(len(encoded)):
        _same_decode(encoded[:cut], expect)
    _same_decode(encoded + b"\x00", expect)
    bump = data.draw(st.sampled_from([1, 2, 1 << 16, MAX_FIELD_LEN,
                                      (1 << 32) - 1 - len(fields)]))
    _same_decode(encode_u32(len(fields) + bump) + encoded[4:], expect)
    if fields:
        offset = 4  # the first field's length prefix
        grown = min(len(fields[0]) + bump, (1 << 32) - 1)
        _same_decode(
            encoded[:offset] + encode_u32(grown) + encoded[offset + 4:],
            expect,
        )


envelope_strategy = st.builds(
    Envelope,
    label=st.sampled_from(list(Label)),
    sender=st.text(max_size=32),
    recipient=st.text(max_size=32),
    body=st.binary(max_size=256),
)


@given(envelope_strategy)
def test_envelope_roundtrip(envelope):
    assert Envelope.from_bytes(envelope.to_bytes()) == envelope


@given(st.binary(max_size=128))
def test_envelope_parse_total(data):
    try:
        Envelope.from_bytes(data)
    except CodecError:
        pass


# -- differential: the envelope's direct codec against the generic one -------
#
# ``Envelope.to_bytes``/``from_bytes`` pack and parse their fixed
# four-field shape themselves.  The reference is what they replaced: the
# generic codec with ``expect=4`` plus the label and UTF-8 checks, held
# to the same bytes, the same accepted set and the same error text.


def _reference_to_bytes(envelope):
    return encode_fields([
        bytes([envelope.label.value]), envelope.sender.encode("utf-8"),
        envelope.recipient.encode("utf-8"), envelope.body,
    ])


def _reference_from_bytes(data):
    label_b, sender_b, recipient_b, body = decode_fields(data, expect=4)
    if len(label_b) != 1:
        raise CodecError("label must be one byte")
    try:
        label = Label(label_b[0])
    except ValueError:
        raise CodecError(f"unknown label {label_b[0]:#x}")
    return Envelope(label, decode_str(sender_b), decode_str(recipient_b), body)


def _same_parse(data):
    got = _outcome(Envelope.from_bytes, data)
    assert got == _outcome(_reference_from_bytes, data)
    return got


@given(st.binary(max_size=128))
def test_envelope_parse_matches_generic_codec_on_arbitrary_bytes(data):
    _same_parse(data)
    _same_parse(bytearray(data))


#: Field lists shaped like an envelope or one step away from it: the
#: label field any length from 0 to 2 and any byte, ids that may not be
#: UTF-8, three to five fields.
near_envelopes = st.lists(st.binary(max_size=24), min_size=2, max_size=4).flatmap(
    lambda rest: st.binary(max_size=2).map(lambda label: [label] + rest)
)


@given(near_envelopes)
def test_envelope_parse_matches_generic_codec_near_the_shape(fields):
    _same_parse(encode_fields(fields))


@given(envelope_strategy, st.data())
def test_mutated_envelope_parse_matches_generic_codec(envelope, data):
    """Every truncation, trailing bytes, an inflated count, each length
    word grown, and any one byte replaced: the same envelope or the same
    CodecError message as the generic decoder."""
    encoded = envelope.to_bytes()
    assert _same_parse(encoded) == envelope
    for cut in range(len(encoded)):
        _same_parse(encoded[:cut])
    _same_parse(encoded + data.draw(st.binary(min_size=1, max_size=8)))
    bump = data.draw(st.sampled_from(
        [1, 2, 1 << 16, MAX_FIELD_LEN, MAX_FIELD_LEN + 1, (1 << 32) - 5]))
    _same_parse(encode_u32(4 + bump) + encoded[4:])
    offset = 4
    for field in _frozen_decode_fields(encoded):
        grown = min(len(field) + bump, (1 << 32) - 1)
        _same_parse(encoded[:offset] + encode_u32(grown) + encoded[offset + 4:])
        offset += 4 + len(field)
    at = data.draw(st.integers(0, len(encoded) - 1))
    byte = data.draw(st.integers(0, 255))
    _same_parse(encoded[:at] + bytes([byte]) + encoded[at + 1:])


@given(envelope_strategy)
def test_envelope_encode_matches_generic_codec(envelope):
    encoded = envelope.to_bytes()
    assert type(encoded) is bytes
    assert encoded == _reference_to_bytes(envelope)


@pytest.mark.parametrize("label", list(Label), ids=lambda label: label.name)
def test_envelope_encode_edge_cases_match_generic_codec(label):
    for sender, recipient in (("", ""), ("ålice", "лидер"), ("a" * 300, "")):
        for body in (b"", b"x", bytes(64 * 1024 + 1), bytearray(b"yz")):
            envelope = Envelope(label, sender, recipient, body)
            encoded = envelope.to_bytes()
            assert encoded == _reference_to_bytes(envelope)
            assert _same_parse(encoded) == envelope


def test_envelope_encode_refusals_match_generic_codec():
    too_long = bytes(MAX_FIELD_LEN + 1)
    for envelope in (
        Envelope(Label.APP_DATA, "a", "b", too_long),
        Envelope(Label.APP_DATA, "a" * (MAX_FIELD_LEN + 1), "b", b""),
        Envelope(Label.APP_DATA, "a", "b" * (MAX_FIELD_LEN + 1), b""),
        Envelope(Label.APP_DATA, "a", "b", "text"),
        Envelope(Label.APP_DATA, "a", "b", None),
    ):
        refused = _outcome(envelope.to_bytes)
        assert refused[0] == "CodecError"
        assert refused == _outcome(_reference_to_bytes, envelope)
    # The largest body there is still goes through, and comes back.
    largest = Envelope(Label.APP_DATA, "a", "b", bytes(MAX_FIELD_LEN))
    assert largest.to_bytes() == _reference_to_bytes(largest)
    assert _same_parse(largest.to_bytes()) == largest
    # A well-delimited frame refused for one over-long field.
    refused = _same_parse(
        encode_u32(4) + encode_fields([b"\x20", b"a", b"b"])[4:]
        + encode_u32(len(too_long)) + too_long)
    assert refused == ("CodecError", "field too long")
