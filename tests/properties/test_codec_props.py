"""Property-based tests for the wire codec: total, injective, inverse."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import GroupKey
from repro.dataplane.channel import data_ad, decode_data_body, encode_data_body
from repro.dataplane.reliable import (
    _seal_control,
    decode_control_routing,
    unwrap_msg,
    wrap_msg,
)
from repro.enclaves.itgm.admin import decode_payload
from repro.enclaves.itgm.member import encode_session_fields
from repro.exceptions import CodecError
from repro.wire.codec import (
    MAX_FIELD_LEN,
    decode_fields,
    decode_str,
    encode_fields,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope, parse_wrapper_body, wrap_group

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


# -- differential: every hot-path body's fixed layout against the generic codec
#
# Each body a frame carries on the data path, and the rekey on the §3.2
# admin path, is packed and read in a fixed layout
# (``repro.wire.codec.fixed_layout``); the generic codec is the error
# path and the reference.  The AdminMsg / Ack plaintexts are packed
# after a kept prefix but read generically: a direct parse measured no
# faster than ``decode_fields`` for their five short fields.  The contract,
# per layout: the encoder's bytes are ``encode_fields`` of the fields;
# the parse accepts exactly what the reference accepts, with the same
# result, and refuses the rest with the same ``CodecError`` text; and on
# the canonical encoding of a well-formed body the direct path itself
# answers (a layout that never fires is as wrong as one that lies).


def _fast_outcome(layout, data, args):
    """What the direct path alone answers: a result, a ``CodecError``
    it lets through (a wrapper's inner envelope), or None for a miss.
    A layout that is total (``unwrap_msg``) is all direct path."""
    try:
        return _outcome(getattr(layout, "fast", layout), data, *args)
    except (struct.error, UnicodeDecodeError):
        return None


def _reference_unwrap_msg(plain):
    try:
        magic, mid, payload = decode_fields(plain, expect=3)
    except CodecError:
        return None, plain
    if magic != b"repro-data-msg" or len(mid) != 8:
        return None, plain
    return int.from_bytes(mid, "big"), payload


def _same_layout(name, data):
    """The layout's answer, held to the reference's on ``data``."""
    layout, reference, args = LAYOUTS[name][:3]
    got = _outcome(layout, data, *args)
    assert got == _outcome(reference, data, *args)
    fast = _fast_outcome(layout, data, args)
    assert fast is None or fast == got
    return got


def _near_the_shape(fields):
    """A body's canonical encoding and its near misses: the count ±1,
    each length word ±1 and above ``MAX_FIELD_LEN``, one trailing byte."""
    encoded = encode_fields(fields)
    yield encoded
    yield encoded + b"\x00"
    for count in (len(fields) - 1, len(fields) + 1):
        if count >= 0:
            yield encode_u32(count) + encoded[4:]
    offset = 4
    for field in fields:
        for length in (len(field) - 1, len(field) + 1, MAX_FIELD_LEN + 1):
            if length >= 0:
                yield (encoded[:offset] + encode_u32(length)
                       + encoded[offset + 4:])
        offset += 4 + len(field)


ids = st.one_of(st.text(max_size=12).map(str.encode), st.binary(max_size=12))
words = st.one_of(st.binary(min_size=8, max_size=8), st.binary(max_size=10))
blobs = st.binary(max_size=48)
WELL_FORMED_INNER = Envelope(Label.DATA_MSG, "grp-a.u0", "grp-a", b"x" * 9)


#: name -> (layout, its reference, extra arguments, strategy for its field
#: lists, and a predicate naming the field lists whose encoding must take
#: the direct path)
LAYOUTS = {
    "data body": (
        decode_data_body, decode_data_body.reference, (),
        st.lists(st.one_of(ids, words, blobs),
                                       min_size=3, max_size=5)
        | st.tuples(ids, words, words, blobs).map(list),
        lambda f: len(f) == 4 and len(f[1]) == len(f[2]) == 8
        and _utf8(f[0]),
    ),
    "control uplink": (
        decode_control_routing, decode_control_routing.reference, (),
        st.tuples(ids, ids, blobs, blobs).map(list)
        | st.lists(ids, min_size=3, max_size=5),
        lambda f: len(f) == 4 and _utf8(f[0]) and _utf8(f[1]),
    ),
    "msg-id wrapper": (
        unwrap_msg, _reference_unwrap_msg, (),
        st.tuples(st.sampled_from([b"repro-data-msg", b"repro-data-msh",
                                   b""]), words, blobs).map(list)
        | st.lists(blobs, max_size=4),
        lambda f: len(f) == 3 and f[0] == b"repro-data-msg"
        and len(f[1]) == 8,
    ),
    "GROUP_WRAP body": (
        parse_wrapper_body, parse_wrapper_body.reference, (),
        st.tuples(ids, st.sampled_from([WELL_FORMED_INNER.to_bytes(),
                                        b"not an envelope"])).map(list)
        | st.lists(ids, min_size=1, max_size=3),
        lambda f: len(f) == 2 and _utf8(f[0])
        and f[1] == WELL_FORMED_INNER.to_bytes(),
    ),
    "NewGroupKeyPayload": (
        decode_payload, decode_payload.reference, (),
        st.tuples(st.sampled_from([b"\x01", b"\x02", b"\x01\x01"]),
                  st.binary(min_size=31, max_size=33), words,
                  st.sampled_from([b"\x00", b"\x01", b"\x02", b""])).map(list),
        lambda f: f[0] == b"\x01" and len(f[1]) == 32 and len(f[2]) == 8
        and f[3] in (b"\x00", b"\x01"),
    ),
}


def _utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@pytest.mark.parametrize("name", LAYOUTS)
@given(data=st.binary(max_size=96))
def test_layout_matches_generic_codec_on_arbitrary_bytes(name, data):
    _same_layout(name, data)


@pytest.mark.parametrize("name", LAYOUTS)
@given(data=st.data())
def test_layout_matches_generic_codec_near_the_shape(name, data):
    layout, _reference, args, field_lists, direct = LAYOUTS[name]
    fields = data.draw(field_lists)
    for mutant in _near_the_shape(fields):
        _same_layout(name, mutant)
    if direct(fields):
        assert _fast_outcome(layout, encode_fields(fields), args) is not None


@given(st.text(max_size=12), st.integers(0, 2**64 - 1),
       st.integers(0, 2**64 - 1), blobs)
def test_data_encoders_match_generic_codec(sender, epoch, seq, box):
    e, s = epoch.to_bytes(8, "big"), seq.to_bytes(8, "big")
    assert data_ad(sender, epoch, seq) == encode_fields(
        [b"repro-data", sender.encode(), e, s])
    body = encode_data_body(sender, epoch, seq, box)
    assert body == encode_fields([sender.encode(), e, s, box])
    assert decode_data_body.fast(body) == (sender, epoch, seq, box)


@given(st.integers(0, 2**64 - 1), blobs, st.text(max_size=12),
       st.text(max_size=12), st.lists(st.integers(0, 2**64 - 1), max_size=4))
def test_relay_encoders_match_generic_codec(msg_id, payload, origin, acker,
                                            seqs):
    wrapped = wrap_msg(msg_id, payload)
    assert wrapped == encode_fields(
        [b"repro-data-msg", msg_id.to_bytes(8, "big"), payload])
    assert unwrap_msg(wrapped) == (msg_id, payload)
    cipher = AuthenticatedCipher(GroupKey(bytes(32)))
    frame = _seal_control(Label.DATA_ACK, cipher, origin, acker, 3, seqs, "r")
    _, _, ack, tag = decode_control_routing.reference(frame.body)
    assert frame.body == encode_fields(
        [origin.encode(), acker.encode(), ack, tag])
    assert decode_control_routing.fast(frame.body) == (origin, acker, ack, tag)
    group = wrap_group(origin, WELL_FORMED_INNER, "shard")
    assert group.body == encode_fields(
        [origin.encode(), WELL_FORMED_INNER.to_bytes()])
    assert parse_wrapper_body.fast(group.body) == (origin, WELL_FORMED_INNER)


@given(st.text(max_size=12), st.text(max_size=12),
       st.lists(st.binary(max_size=24), max_size=4))
def test_session_encoder_matches_generic_codec(first, second, rest):
    encoded = encode_session_fields(first, second, *rest)
    assert encoded == encode_fields([first.encode(), second.encode(), *rest])


def test_encoder_refusals_match_generic_codec():
    too_long = bytes(MAX_FIELD_LEN + 1)
    for encode, reference in (
        (lambda: encode_data_body("a", 1, 2, too_long),
         lambda: encode_fields([b"a", bytes(8), bytes(8), too_long])),
        (lambda: wrap_msg(1, too_long),
         lambda: encode_fields([b"repro-data-msg", bytes(8), too_long])),
        (lambda: encode_session_fields("a", "b", bytes(16), too_long),
         lambda: encode_fields([b"a", b"b", bytes(16), too_long])),
        (lambda: wrap_group("g", Envelope(Label.APP_DATA, "a", "b",
                                          bytes(MAX_FIELD_LEN)), "s"),
         lambda: encode_fields([b"g", bytes(MAX_FIELD_LEN + 16)])),
    ):
        refused = _outcome(encode)
        assert refused == ("CodecError", "field too long")
        assert refused == _outcome(reference)


@pytest.mark.parametrize("name", LAYOUTS)
def test_layout_refuses_an_over_long_field_like_the_generic_codec(name):
    """A well-delimited body whose open field is one byte too long: the
    direct path must not take it (checked once, 16 MiB per body)."""
    too_long = bytes(MAX_FIELD_LEN + 1)
    fields = {
        "data body": [b"a", bytes(8), bytes(8), too_long],
        "control uplink": [b"o", b"a", too_long, bytes(32)],
        "msg-id wrapper": [b"repro-data-msg", bytes(8), too_long],
        "GROUP_WRAP body": [b"g", too_long],
        "NewGroupKeyPayload": [b"\x01", too_long, bytes(8), b"\x00"],
    }[name]
    encoded = encode_u32(len(fields)) + b"".join(
        encode_u32(len(f)) + f for f in fields)
    got = _same_layout(name, encoded)
    assert got in (("CodecError", "field too long"), (None, encoded))


#: One well-formed body per layout, for the exhaustive check below.
WELL_FORMED = {
    "data body": [b"grp-a.u1", bytes(range(8)), bytes(range(1, 9)), b"box"],
    "control uplink": [b"grp-a.u1", b"grp-a.u2", bytes(16), b"t" * 32],
    "msg-id wrapper": [b"repro-data-msg", bytes(range(8)), b"payload"],
    "GROUP_WRAP body": [b"grp-a", WELL_FORMED_INNER.to_bytes()],
    "NewGroupKeyPayload": [b"\x01", bytes(range(32)), bytes(range(8)),
                           b"\x01"],
}


@pytest.mark.parametrize("name", LAYOUTS)
def test_layout_matches_generic_codec_on_every_one_byte_change(name):
    """Every byte of a well-formed body replaced by every value: no
    content the reference refuses gets past the direct path, however
    unlikely a random draw is to find it."""
    fields = WELL_FORMED[name]
    assert LAYOUTS[name][4](fields)  # the direct path reads it
    encoded = encode_fields(fields)
    for at in range(len(encoded)):
        for value in range(256):
            _same_layout(name, encoded[:at] + bytes([value]) + encoded[at + 1:])
