"""Tests for envelopes and labels."""

import pytest

from repro.exceptions import CodecError
from repro.wire.labels import Label
from repro.wire.message import Envelope


class TestLabel:
    def test_values_unique(self):
        values = [label.value for label in Label]
        assert len(values) == len(set(values))

    def test_one_byte_values(self):
        assert all(0 <= label.value <= 255 for label in Label)

    def test_data_labels(self):
        for label in (Label.DATA_MSG, Label.DATA_ACK, Label.DATA_NACK):
            assert label.is_data

    def test_is_data_exhaustive(self):
        """``is_data`` is exactly the 0x40 block — no more, no less."""
        data_labels = {label for label in Label if label.is_data}
        assert data_labels == {Label.DATA_MSG, Label.DATA_ACK,
                               Label.DATA_NACK}
        assert all(0x40 <= label.value <= 0x4F for label in data_labels)


class TestEnvelope:
    def test_roundtrip(self):
        env = Envelope(Label.ADMIN_MSG, "leader", "alice", b"\x00\x01payload")
        assert Envelope.from_bytes(env.to_bytes()) == env

    def test_empty_body(self):
        env = Envelope(Label.REQ_OPEN, "a", "l", b"")
        assert Envelope.from_bytes(env.to_bytes()) == env

    def test_unicode_identities(self):
        env = Envelope(Label.ACK, "ålice", "лидер", b"x")
        assert Envelope.from_bytes(env.to_bytes()) == env

    def test_unknown_label_rejected(self):
        from repro.wire.codec import encode_fields, encode_str

        data = encode_fields(
            [bytes([0xEE]), encode_str("a"), encode_str("b"), b""]
        )
        with pytest.raises(CodecError):
            Envelope.from_bytes(data)

    def test_multibyte_label_rejected(self):
        from repro.wire.codec import encode_fields, encode_str

        data = encode_fields(
            [b"\x01\x01", encode_str("a"), encode_str("b"), b""]
        )
        with pytest.raises(CodecError):
            Envelope.from_bytes(data)

    def test_wrong_field_count_rejected(self):
        from repro.wire.codec import encode_fields

        with pytest.raises(CodecError):
            Envelope.from_bytes(encode_fields([b"\x01", b"a", b"b"]))

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            Envelope.from_bytes(b"not an envelope")

    def test_repr_mentions_parties(self):
        env = Envelope(Label.ACK, "alice", "leader", b"12345")
        assert "alice" in repr(env) and "leader" in repr(env)
        assert "ACK" in repr(env)

    def test_frozen(self):
        env = Envelope(Label.ACK, "a", "l", b"")
        with pytest.raises(AttributeError):
            env.sender = "mallory"  # type: ignore[misc]

    def test_data_label_roundtrip(self):
        for label in (Label.DATA_MSG, Label.DATA_ACK, Label.DATA_NACK):
            env = Envelope(label, "alice", "leader", b"\x40payload")
            assert Envelope.from_bytes(env.to_bytes()) == env
