"""Tests for the canonical field encoding."""

import pytest

from repro.exceptions import CodecError
from repro.wire.codec import (
    decode_fields,
    decode_str,
    decode_str_list,
    encode_fields,
    encode_str,
    encode_str_list,
)


class TestFields:
    def test_roundtrip(self):
        fields = [b"", b"a", b"hello world", bytes(100)]
        assert decode_fields(encode_fields(fields)) == fields

    def test_empty_list(self):
        assert decode_fields(encode_fields([])) == []

    def test_injective(self):
        # The classic boundary-shift confusion must be impossible.
        assert encode_fields([b"ab", b"c"]) != encode_fields([b"a", b"bc"])
        assert encode_fields([b"abc"]) != encode_fields([b"ab", b"c"])
        assert encode_fields([b""]) != encode_fields([])

    def test_expect_count(self):
        data = encode_fields([b"x", b"y"])
        assert decode_fields(data, expect=2) == [b"x", b"y"]
        with pytest.raises(CodecError):
            decode_fields(data, expect=3)

    def test_trailing_bytes_rejected(self):
        data = encode_fields([b"x"]) + b"junk"
        with pytest.raises(CodecError):
            decode_fields(data)

    def test_truncations_rejected(self):
        data = encode_fields([b"hello", b"world"])
        for cut in range(len(data)):
            truncated = data[:cut]
            with pytest.raises(CodecError):
                decode_fields(truncated)

    def test_non_bytes_field_rejected(self):
        with pytest.raises(CodecError):
            encode_fields(["str"])  # type: ignore[list-item]

    def test_oversized_length_rejected(self):
        # A forged header claiming a giant field must fail cleanly.
        data = (1).to_bytes(4, "big") + (1 << 25).to_bytes(4, "big") + b"x"
        with pytest.raises(CodecError):
            decode_fields(data)

    def test_nested(self):
        inner = encode_fields([b"deep"])
        outer = encode_fields([inner, b"flat"])
        got_inner, got_flat = decode_fields(outer, expect=2)
        assert decode_fields(got_inner) == [b"deep"]
        assert got_flat == b"flat"


class TestStrings:
    def test_roundtrip(self):
        for s in ("", "ascii", "ünïcødé", "日本語"):
            assert decode_str(encode_str(s)) == s

    def test_invalid_utf8_rejected(self):
        with pytest.raises(CodecError):
            decode_str(b"\xff\xfe")

    def test_str_list_roundtrip(self):
        names = ["alice", "bob", "carol"]
        assert decode_str_list(encode_str_list(names)) == names

    def test_empty_str_list(self):
        assert decode_str_list(encode_str_list([])) == []
