"""Tests for byte-string utilities."""

import pytest

from repro.exceptions import PaddingError
from repro.util.bytesops import (
    constant_time_eq,
    pkcs7_pad,
    pkcs7_unpad,
    xor_bytes,
)


class TestConstantTimeEq:
    def test_equal(self):
        assert constant_time_eq(b"hello", b"hello")

    def test_unequal_same_length(self):
        assert not constant_time_eq(b"hello", b"hellp")

    def test_unequal_length(self):
        assert not constant_time_eq(b"hello", b"hello!")

    def test_empty(self):
        assert constant_time_eq(b"", b"")

    def test_first_byte_differs(self):
        assert not constant_time_eq(b"\x00" * 32, b"\x01" + b"\x00" * 31)

    def test_last_byte_differs(self):
        assert not constant_time_eq(b"\x00" * 32, b"\x00" * 31 + b"\x01")

    def test_prefix_is_not_equal_either_way(self):
        assert not constant_time_eq(b"", b"\x00")
        assert not constant_time_eq(b"tag" * 11, b"tag" * 10)

    def test_bytearray_and_bytes_mix(self):
        assert constant_time_eq(bytearray(b"tag"), b"tag")
        assert constant_time_eq(b"tag", bytearray(b"tag"))
        assert not constant_time_eq(bytearray(b"tag"), b"tah")

    def test_it_is_the_standard_library_comparison(self):
        """One definition for both crypto backends, and not a loop in
        Python: only C can promise the time does not depend on where the
        first difference is."""
        import hmac

        from repro.crypto import mac, provider

        assert constant_time_eq is hmac.compare_digest
        assert provider.constant_time_eq is hmac.compare_digest
        assert mac.constant_time_eq is hmac.compare_digest


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_identity(self):
        data = bytes(range(16))
        assert xor_bytes(data, bytes(16)) == data

    def test_self_inverse(self):
        a, b = bytes(range(16)), bytes(range(16, 32))
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")


class TestPkcs7:
    def test_pad_length_is_multiple(self):
        for n in range(0, 48):
            padded = pkcs7_pad(bytes(n), 16)
            assert len(padded) % 16 == 0
            assert len(padded) > n  # padding always added

    def test_roundtrip(self):
        for n in range(0, 33):
            data = bytes(range(n % 256))[:n]
            assert pkcs7_unpad(pkcs7_pad(data, 16), 16) == data

    def test_aligned_input_gets_full_block(self):
        padded = pkcs7_pad(bytes(16), 16)
        assert len(padded) == 32
        assert padded[-1] == 16

    def test_unpad_rejects_empty(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"", 16)

    def test_unpad_rejects_unaligned(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"\x01" * 15, 16)

    def test_unpad_rejects_zero_pad_byte(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"\x00" * 16, 16)

    def test_unpad_rejects_oversized_pad_byte(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"\x11" * 16, 16)

    def test_unpad_rejects_inconsistent_padding(self):
        data = b"\x02" * 15 + b"\x03"
        with pytest.raises(PaddingError):
            pkcs7_unpad(data, 16)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", 0)
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", 256)
