"""Byte-string operations used by the crypto substrate.

These are deliberately simple, dependency-free implementations, with
one exception: the constant-time comparison *is* the standard library's
``hmac.compare_digest``, because a loop in Python cannot promise that
its running time does not leak the position of the first mismatch.
"""

from __future__ import annotations

import hmac

from repro.exceptions import PaddingError


#: Compare two byte strings in time independent of their contents.
#: Length differences are still observable (as with HMAC verification in
#: general, the MAC length is public), but the position of the first
#: differing byte is not.
constant_time_eq = hmac.compare_digest


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"xor_bytes: length mismatch ({len(a)} vs {len(b)})")
    return bytes(x ^ y for x, y in zip(a, b))


def pkcs7_pad(data: bytes, block_size: int) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` using PKCS#7.

    A full block of padding is added when ``data`` is already aligned, so
    padding is always removable unambiguously.
    """
    if not 1 <= block_size <= 255:
        raise ValueError("block_size must be in 1..255")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int) -> bytes:
    """Remove PKCS#7 padding, raising :class:`PaddingError` if malformed."""
    if not data or len(data) % block_size != 0:
        raise PaddingError("padded data length is not a multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise PaddingError(f"invalid padding length byte {pad_len}")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("padding bytes are inconsistent")
    return data[:-pad_len]
