"""SHA-256 implemented from scratch per FIPS 180-4.

This is a straightforward, readable implementation: message schedule,
64-round compression, Merkle-Damgård padding.  It supports incremental
hashing via :class:`SHA256`.

Performance note: pure Python runs at a few MB/s, which is ample for the
protocol simulator; the round functions are inlined into the compression
loop (as the AES T-tables are into its rounds) because a function call
per rotation cost more than the rotation.  Correctness is established
against the NIST example vectors and RFC test strings in
``tests/crypto/test_sha256.py``.
"""

from __future__ import annotations

import struct

_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


def _compress(state: tuple, block: bytes) -> tuple:
    """One 64-byte block through the compression function (FIPS 180-4
    §6.2.2); returns the next state.

    Σ0/Σ1/σ0/σ1, Ch and Maj are written out in place: a rotation is
    ``x >> n | x << 32 - n``, and the bits it pushes above 32 are masked
    off once per sum rather than once per rotation (the low 32 bits of a
    sum depend only on the low 32 bits of its terms).
    """
    w = [0] * 64
    w[:16] = struct.unpack(">16I", block)
    for t in range(16, 64):
        x, y = w[t - 15], w[t - 2]
        s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)
        s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)
        w[t] = (w[t - 16] + s0 + w[t - 7] + s1) & _MASK

    a, b, c, d, e, f, g, h = state
    for k, wt in zip(_K, w):
        big_s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
        ch = g ^ (e & (f ^ g))
        t1 = h + big_s1 + ch + k + wt
        big_s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
        maj = (a & b) | (c & (a | b))
        h, g, f, e = g, f, e, (d + t1) & _MASK
        d, c, b, a = c, b, a, (t1 + big_s0 + maj) & _MASK

    return tuple(
        (x + y) & _MASK for x, y in zip(state, (a, b, c, d, e, f, g, h))
    )


class SHA256:
    """Incremental SHA-256 hasher with the familiar update/digest API."""

    __slots__ = ("_h", "_buffer", "_length")

    digest_size = 32
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._h = _H0
        self._buffer = b""
        self._length = 0  # total bytes hashed so far
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Feed more bytes into the hash."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("SHA256.update expects bytes-like data")
        data = bytes(data)
        self._length += len(data)
        buf = self._buffer + data
        end = len(buf) - len(buf) % 64
        h = self._h
        for i in range(0, end, 64):
            h = _compress(h, buf[i:i + 64])
        self._h = h
        self._buffer = buf[end:]

    def copy(self) -> "SHA256":
        """Return an independent copy of the current hash state."""
        clone = SHA256.__new__(SHA256)
        clone._h = self._h  # a tuple: shared, never mutated
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything fed so far."""
        length = self._length
        # Padding: 0x80, zeros, then 64-bit big-endian bit length.
        tail = (self._buffer + b"\x80" + bytes((55 - length) % 64)
                + struct.pack(">Q", length * 8))
        h = self._h
        for i in range(0, len(tail), 64):
            h = _compress(h, tail[i:i + 64])
        return struct.pack(">8I", *h)

    def hexdigest(self) -> str:
        return self.digest().hex()
