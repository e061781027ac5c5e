"""SHA-256 implemented from scratch per FIPS 180-4.

This is a readable implementation: message schedule, 64-round
compression, Merkle-Damgård padding.  It supports incremental hashing
via :class:`SHA256`.

Rotations on a doubled word: for a 32-bit ``x``, ``X = x * 0x100000001``
is ``x`` written twice side by side, so the low 32 bits of ``X >> n``
are ``rotr(x, n)`` (0 < n < 32) and ``X >> 32 + n`` is ``x >> n``.  One
multiply serves all three terms of a Σ or σ; the bits above 32 fall to
the mask the sum takes anyway.

Performance note: one block costs about 95 µs (some 0.7 MB/s) under
CPython 3.11 on a shared two-core x86-64 box.  The round functions are
inlined into the compression loop (as the AES T-tables are into its
rounds) because a function call per rotation cost more than the
rotation.  Correctness is established against the NIST example vectors
and RFC test strings in ``tests/crypto/test_sha256.py``, and the kernel
against a one-round-at-a-time oracle there.
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

    Σ0/Σ1/σ0/σ1, Ch and Maj are written out in place, each Σ or σ on
    one doubled word (see the module docstring); the bits above 32 are
    masked off once per sum rather than once per term (the low 32 bits
    of a sum depend only on the low 32 bits of its terms).  The rounds
    run eight at a time: after eight the roles of ``a``..``h`` are back
    where they started, so each written-out round names the variable
    that holds its role and no round shuffles the state.  Round ``r``'s
    ``T1`` goes into the variable holding ``d``, which becomes the next
    ``e``; ``T1 + T2`` goes into the one holding ``h``, which becomes
    the next ``a``.  ``K[t] + W[t]`` is summed for all 64 rounds first.
    """
    w = list(struct.unpack(">16I", block))
    for t in range(16, 64):
        x = w[t - 15] * 0x100000001
        y = w[t - 2] * 0x100000001
        w.append((w[t - 16] + (x >> 7 ^ x >> 18 ^ x >> 35) + w[t - 7]
                  + (y >> 17 ^ y >> 19 ^ y >> 42)) & _MASK)

    a, b, c, d, e, f, g, h = state
    kw = iter([k + x for k, x in zip(_K, w)])
    for k0, k1, k2, k3, k4, k5, k6, k7 in zip(*[kw] * 8):
        x = e * 0x100000001
        t = h + (x >> 6 ^ x >> 11 ^ x >> 25) + (g ^ e & (f ^ g)) + k0
        x = a * 0x100000001
        d = (d + t) & _MASK
        h = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (a & b | c & (a | b))) & _MASK
        x = d * 0x100000001
        t = g + (x >> 6 ^ x >> 11 ^ x >> 25) + (f ^ d & (e ^ f)) + k1
        x = h * 0x100000001
        c = (c + t) & _MASK
        g = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (h & a | b & (h | a))) & _MASK
        x = c * 0x100000001
        t = f + (x >> 6 ^ x >> 11 ^ x >> 25) + (e ^ c & (d ^ e)) + k2
        x = g * 0x100000001
        b = (b + t) & _MASK
        f = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (g & h | a & (g | h))) & _MASK
        x = b * 0x100000001
        t = e + (x >> 6 ^ x >> 11 ^ x >> 25) + (d ^ b & (c ^ d)) + k3
        x = f * 0x100000001
        a = (a + t) & _MASK
        e = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (f & g | h & (f | g))) & _MASK
        x = a * 0x100000001
        t = d + (x >> 6 ^ x >> 11 ^ x >> 25) + (c ^ a & (b ^ c)) + k4
        x = e * 0x100000001
        h = (h + t) & _MASK
        d = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (e & f | g & (e | f))) & _MASK
        x = h * 0x100000001
        t = c + (x >> 6 ^ x >> 11 ^ x >> 25) + (b ^ h & (a ^ b)) + k5
        x = d * 0x100000001
        g = (g + t) & _MASK
        c = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (d & e | f & (d | e))) & _MASK
        x = g * 0x100000001
        t = b + (x >> 6 ^ x >> 11 ^ x >> 25) + (a ^ g & (h ^ a)) + k6
        x = c * 0x100000001
        f = (f + t) & _MASK
        b = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (c & d | e & (c | d))) & _MASK
        x = f * 0x100000001
        t = a + (x >> 6 ^ x >> 11 ^ x >> 25) + (h ^ f & (g ^ h)) + k7
        x = b * 0x100000001
        e = (e + t) & _MASK
        a = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (b & c | d & (b | c))) & _MASK

    s0, s1, s2, s3, s4, s5, s6, s7 = state
    return ((s0 + a) & _MASK, (s1 + b) & _MASK, (s2 + c) & _MASK,
            (s3 + d) & _MASK, (s4 + e) & _MASK, (s5 + f) & _MASK,
            (s6 + g) & _MASK, (s7 + h) & _MASK)


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
