"""AES block cipher (FIPS 197) implemented from scratch.

Supports 128-, 192-, and 256-bit keys.  The implementation is the classic
byte-oriented one: S-box substitution, ShiftRows, MixColumns over GF(2^8),
and the Rijndael key schedule (on 32-bit words, which the T-table rounds
take directly).  It is validated against the FIPS 197
appendix vectors and the NIST AESAVS known-answer tests in
``tests/crypto/test_aes.py``.

Only the raw block operations are exposed; chaining modes live in
:mod:`repro.crypto.modes`.
"""

from __future__ import annotations

import struct

from repro.exceptions import KeyError_

BLOCK_SIZE = 16


def _build_sbox() -> tuple[bytes, bytes]:
    """Compute the AES S-box and its inverse from first principles."""
    # Multiplicative inverses in GF(2^8) via exp/log tables (generator 3).
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 = x ^ (x*2) in GF(2^8)
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    exp[255] = exp[0]

    def inv(b: int) -> int:
        return 0 if b == 0 else exp[255 - log[b]]

    sbox = bytearray(256)
    for b in range(256):
        c = inv(b)
        # Affine transformation.
        s = 0
        for i in range(8):
            bit = (
                (c >> i) & 1
                ^ (c >> ((i + 4) % 8)) & 1
                ^ (c >> ((i + 5) % 8)) & 1
                ^ (c >> ((i + 6) % 8)) & 1
                ^ (c >> ((i + 7) % 8)) & 1
                ^ (0x63 >> i) & 1
            )
            s |= bit << i
        sbox[b] = s
    inv_sbox = bytearray(256)
    for b in range(256):
        inv_sbox[sbox[b]] = b
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    r = _RCON[-1] << 1
    _RCON.append(r ^ 0x11B if r & 0x100 else r)


def _xtime(b: int) -> int:
    """Multiply by x (i.e., 2) in GF(2^8)."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def _gmul(a: int, b: int) -> int:
    """General multiplication in GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed multiplication tables for MixColumns and its inverse.
_MUL = {n: bytes(_gmul(b, n) for b in range(256)) for n in (2, 3, 9, 11, 13, 14)}

# T-tables for the encryption hot path: each combines SubBytes and
# MixColumns for one byte position of a column.  T0[b] is the 32-bit
# column contribution (2*S[b], S[b], S[b], 3*S[b]); T1..T3 are byte
# rotations of T0.  This is the classic software-AES optimization; the
# byte-oriented code above remains as the readable reference (and for
# decryption), and both are checked against the same vectors.
_T0 = [
    (_MUL[2][_SBOX[b]] << 24) | (_SBOX[b] << 16) | (_SBOX[b] << 8)
    | _MUL[3][_SBOX[b]]
    for b in range(256)
]
_T1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _T0]
_T2 = [((t >> 16) | ((t & 0xFFFF) << 16)) & 0xFFFFFFFF for t in _T0]
_T3 = [((t >> 24) | ((t & 0xFFFFFF) << 8)) & 0xFFFFFFFF for t in _T0]


class AES:
    """Raw AES block cipher for a fixed key.

    >>> cipher = AES(bytes(16))
    >>> ct = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(ct) == bytes(16)
    True
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise KeyError_(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        words = self._expand_key(key)
        # Round keys as 4 big-endian words each, for the T-table path.
        self._round_key_words = list(zip(*[iter(words)] * 4))

    #: The same round keys as 16 bytes each, for the byte-oriented paths,
    #: packed from the words on each read: only ``decrypt_block`` and
    #: ``encrypt_block_reference`` read them, and no shipped run calls
    #: either, so a one-time key's construction does not pay for them.
    _round_keys = property(
        lambda self: [struct.pack(">4I", *k) for k in self._round_key_words])

    def _expand_key(self, key: bytes) -> list[int]:
        """The Rijndael key schedule (FIPS 197 §5.2) on 32-bit words:
        ``RotWord`` + ``SubWord`` is four S-box lookups shifted into
        place, ``Rcon`` XORs the top byte.  Returns all ``4 * (Nr + 1)``
        words, round key ``r`` being words ``4r``..``4r + 3``."""
        nk = len(key) // 4
        nr = self._rounds
        sbox = _SBOX
        w = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (nr + 1)):
            t = w[-1]
            if i % nk == 0:
                t = (sbox[t >> 16 & 0xFF] << 24 | sbox[t >> 8 & 0xFF] << 16
                     | sbox[t & 0xFF] << 8 | sbox[t >> 24]
                     ) ^ _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                t = (sbox[t >> 24] << 24 | sbox[t >> 16 & 0xFF] << 16
                     | sbox[t >> 8 & 0xFF] << 8 | sbox[t & 0xFF])
            w.append(w[i - nk] ^ t)
        return w

    # -- block operations ------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block (T-table fast path)."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES block must be 16 bytes")
        t0, t1, t2, t3, sbox = _T0, _T1, _T2, _T3, _SBOX
        rk = self._round_key_words
        w0, w1, w2, w3 = struct.unpack(">4I", block)
        w0 ^= rk[0][0]
        w1 ^= rk[0][1]
        w2 ^= rk[0][2]
        w3 ^= rk[0][3]
        for rnd in range(1, self._rounds):
            k = rk[rnd]
            e0 = (t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF]
                  ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ k[0])
            e1 = (t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF]
                  ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ k[1])
            e2 = (t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF]
                  ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ k[2])
            e3 = (t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF]
                  ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ k[3])
            w0, w1, w2, w3 = e0, e1, e2, e3
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        k = rk[self._rounds]
        o0 = ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & 0xFF] << 16)
              | (sbox[(w2 >> 8) & 0xFF] << 8) | sbox[w3 & 0xFF]) ^ k[0]
        o1 = ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & 0xFF] << 16)
              | (sbox[(w3 >> 8) & 0xFF] << 8) | sbox[w0 & 0xFF]) ^ k[1]
        o2 = ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & 0xFF] << 16)
              | (sbox[(w0 >> 8) & 0xFF] << 8) | sbox[w1 & 0xFF]) ^ k[2]
        o3 = ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & 0xFF] << 16)
              | (sbox[(w1 >> 8) & 0xFF] << 8) | sbox[w2 & 0xFF]) ^ k[3]
        return struct.pack(">4I", o0, o1, o2, o3)

    def encrypt_block_reference(self, block: bytes) -> bytes:
        """Readable byte-oriented reference implementation (used to
        cross-check the T-table path in the test suite)."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES block must be 16 bytes")
        round_keys = self._round_keys
        state = bytearray(x ^ k for x, k in zip(block, round_keys[0]))
        mul2, mul3 = _MUL[2], _MUL[3]
        for rnd in range(1, self._rounds):
            # SubBytes + ShiftRows fused (column-major state layout).
            s = bytes(
                _SBOX[state[(i + 4 * (i % 4)) % 16]] for i in range(16)
            )
            # MixColumns + AddRoundKey.
            rk = round_keys[rnd]
            for c in range(4):
                a0, a1, a2, a3 = s[4 * c: 4 * c + 4]
                state[4 * c + 0] = mul2[a0] ^ mul3[a1] ^ a2 ^ a3 ^ rk[4 * c + 0]
                state[4 * c + 1] = a0 ^ mul2[a1] ^ mul3[a2] ^ a3 ^ rk[4 * c + 1]
                state[4 * c + 2] = a0 ^ a1 ^ mul2[a2] ^ mul3[a3] ^ rk[4 * c + 2]
                state[4 * c + 3] = mul3[a0] ^ a1 ^ a2 ^ mul2[a3] ^ rk[4 * c + 3]
        # Final round: no MixColumns.
        rk = round_keys[self._rounds]
        out = bytes(
            _SBOX[state[(i + 4 * (i % 4)) % 16]] ^ rk[i] for i in range(16)
        )
        return out

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES block must be 16 bytes")
        m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
        round_keys = self._round_keys
        state = bytearray(
            x ^ k for x, k in zip(block, round_keys[self._rounds])
        )
        for rnd in range(self._rounds - 1, 0, -1):
            # InvShiftRows + InvSubBytes fused.
            s = bytes(
                _INV_SBOX[state[(i - 4 * (i % 4)) % 16]] for i in range(16)
            )
            # AddRoundKey then InvMixColumns.
            rk = round_keys[rnd]
            t = bytes(a ^ b for a, b in zip(s, rk))
            for c in range(4):
                a0, a1, a2, a3 = t[4 * c: 4 * c + 4]
                state[4 * c + 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
                state[4 * c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
                state[4 * c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
                state[4 * c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
        rk = round_keys[0]
        return bytes(
            _INV_SBOX[state[(i - 4 * (i % 4)) % 16]] ^ rk[i] for i in range(16)
        )
