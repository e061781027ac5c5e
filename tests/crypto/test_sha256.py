"""SHA-256 against FIPS 180-4 / NIST CAVP vectors and stdlib cross-check."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import _H0, _K, SHA256, _compress

# (message, expected digest) — NIST examples and well-known vectors.
KNOWN_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"The quick brown fox jumps over the lazy dog",
     "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"),
    (b"a" * 1_000_000,
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS,
                         ids=[f"len{len(m)}" for m, _ in KNOWN_VECTORS])
def test_known_vectors(message, expected):
    assert SHA256(message).digest().hex() == expected


def test_matches_stdlib_across_lengths():
    # Cross-check against hashlib for every length near block boundaries.
    for n in list(range(0, 130)) + [255, 256, 257, 1000]:
        data = bytes((i * 7 + 3) % 256 for i in range(n))
        assert SHA256(data).digest() == hashlib.sha256(data).digest(), n


def test_incremental_equals_oneshot():
    data = bytes(range(256)) * 3
    h = SHA256()
    for i in range(0, len(data), 17):  # deliberately odd chunking
        h.update(data[i:i + 17])
    assert h.digest() == SHA256(data).digest()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_incremental_matches_stdlib_on_random_chunking(data):
    """0–300 bytes cover every padding case (tail of 0–55 bytes: one
    final block; 56–63: two) across five block boundaries; the chunk
    cuts land anywhere, including on them."""
    message = data.draw(st.binary(max_size=300), label="message")
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(message)), max_size=8), label="cuts"))
    h = SHA256()
    for start, end in zip([0] + cuts, cuts + [len(message)]):
        h.update(message[start:end])
    expected = hashlib.sha256(message).digest()
    assert h.digest() == expected
    assert h.copy().digest() == expected
    assert SHA256(message).digest() == expected


def test_digest_does_not_consume_state():
    h = SHA256(b"hello")
    first = h.digest()
    assert h.digest() == first
    h.update(b" world")
    assert h.digest() == SHA256(b"hello world").digest()


def test_copy_is_independent():
    h = SHA256(b"base")
    clone = h.copy()
    clone.update(b"-more")
    assert h.digest() == SHA256(b"base").digest()
    assert clone.digest() == SHA256(b"base-more").digest()


def test_rejects_str():
    with pytest.raises(TypeError):
        SHA256().update("not bytes")  # type: ignore[arg-type]


def test_accepts_bytearray_and_memoryview():
    assert SHA256(b"xyz").digest() == SHA256(bytearray(b"xyz")).digest()
    h = SHA256()
    h.update(memoryview(b"xyz"))
    assert h.digest() == SHA256(b"xyz").digest()


_MASK = 0xFFFFFFFF


def _compress_by_rounds(state, block):
    """FIPS 180-4 §6.2.2 one round at a time: each rotation is its own
    ``x >> n | x << 32 - n`` and the eight working variables shift
    through a tuple every round.  The oracle for the kernel, which
    shares one doubled word among a Σ's three rotations and writes
    eight rounds out so that no round shuffles the state."""
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


@given(st.tuples(*[st.integers(0, _MASK)] * 8),
       st.binary(min_size=64, max_size=64))
@settings(max_examples=300, deadline=None)
def test_compress_matches_round_by_round_oracle(state, block):
    """Any 8-word state, not only the initial hash value: a chained
    block starts from whatever the previous one left."""
    assert _compress(state, block) == _compress_by_rounds(state, block)


def test_compress_on_extreme_words():
    for state, block in ((_H0, bytes(64)), ((_MASK,) * 8, b"\xff" * 64),
                         ((0,) * 8, bytes(64)), ((0,) * 8, b"\xff" * 64)):
        assert _compress(state, block) == _compress_by_rounds(state, block)
