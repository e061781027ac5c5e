"""SHA-256 against FIPS 180-4 / NIST CAVP vectors and stdlib cross-check."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import SHA256, sha256

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
    assert sha256(message).hex() == expected


def test_matches_stdlib_across_lengths():
    # Cross-check against hashlib for every length near block boundaries.
    for n in list(range(0, 130)) + [255, 256, 257, 1000]:
        data = bytes((i * 7 + 3) % 256 for i in range(n))
        assert sha256(data) == hashlib.sha256(data).digest(), n


def test_incremental_equals_oneshot():
    data = bytes(range(256)) * 3
    h = SHA256()
    for i in range(0, len(data), 17):  # deliberately odd chunking
        h.update(data[i:i + 17])
    assert h.digest() == sha256(data)


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
    assert sha256(message) == expected


def test_digest_does_not_consume_state():
    h = SHA256(b"hello")
    first = h.digest()
    assert h.digest() == first
    h.update(b" world")
    assert h.digest() == sha256(b"hello world")


def test_copy_is_independent():
    h = SHA256(b"base")
    clone = h.copy()
    clone.update(b"-more")
    assert h.digest() == sha256(b"base")
    assert clone.digest() == sha256(b"base-more")


def test_hexdigest():
    assert SHA256(b"abc").hexdigest() == KNOWN_VECTORS[1][1]


def test_rejects_str():
    with pytest.raises(TypeError):
        SHA256().update("not bytes")  # type: ignore[arg-type]


def test_accepts_bytearray_and_memoryview():
    assert sha256(b"xyz") == SHA256(bytearray(b"xyz")).digest()
    h = SHA256()
    h.update(memoryview(b"xyz"))
    assert h.digest() == sha256(b"xyz")
