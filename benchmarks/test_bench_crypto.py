"""PERF-A: crypto substrate microbenchmarks.

The paper relies on "software-implemented cryptography"; these measure
our from-scratch substrate so protocol-level numbers upstream can be
normalized by primitive cost (pure Python: the absolute values are
orders of magnitude below a C implementation — the *ratios* matter).
"""

import pytest

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.aes import AES
from repro.crypto.keys import SessionKey, derive_long_term_key
from repro.crypto.kdf import pbkdf2_hmac_sha256
from repro.crypto.mac import hmac_sha256
from repro.crypto.rng import DeterministicRandom
from repro.crypto.sha256 import SHA256


def test_sha256_1kib(benchmark):
    data = bytes(1024)
    digest = benchmark(lambda: SHA256(data).digest())
    assert len(digest) == 32


def test_hmac_sha256_1kib(benchmark):
    data = bytes(1024)
    tag = benchmark(lambda: hmac_sha256(b"key", data))
    assert len(tag) == 32


def test_aes_block(benchmark):
    cipher = AES(bytes(16))
    block = bytes(16)
    out = benchmark(lambda: cipher.encrypt_block(block))
    assert len(out) == 16


@pytest.mark.parametrize("size", [64, 1024], ids=["64B", "1KiB"])
def test_aead_seal(benchmark, size):
    cipher = AuthenticatedCipher(SessionKey(bytes(32)), DeterministicRandom(1))
    payload = bytes(size)
    box = benchmark(lambda: cipher.seal(payload))
    assert len(box.ciphertext) == size


@pytest.mark.parametrize("size", [64, 1024], ids=["64B", "1KiB"])
def test_aead_open(benchmark, size):
    key = SessionKey(bytes(32))
    box = AuthenticatedCipher(key, DeterministicRandom(1)).seal(bytes(size))
    opener = AuthenticatedCipher(key)
    out = benchmark(lambda: opener.open(box))
    assert len(out) == size


def test_aead_reject_forgery(benchmark):
    """Rejection cost (constant-time compare path) — the defender's hot
    loop under attack."""
    from repro.crypto.aead import SealedBox
    from repro.exceptions import IntegrityError

    key = SessionKey(bytes(32))
    box = AuthenticatedCipher(key, DeterministicRandom(1)).seal(bytes(64))
    forged = SealedBox(box.nonce, box.ciphertext,
                       bytes(32))  # wrong tag
    opener = AuthenticatedCipher(key)

    def attempt():
        try:
            opener.open(forged)
        except IntegrityError:
            return True
        return False

    assert benchmark(attempt)


def test_password_derivation(benchmark):
    counter = [0]

    def derive():
        counter[0] += 1
        return pbkdf2_hmac_sha256(
            b"password", str(counter[0]).encode(), 32, 32
        )

    out = benchmark(derive)
    assert len(out) == 32
