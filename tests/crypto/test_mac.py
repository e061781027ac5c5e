"""HMAC-SHA256 against RFC 4231 vectors and stdlib cross-check."""

import hashlib
import hmac as std_hmac

import pytest

from repro.crypto.mac import HMACSHA256, hmac_sha256, verify_hmac_sha256
from repro.crypto.provider import available_backends, using_provider

# RFC 4231 test cases 1-4, 6, 7 (case 5 truncates the output).
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


@pytest.mark.parametrize("key,msg,expected", RFC4231,
                         ids=[f"case{i+1}" for i in range(len(RFC4231))])
def test_rfc4231(key, msg, expected):
    assert hmac_sha256(key, msg).hex() == expected


def test_matches_stdlib():
    for key_len in (0, 1, 16, 63, 64, 65, 200):
        key = bytes((i * 13 + 1) % 256 for i in range(key_len))
        for msg_len in (0, 1, 55, 56, 64, 100):
            msg = bytes((i * 7) % 256 for i in range(msg_len))
            expected = std_hmac.new(key, msg, hashlib.sha256).digest()
            assert hmac_sha256(key, msg) == expected


def test_incremental():
    mac = HMACSHA256(b"key")
    mac.update(b"part one|")
    mac.update(b"part two")
    assert mac.digest() == hmac_sha256(b"key", b"part one|part two")


def test_copy_is_independent():
    mac = HMACSHA256(b"key", b"base")
    clone = mac.copy()
    clone.update(b"-more")
    assert mac.digest() == hmac_sha256(b"key", b"base")
    assert clone.digest() == hmac_sha256(b"key", b"base-more")


@pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 200])
def test_keyed_copy_matches_stdlib(key_len):
    """A keyed object copied per message — how the reference provider
    MACs under a long-lived key — carries the whole key schedule."""
    key = bytes((i * 29 + 5) % 256 for i in range(key_len))
    keyed = HMACSHA256(key)
    for msg_len in (0, 1, 55, 56, 64, 100):
        msg = bytes((i * 11) % 256 for i in range(msg_len))
        mac = keyed.copy()
        mac.update(msg)
        assert mac.digest() == std_hmac.new(key, msg, hashlib.sha256).digest()
    assert keyed.digest() == std_hmac.new(key, b"", hashlib.sha256).digest()


def test_verify_accepts_valid():
    tag = hmac_sha256(b"k", b"data")
    assert verify_hmac_sha256(b"k", b"data", tag)


def test_verify_rejects_bad_tag():
    tag = bytearray(hmac_sha256(b"k", b"data"))
    tag[0] ^= 1
    assert not verify_hmac_sha256(b"k", b"data", bytes(tag))


def test_verify_rejects_wrong_key():
    tag = hmac_sha256(b"k", b"data")
    assert not verify_hmac_sha256(b"other", b"data", tag)


def test_different_keys_different_tags():
    assert hmac_sha256(b"k1", b"m") != hmac_sha256(b"k2", b"m")


class TestProviderKernels:
    """Every backend's HMAC entry points against stdlib ``hmac`` as the
    oracle, across the key and data lengths where RFC 2104's padding and
    SHA-256's block boundaries change shape: the one-shot, a long-lived
    key (``reuse=True``) cold and warm, and a chain step's batch."""

    KEY_LENS = (0, 1, 32, 63, 64, 65, 200)
    DATA_LENS = (0, 1, 55, 56, 63, 64, 65, 119, 120, 300)

    @pytest.fixture(params=sorted(available_backends()))
    def provider(self, request):
        with using_provider(request.param) as provider:  # a fresh instance
            yield provider

    @staticmethod
    def oracle(key, data):
        return std_hmac.new(key, data, hashlib.sha256).digest()

    @pytest.mark.parametrize("key_len", KEY_LENS)
    def test_one_shot_and_kept_key(self, provider, key_len):
        key = bytes((i * 31 + 7) % 256 for i in range(key_len))
        cases = [bytes((i * 17 + key_len) % 256 for i in range(n))
                 for n in self.DATA_LENS]
        for data in cases:
            assert provider.hmac_sha256(key, data) == self.oracle(key, data)
        assert not provider.caches_key(key)  # a one-shot keeps nothing
        for _ in range(2):  # cold on the first call, warm on every other
            for data in cases:
                assert provider.hmac_sha256(key, data, reuse=True) == \
                    self.oracle(key, data)
                assert provider.caches_key(key)

    @pytest.mark.parametrize("key_len", KEY_LENS)
    def test_chain_step_matches_and_keeps_nothing(self, provider, key_len):
        key = bytes((i * 53 + 3) % 256 for i in range(key_len))
        messages = [bytes((i + n) % 256 for i in range(n))
                    for n in self.DATA_LENS]
        assert provider.hmac_sha256_many(key, messages) == \
            [self.oracle(key, message) for message in messages]
        assert provider.hmac_sha256_many(key, []) == []
        assert not provider.caches_key(key)
