"""Property-based tests for the pluggable crypto backends (hypothesis).

Each property runs under every registered backend (parameterized, not
fixture-scoped, so hypothesis example generation stays independent per
backend).  These are the invariants the provider contract promises to
*every* implementation:

* seal then open is the identity, for any plaintext/AD pair;
* any single-bit corruption of a sealed frame is rejected with the
  typed :class:`~repro.exceptions.IntegrityError` — never a silent
  wrong answer, never an untyped crash;
* HMAC-SHA256 — one-shot, under a kept key, and a chain step's
  batch — is stdlib ``hmac``'s, for keys of any length;
* HKDF honors its output-length contract exactly, including the RFC
  5869 boundary (255 blocks) and the degenerate zero-length request;
* CBC decryption of corrupted ciphertext either returns *different*
  bytes or raises the typed :class:`~repro.exceptions.PaddingError`;
  CTR corruption maps bit-for-bit onto the plaintext (the documented
  malleability the MAC exists to catch).
"""

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.provider import available_backends, using_provider
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import IntegrityError, PaddingError

BACKENDS = sorted(available_backends())

pytestmark = pytest.mark.parametrize("backend_name", BACKENDS)

payloads = st.binary(min_size=0, max_size=300)
ads = st.binary(min_size=0, max_size=40)
keys16 = st.binary(min_size=16, max_size=16)
keys32 = st.binary(min_size=32, max_size=32)
nonces8 = st.binary(min_size=8, max_size=8)
ivs16 = st.binary(min_size=16, max_size=16)


@given(keys16, keys32, nonces8, payloads, ads)
def test_seal_open_roundtrip(backend_name, enc_key, mac_key, nonce,
                             plaintext, ad):
    with using_provider(backend_name) as provider:
        ct, tag = provider.seal(enc_key, mac_key, nonce, plaintext, ad)
        assert provider.open(enc_key, mac_key, nonce, ct, tag, ad) == \
            plaintext


@given(keys16, keys32, nonces8, st.binary(min_size=1, max_size=120),
       st.data())
def test_any_bit_flip_is_rejected_typed(backend_name, enc_key, mac_key,
                                        nonce, plaintext, data):
    """Flip one bit anywhere in (nonce, ciphertext, tag): IntegrityError."""
    with using_provider(backend_name) as provider:
        ct, tag = provider.seal(enc_key, mac_key, nonce, plaintext)
        frame = bytearray(nonce + ct + tag)
        bit = data.draw(st.integers(0, len(frame) * 8 - 1))
        frame[bit // 8] ^= 1 << (bit % 8)
        bad_nonce = bytes(frame[:8])
        bad_ct = bytes(frame[8:8 + len(ct)])
        bad_tag = bytes(frame[8 + len(ct):])
        with pytest.raises(IntegrityError):
            provider.open(enc_key, mac_key, bad_nonce, bad_ct, bad_tag)


#: HMAC keys: RFC 2104's boundaries (a 64-byte block, hashed above it)
#: named, since an unbiased draw of up to 200 bytes seldom lands on them.
hmac_keys = (st.sampled_from((0, 1, 32, 63, 64, 65, 200))
             | st.integers(0, 200)).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


@given(hmac_keys, st.binary(min_size=0, max_size=300),
       st.lists(st.binary(min_size=0, max_size=130), max_size=4))
@settings(max_examples=50, deadline=None)  # pure-Python HMAC at 200 bytes
def test_hmac_entry_points_match_stdlib(backend_name, key, data, labels):
    """The one-shot, a kept key (cold, then warm) and a chain step's batch
    all compute stdlib ``hmac``'s HMAC-SHA256, for any key length."""
    def oracle(message):
        return std_hmac.new(key, message, hashlib.sha256).digest()

    with using_provider(backend_name) as provider:
        assert provider.hmac_sha256(key, data) == oracle(data)
        for _ in range(2):
            assert provider.hmac_sha256(key, data, reuse=True) == oracle(data)
        assert provider.hmac_sha256_many(key, labels) == \
            [oracle(label) for label in labels]


@given(st.binary(min_size=0, max_size=60), st.binary(min_size=1, max_size=60),
       st.binary(min_size=0, max_size=30),
       st.integers(min_value=0, max_value=255 * 32))
@settings(max_examples=30, deadline=None)  # pure-Python HKDF at 8KiB is slow
def test_hkdf_expand_length_contract(backend_name, salt, ikm, info, length):
    with using_provider(backend_name) as provider:
        prk = provider.hkdf_extract(salt, ikm)
        okm = provider.hkdf_expand(prk, info, length)
        assert len(okm) == length
        # Expand is a stream: shorter requests are prefixes of longer.
        if length:
            assert provider.hkdf_expand(prk, info, length - 1) == \
                okm[:-1]


def test_hkdf_expand_rejects_out_of_range_typed(backend_name):
    with using_provider(backend_name) as provider:
        prk = provider.hkdf_extract(b"salt", b"ikm")
        with pytest.raises(ValueError):
            provider.hkdf_expand(prk, b"", -1)
        with pytest.raises(ValueError):
            provider.hkdf_expand(prk, b"", 255 * 32 + 1)
        with pytest.raises((TypeError, ValueError)):
            provider.hkdf_expand(prk, b"", True)


@given(keys16, ivs16, st.binary(min_size=0, max_size=100), st.data())
@settings(max_examples=50)
def test_cbc_corruption_never_silently_correct(backend_name, key, iv,
                                               plaintext, data):
    with using_provider(backend_name) as provider:
        ct = bytearray(provider.cbc_encrypt(key, iv, plaintext))
        bit = data.draw(st.integers(0, len(ct) * 8 - 1))
        ct[bit // 8] ^= 1 << (bit % 8)
        try:
            recovered = provider.cbc_decrypt(key, iv, bytes(ct))
        except PaddingError:
            return  # the typed rejection path
        assert recovered != plaintext


@given(keys16, nonces8, st.binary(min_size=1, max_size=100), st.data())
@settings(max_examples=50)
def test_ctr_corruption_is_bit_transparent(backend_name, key, nonce,
                                           plaintext, data):
    """CTR is malleable by construction: a ciphertext bit flip flips
    exactly that plaintext bit — the reason every protocol frame MACs
    the ciphertext.  Both backends must exhibit the identical algebra."""
    with using_provider(backend_name) as provider:
        ct = bytearray(provider.ctr_transform(key, nonce, plaintext))
        bit = data.draw(st.integers(0, len(ct) * 8 - 1))
        ct[bit // 8] ^= 1 << (bit % 8)
        recovered = provider.ctr_transform(key, nonce, bytes(ct))
        expected = bytearray(plaintext)
        expected[bit // 8] ^= 1 << (bit % 8)
        assert recovered == bytes(expected)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.sampled_from(BACKENDS), min_size=1, max_size=4))
@settings(max_examples=25)
def test_seeded_rng_stream_is_backend_invariant(backend_name, seed, order):
    """The deterministic RNG routes its HMAC through the provider, so a
    seeded stream must not depend on which backend is active — else
    'replay under the other backend' would silently diverge."""
    streams = []
    for name in [backend_name, *order]:
        with using_provider(name):
            rng = DeterministicRandom(seed)
            streams.append(rng.random_bytes(48))
    assert len(set(streams)) == 1
