"""Property-based tests for the crypto substrate (hypothesis)."""

import hashlib
import hmac as std_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.aes import AES
from repro.crypto.keys import SessionKey
from repro.crypto.mac import hmac_sha256
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_transform
from repro.crypto.rng import DeterministicRandom
from repro.crypto.sha256 import SHA256
from repro.util.bytesops import pkcs7_pad, pkcs7_unpad

payloads = st.binary(min_size=0, max_size=512)
keys16 = st.binary(min_size=16, max_size=16)
keys32 = st.binary(min_size=32, max_size=32)


@given(payloads)
def test_sha256_matches_stdlib(data):
    assert SHA256(data).digest() == hashlib.sha256(data).digest()


@given(st.binary(min_size=0, max_size=200), payloads)
def test_hmac_matches_stdlib(key, data):
    assert hmac_sha256(key, data) == std_hmac.new(
        key, data, hashlib.sha256
    ).digest()


@given(keys16, st.binary(min_size=16, max_size=16))
def test_aes_block_roundtrip(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(keys16, st.binary(min_size=16, max_size=16), payloads)
def test_cbc_roundtrip(key, iv, data):
    cipher = AES(key)
    assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data


@given(keys16, st.binary(min_size=8, max_size=8), payloads)
def test_ctr_involution(key, nonce, data):
    cipher = AES(key)
    once = ctr_transform(cipher, nonce, data)
    assert len(once) == len(data)
    assert ctr_transform(cipher, nonce, once) == data


@given(payloads, st.integers(min_value=1, max_value=255))
def test_pkcs7_roundtrip(data, block_size):
    assert pkcs7_unpad(pkcs7_pad(data, block_size), block_size) == data


@given(keys32, payloads, st.binary(max_size=64), st.integers(0, 2**32))
@settings(max_examples=50)
def test_aead_roundtrip(material, plaintext, ad, seed):
    key = SessionKey(material)
    sealer = AuthenticatedCipher(key, DeterministicRandom(seed))
    box = sealer.seal(plaintext, ad)
    assert AuthenticatedCipher(key).open(box, ad) == plaintext


@given(keys32, payloads, st.integers(0, 255), st.integers(0, 2**16))
@settings(max_examples=50)
def test_aead_bitflip_always_detected(material, plaintext, byte_index, seed):
    from repro.exceptions import IntegrityError

    import pytest

    key = SessionKey(material)
    box = AuthenticatedCipher(key, DeterministicRandom(seed)).seal(plaintext)
    wire = bytearray(box.to_bytes())
    wire[byte_index % len(wire)] ^= 0x01
    tampered = SealedBox.from_bytes(bytes(wire))
    with pytest.raises(IntegrityError):
        AuthenticatedCipher(key).open(tampered)


@given(st.integers(0, 2**32), st.integers(1, 64))
def test_deterministic_random_replayable(seed, n):
    a = DeterministicRandom(seed)
    b = DeterministicRandom(seed)
    assert a.random_bytes(n) == b.random_bytes(n)
