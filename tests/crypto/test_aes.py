"""AES against FIPS 197 appendix vectors and NIST SP 800-38A blocks."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import _RCON, _SBOX, AES, BLOCK_SIZE
from repro.exceptions import KeyError_

FIPS197_PT = bytes.fromhex("00112233445566778899aabbccddeeff")

FIPS197 = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]

# SP 800-38A ECB single-block vectors (first block of each key size).
SP800_38A = [
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
     "6bc1bee22e409f96e93d7e117393172a", "bd334f1d6e45f25ff712a214571fa5cc"),
    ("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "6bc1bee22e409f96e93d7e117393172a", "f3eed1bdb5d2a03c064b5a7e3db181f8"),
]


@pytest.mark.parametrize("key_hex,ct_hex", FIPS197,
                         ids=["aes128", "aes192", "aes256"])
def test_fips197_encrypt(key_hex, ct_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(FIPS197_PT).hex() == ct_hex


@pytest.mark.parametrize("key_hex,ct_hex", FIPS197,
                         ids=["aes128", "aes192", "aes256"])
def test_fips197_decrypt(key_hex, ct_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(ct_hex)) == FIPS197_PT


@pytest.mark.parametrize("key_hex,pt_hex,ct_hex", SP800_38A,
                         ids=["aes128", "aes192", "aes256"])
def test_sp800_38a_blocks(key_hex, pt_hex, ct_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(bytes.fromhex(pt_hex)).hex() == ct_hex


def test_roundtrip_many_blocks():
    cipher = AES(b"0123456789abcdef")
    for i in range(50):
        block = bytes((i * 11 + j) % 256 for j in range(16))
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_all_zero_key_and_block():
    cipher = AES(bytes(16))
    ct = cipher.encrypt_block(bytes(16))
    # Known AES-128(0,0) value.
    assert ct.hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"


def test_key_size_validation():
    for bad in (0, 15, 17, 31, 33, 64):
        with pytest.raises(KeyError_):
            AES(bytes(bad))


def test_block_size_validation():
    cipher = AES(bytes(16))
    with pytest.raises(ValueError):
        cipher.encrypt_block(bytes(15))
    with pytest.raises(ValueError):
        cipher.decrypt_block(bytes(17))


def test_key_size_attribute():
    assert AES(bytes(16)).key_size == 16
    assert AES(bytes(24)).key_size == 24
    assert AES(bytes(32)).key_size == 32
    assert BLOCK_SIZE == 16


def test_different_keys_differ():
    pt = bytes(16)
    assert AES(bytes(16)).encrypt_block(pt) != AES(b"\x01" * 16).encrypt_block(pt)


def test_ttable_matches_reference_implementation():
    """The optimized T-table path and the readable byte-oriented
    reference must agree on every key size and many blocks."""
    for key_size in (16, 24, 32):
        cipher = AES(bytes((i * 31 + key_size) % 256
                           for i in range(key_size)))
        for i in range(64):
            block = bytes((i * 13 + j * 7) % 256 for j in range(16))
            assert cipher.encrypt_block(block) == \
                cipher.encrypt_block_reference(block)


def _expand_key_by_bytes(key: bytes) -> list[bytes]:
    """FIPS 197 §5.2 on 4-byte words as ``bytes``: the oracle for the
    schedule on 32-bit integers."""
    nk = len(key) // 4
    nr = {4: 10, 6: 12, 8: 14}[nk]
    words = [key[4 * i: 4 * i + 4] for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = bytes(
                _SBOX[temp[(j + 1) % 4]] ^ (_RCON[i // nk - 1] if j == 0 else 0)
                for j in range(4)
            )
        elif nk > 6 and i % nk == 4:
            temp = bytes(_SBOX[b] for b in temp)
        words.append(bytes(a ^ b for a, b in zip(words[i - nk], temp)))
    return [b"".join(words[4 * r: 4 * r + 4]) for r in range(nr + 1)]


@given(st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)))
@settings(max_examples=300, deadline=None)
def test_word_key_schedule_matches_byte_oracle(key):
    """Both round-key forms — bytes for the byte-oriented paths, words
    for the T-tables — come from the one schedule on words."""
    cipher = AES(key)
    expected = _expand_key_by_bytes(key)
    assert cipher._round_keys == expected
    assert cipher._round_key_words == [struct.unpack(">4I", rk)
                                       for rk in expected]
