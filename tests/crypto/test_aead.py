"""Tests for the encrypt-then-MAC sealed box."""

import pytest

from repro.crypto.aead import CTR_NONCE_LEN, TAG_LEN, AuthenticatedCipher, SealedBox
from repro.crypto.keys import GroupKey, SessionKey
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import CodecError, IntegrityError

KEY = SessionKey(b"\x07" * 32)


def cipher(seed=0):
    return AuthenticatedCipher(KEY, DeterministicRandom(seed))


class TestRoundtrip:
    def test_basic(self):
        box = cipher().seal(b"hello")
        assert cipher().open(box) == b"hello"

    def test_empty_plaintext(self):
        box = cipher().seal(b"")
        assert cipher().open(box) == b""

    def test_large_plaintext(self):
        data = bytes(range(256)) * 40
        assert cipher().open(cipher().seal(data)) == data

    def test_with_associated_data(self):
        box = cipher().seal(b"payload", b"header")
        assert cipher().open(box, b"header") == b"payload"

    def test_wire_roundtrip(self):
        box = cipher().seal(b"data", b"ad")
        recovered = SealedBox.from_bytes(box.to_bytes())
        assert recovered == box
        assert cipher().open(recovered, b"ad") == b"data"

    def test_len(self):
        box = cipher().seal(b"12345")
        assert len(box.to_bytes()) == CTR_NONCE_LEN + TAG_LEN + 5


class TestRejection:
    def test_wrong_key(self):
        box = cipher().seal(b"secret")
        other = AuthenticatedCipher(SessionKey(b"\x08" * 32))
        with pytest.raises(IntegrityError):
            other.open(box)

    def test_wrong_key_type_same_material(self):
        # Domain separation: GroupKey with identical bytes cannot open a
        # SessionKey box.
        box = cipher().seal(b"secret")
        other = AuthenticatedCipher(GroupKey(b"\x07" * 32))
        with pytest.raises(IntegrityError):
            other.open(box)

    def test_wrong_associated_data(self):
        box = cipher().seal(b"payload", b"header-a")
        with pytest.raises(IntegrityError):
            cipher().open(box, b"header-b")

    def test_missing_associated_data(self):
        box = cipher().seal(b"payload", b"header")
        with pytest.raises(IntegrityError):
            cipher().open(box)

    def test_tampered_ciphertext(self):
        box = cipher().seal(b"payload!")
        bad = SealedBox(box.nonce, bytes([box.ciphertext[0] ^ 1])
                        + box.ciphertext[1:], box.tag)
        with pytest.raises(IntegrityError):
            cipher().open(bad)

    def test_tampered_tag(self):
        box = cipher().seal(b"payload!")
        bad = SealedBox(box.nonce, box.ciphertext,
                        bytes([box.tag[0] ^ 1]) + box.tag[1:])
        with pytest.raises(IntegrityError):
            cipher().open(bad)

    def test_tampered_nonce(self):
        box = cipher().seal(b"payload!")
        bad = SealedBox(bytes([box.nonce[0] ^ 1]) + box.nonce[1:],
                        box.ciphertext, box.tag)
        with pytest.raises(IntegrityError):
            cipher().open(bad)

    def test_truncated_wire_form(self):
        with pytest.raises(CodecError):
            SealedBox.from_bytes(bytes(CTR_NONCE_LEN + TAG_LEN - 1))

    def test_ad_framing_unambiguous(self):
        # (ad="ab", pt-prefix c) must not collide with (ad="a", "bc"...):
        # the AD is length-prefixed inside the tag computation.
        box = cipher().seal(b"x", b"ab")
        with pytest.raises(IntegrityError):
            cipher().open(box, b"a")


class TestNonceBehaviour:
    def test_seals_use_fresh_nonces(self):
        c = cipher()
        b1, b2 = c.seal(b"same"), c.seal(b"same")
        assert b1.nonce != b2.nonce
        assert b1.ciphertext != b2.ciphertext

    def test_deterministic_rng_reproducible(self):
        assert cipher(5).seal(b"m").to_bytes() == cipher(5).seal(b"m").to_bytes()
