"""CBC and CTR modes against NIST SP 800-38A vectors."""

import struct

import pytest

from repro.crypto.aes import AES
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    ctr_transform_full_iv,
)
from repro.crypto.provider import FastProvider
from repro.exceptions import PaddingError

KEY128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


class TestCBC:
    def test_sp800_38a_cbc_aes128(self):
        # CBC-AES128.Encrypt, F.2.1 — our CBC adds PKCS#7, so compare
        # the first four blocks only.
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex(
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7"
        )
        ct = cbc_encrypt(AES(KEY128), iv, SP_PT)
        assert ct[:64] == expected

    def test_roundtrip_various_lengths(self):
        cipher = AES(KEY128)
        iv = bytes(range(16))
        for n in (0, 1, 15, 16, 17, 31, 32, 100):
            data = bytes((i * 3) % 256 for i in range(n))
            assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data

    def test_wrong_iv_garbles(self):
        cipher = AES(KEY128)
        ct = cbc_encrypt(cipher, bytes(16), b"secret message!!")
        # Wrong IV garbles the first block but the rest of the
        # decryption may still unpad; it must not equal the plaintext.
        try:
            out = cbc_decrypt(cipher, b"\x01" * 16, ct)
            assert out != b"secret message!!"
        except PaddingError:
            pass

    def test_iv_validation(self):
        with pytest.raises(ValueError):
            cbc_encrypt(AES(KEY128), bytes(8), b"data")
        with pytest.raises(ValueError):
            cbc_decrypt(AES(KEY128), bytes(8), bytes(16))

    def test_unaligned_ciphertext_rejected(self):
        with pytest.raises(ValueError):
            cbc_decrypt(AES(KEY128), bytes(16), bytes(17))

    def test_tampered_padding_detected(self):
        cipher = AES(KEY128)
        ct = bytearray(cbc_encrypt(cipher, bytes(16), b"hi"))
        ct[-1] ^= 0xFF
        with pytest.raises(PaddingError):
            cbc_decrypt(cipher, bytes(16), bytes(ct))


class TestCTR:
    def test_sp800_38a_ctr_aes128(self):
        # CTR-AES128.Encrypt, F.5.1.
        iv = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        expected = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        )
        assert ctr_transform_full_iv(AES(KEY128), iv, SP_PT) == expected

    def test_ctr_full_iv_roundtrip(self):
        cipher = AES(KEY128)
        iv = bytes(range(16))
        data = b"x" * 100
        assert ctr_transform_full_iv(
            cipher, iv, ctr_transform_full_iv(cipher, iv, data)
        ) == data

    def test_ctr_counter_wraps(self):
        cipher = AES(KEY128)
        iv = b"\xff" * 16  # counter at max: next block wraps to zero
        data = bytes(32)
        out = ctr_transform_full_iv(cipher, iv, data)
        assert out[16:] == cipher.encrypt_block(bytes(16))

    def test_ctr_nonce_roundtrip(self):
        cipher = AES(KEY128)
        for n in (0, 1, 15, 16, 17, 100):
            data = bytes((i * 5) % 256 for i in range(n))
            assert ctr_transform(
                cipher, b"nonce123", ctr_transform(cipher, b"nonce123", data)
            ) == data

    def test_ctr_preserves_length(self):
        cipher = AES(KEY128)
        for n in (0, 1, 5, 16, 33):
            assert len(ctr_transform(cipher, b"12345678", bytes(n))) == n

    def test_ctr_nonce_length_validation(self):
        with pytest.raises(ValueError):
            ctr_transform(AES(KEY128), b"short", b"data")

    def test_different_nonces_differ(self):
        cipher = AES(KEY128)
        data = bytes(32)
        assert ctr_transform(cipher, b"nonce--1", data) != ctr_transform(
            cipher, b"nonce--2", data
        )


class TestCtrIntegerXor:
    """``ctr_transform`` XORs the message and the keystream as two
    integers; a byte-by-byte XOR and the ``fast`` backend (OpenSSL CTR
    where ``cryptography`` is installed) are its oracles."""

    LENGTHS = (0, 1, 15, 16, 17, 255, 256)
    NONCE = b"\x00\x01\x02\x03\x04\x05\x06\x07"

    @staticmethod
    def _by_bytes(cipher, nonce, data):
        n_blocks = (len(data) + 15) // 16
        stream = b"".join(
            cipher.encrypt_block(nonce + struct.pack(">Q", counter))
            for counter in range(n_blocks))
        return bytes(d ^ s for d, s in zip(data, stream))

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("lead", [0, 1, 17])
    def test_matches_byte_xor_and_fast_backend(self, n, lead):
        """``lead`` zero bytes open the message (as many as fit): an
        integer drops them, ``to_bytes(n)`` must put them back."""
        data = bytes(min(lead, n)) + bytes(
            (i * 29 + 1) % 256 for i in range(n - min(lead, n)))
        cipher = AES(KEY128)
        out = ctr_transform(cipher, self.NONCE, data)
        assert len(out) == n
        assert out == self._by_bytes(cipher, self.NONCE, data)
        assert out == FastProvider().ctr_transform(KEY128, self.NONCE, data)

    def test_ciphertext_with_leading_zero_bytes(self):
        """Plaintext equal to the keystream's head encrypts to zeros."""
        cipher = AES(KEY128)
        head = ctr_transform(cipher, self.NONCE, bytes(20))[:3]
        data = head + b"tail"
        out = ctr_transform(cipher, self.NONCE, data)
        assert out[:3] == bytes(3)
        assert out == self._by_bytes(cipher, self.NONCE, data)
        assert ctr_transform(cipher, self.NONCE, out) == data
