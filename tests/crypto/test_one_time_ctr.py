"""The fast backend's one-time CTR context: built by the OpenSSL
constructor that ``Cipher(...).encryptor()`` wraps, never by a
``Cipher`` object, with the same keystream either way.

``FastProvider`` binds that constructor at construction only if one
block of its keystream equals the public call's (``ctr_direct``); where
it is missing or disagrees, the public call builds every context.
"""

import types

import pytest

from repro.crypto.provider import FastProvider
from repro.exceptions import KeyError_

cryptography = pytest.importorskip("cryptography")
from cryptography.hazmat.bindings import _rust  # noqa: E402
from cryptography.hazmat.primitives.ciphers import (  # noqa: E402
    Cipher,
    algorithms,
    modes,
)

KEY_SIZES = (16, 24, 32)
LENGTHS = (0, 1, 15, 16, 17, 300)
NONCE = bytes(range(8))


def public_keystream(key: bytes, data: bytes) -> bytes:
    """What the public ``cryptography`` API makes of ``data``."""
    context = Cipher(algorithms.AES(key), modes.CTR(NONCE + bytes(8))
                     ).encryptor()
    return context.update(data) + context.finalize()


def frames():
    for size in KEY_SIZES:
        key = bytes((i * 7 + size) % 256 for i in range(size))
        for length in LENGTHS:
            yield key, bytes((i * 13) % 256 for i in range(length))


@pytest.fixture
def cipher_inits(monkeypatch):
    """How many ``Cipher`` objects get built from here on."""
    built = []
    real_init = Cipher.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Cipher, "__init__", counting_init)
    return built


def without_binding(monkeypatch, ciphers):
    """A FastProvider built while ``_rust.openssl`` reads as the
    stand-in ``ciphers`` namespace.  ``Cipher.encryptor()`` holds its
    own reference to the real module, so the public path still works."""
    with monkeypatch.context() as patch:
        patch.setattr(_rust, "openssl", types.SimpleNamespace(
            ciphers=ciphers))
        return FastProvider()


class TestOneTimeContexts:
    def test_one_time_seal_and_open_build_no_cipher_object(self,
                                                          cipher_inits):
        provider = FastProvider()  # its known-answer check builds one
        assert provider.ctr_direct is True
        cipher_inits.clear()
        enc_key, mac_key = bytes(16), bytes(32)
        ct, tag = provider.seal(enc_key, mac_key, NONCE, b"payload", b"ad")
        assert provider.open(enc_key, mac_key, NONCE, ct, tag,
                             b"ad") == b"payload"
        assert cipher_inits == []
        assert not provider.caches_key(enc_key)

    def test_same_keystream_as_the_public_call(self):
        provider = FastProvider()
        for key, data in frames():
            assert provider.ctr_transform(key, NONCE, data) == \
                public_keystream(key, data), (len(key), len(data))

    def test_wrong_size_key_is_still_typed(self):
        with pytest.raises(KeyError_):
            FastProvider().ctr_transform(bytes(17), NONCE, b"x")

    def test_kept_contexts_come_from_the_same_constructor(self,
                                                         cipher_inits):
        provider = FastProvider()
        cipher_inits.clear()
        enc_key, mac_key = bytes(range(16)), bytes(32)
        for nonce in (NONCE, bytes(8)):
            ct, tag = provider.seal(enc_key, mac_key, nonce, b"kept", b"",
                                    reuse=True)
            assert ct == provider.ctr_transform(enc_key, nonce, b"kept")
        assert cipher_inits == []
        assert provider.caches_key(enc_key)


class TestFallback:
    """Where the constructor is missing, or its keystream disagrees with
    the public call's, every context comes from ``Cipher(...)``."""

    @pytest.mark.parametrize("ciphers", [
        types.SimpleNamespace(),  # no constructor at all
        types.SimpleNamespace(  # a constructor whose keystream differs
            create_encryption_ctx=lambda algorithm, mode: Cipher(
                algorithms.AES(bytes(16)), modes.CTR(b"\xff" * 16)
            ).encryptor()),
    ], ids=["missing", "disagrees"])
    def test_public_call_builds_every_context(self, monkeypatch, ciphers):
        fallback = without_binding(monkeypatch, ciphers)
        assert fallback.ctr_direct is False
        assert fallback.ctr_reuse is FastProvider().ctr_reuse
        direct = FastProvider()
        for key, data in frames():
            assert fallback.ctr_transform(key, NONCE, data) == \
                direct.ctr_transform(key, NONCE, data) == \
                public_keystream(key, data)
            mac_key = key[:8] * 4
            sealed = fallback.seal(key, mac_key, NONCE, data, b"ad")
            assert sealed == direct.seal(key, mac_key, NONCE, data, b"ad")
            assert fallback.open(key, mac_key, NONCE, *sealed,
                                 b"ad") == data

    def test_fallback_builds_one_cipher_object_per_one_time_key(
            self, monkeypatch, cipher_inits):
        fallback = without_binding(monkeypatch, types.SimpleNamespace())
        cipher_inits.clear()
        fallback.ctr_transform(bytes(16), NONCE, b"x")
        assert len(cipher_inits) == 1
