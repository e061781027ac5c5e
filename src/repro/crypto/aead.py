"""Authenticated encryption: encrypt-then-MAC over AES-CTR.

The paper writes ``{X}_K`` for "X encrypted under K" and assumes the
attacker "cannot break the encryption primitives" — i.e., an ideal
authenticated cipher: ciphertexts reveal nothing and cannot be created or
altered without the key.  Plain CBC (as in the original Enclaves) does
not give the second half of that; we therefore realize ``{X}_K`` as
AES-128-CTR followed by HMAC-SHA256 over (header || nonce || ciphertext),
with independent subkeys derived from K.

:class:`SealedBox` is the concrete wire representation of ``{X}_K``;
:func:`pack_box` / :func:`unpack_box` are its layout on bare bytes, for
callers that seal and frame in one step (the data plane's message keys).

All cryptographic work dispatches through the active
:class:`~repro.crypto.provider.CryptoProvider`, so switching backends
(``set_provider`` / ``REPRO_CRYPTO_BACKEND``) retargets every seal and
open in the process while producing byte-identical boxes.

An :class:`AuthenticatedCipher` lives exactly as long as the long-lived
key it wraps (``P_a``, ``K_a``, ``K_g``, a journal's storage key), so it
is the one caller that passes ``reuse=True`` to the provider: the
expanded cipher state for its encryption subkey, and on the reference
backend the keyed HMAC state for its MAC subkey, is kept between frames.
Its subkeys are derived when the first frame is sealed or opened, not at
construction — a key that is installed and rotated away unused costs no
KDF call.  One-time keys (the data plane's message keys) never go
through this class; they call ``provider.seal``/``open`` directly and
are cached nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KeyMaterial
from repro.crypto.provider import get_provider
from repro.crypto.rng import RandomSource, SystemRandom
from repro.exceptions import CodecError

TAG_LEN = 32
CTR_NONCE_LEN = 8


@dataclass(frozen=True, slots=True)
class SealedBox:
    """The wire form of ``{X}_K``: CTR nonce, ciphertext, and MAC tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return pack_box(self.nonce, self.ciphertext, self.tag)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedBox":
        return cls(*unpack_box(data))


def pack_box(nonce: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """A sealed box's wire bytes: nonce || tag || ciphertext."""
    return nonce + tag + ciphertext


def unpack_box(data: bytes) -> tuple[bytes, bytes, bytes]:
    """Inverse of :func:`pack_box`: ``(nonce, ciphertext, tag)``, the
    order :meth:`~repro.crypto.provider.CryptoProvider.open` takes them
    in; :class:`CodecError` if ``data`` is too short to hold a box."""
    if len(data) < CTR_NONCE_LEN + TAG_LEN:
        raise CodecError("sealed box too short")
    return (data[:CTR_NONCE_LEN], data[CTR_NONCE_LEN + TAG_LEN:],
            data[CTR_NONCE_LEN:CTR_NONCE_LEN + TAG_LEN])


class AuthenticatedCipher:
    """Encrypt-then-MAC AEAD bound to one :class:`KeyMaterial`.

    ``associated_data`` is authenticated but not encrypted; protocol code
    passes the message label and the (sender, recipient) pair so a valid
    ciphertext cannot be replayed under a different header.

    >>> from repro.crypto.keys import SessionKey
    >>> box = AuthenticatedCipher(SessionKey(bytes(32))).seal(b"hello")
    >>> AuthenticatedCipher(SessionKey(bytes(32))).open(box)
    b'hello'
    """

    __slots__ = ("_key", "_subkeys", "_rng")

    def __init__(self, key: KeyMaterial, rng: RandomSource | None = None) -> None:
        self._key = key
        self._subkeys: tuple[bytes, bytes] | None = None
        self._rng = rng if rng is not None else SystemRandom()

    def _keys(self) -> tuple[bytes, bytes]:
        """``(enc, mac)`` subkeys, derived on first use."""
        pair = self._subkeys
        if pair is None:
            pair = self._subkeys = self._key.subkeys()
        return pair

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> SealedBox:
        """Encrypt and authenticate ``plaintext``."""
        return self.seal_with_nonce(
            self._rng.random_bytes(CTR_NONCE_LEN), plaintext, associated_data
        )

    def seal_with_nonce(
        self, nonce: bytes, plaintext: bytes, associated_data: bytes = b""
    ) -> SealedBox:
        """Encrypt and authenticate under a caller-supplied CTR nonce.

        Only safe when equal nonces can only ever pair with equal
        plaintexts — the group-key baseline channel derives the nonce
        from everything that determines the frame, which keeps it
        reproducible without reusing keystream.
        """
        if len(nonce) != CTR_NONCE_LEN:
            raise CodecError(f"CTR nonce must be {CTR_NONCE_LEN} bytes")
        enc_key, mac_key = self._keys()
        ciphertext, tag = get_provider().seal(
            enc_key, mac_key, nonce, plaintext, associated_data, reuse=True
        )
        return SealedBox(nonce=nonce, ciphertext=ciphertext, tag=tag)

    def open(self, box: SealedBox, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt, raising :class:`IntegrityError` on forgery."""
        enc_key, mac_key = self._keys()
        return get_provider().open(
            enc_key, mac_key,
            box.nonce, box.ciphertext, box.tag, associated_data, reuse=True,
        )

    def tag(self, data: bytes, associated_data: bytes = b"") -> bytes:
        """Authenticate ``data`` without encrypting it: the MAC subkey's
        tag over the sealed-box layout with an empty nonce.

        For content that is public to everyone who could verify it (the
        data plane's ACKs).  The caller must pass associated data no
        box is ever sealed under, so a tag and a box cannot stand in
        for one another; verify with ``constant_time_eq``.
        """
        return get_provider()._tag(self._keys()[1], b"", data,
                                   associated_data, True)


__all__ = [
    "CTR_NONCE_LEN",
    "TAG_LEN",
    "AuthenticatedCipher",
    "SealedBox",
    "pack_box",
    "unpack_box",
]
