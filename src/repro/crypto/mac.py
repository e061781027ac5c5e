"""HMAC (RFC 2104) over SHA-256, routed through the active backend.

Only HMAC-SHA256 is provided because it is the only MAC the protocol
stack needs.  Verified against the RFC 4231 test vectors (under both
backends — see ``tests/crypto/vectors/``).

:class:`HMACSHA256` is the from-scratch incremental implementation the
``reference`` backend binds; the module-level helpers dispatch through
:func:`repro.crypto.provider.get_provider`, so every consumer —
attestations, ratchets, the DRBG — transparently follows the selected
backend while producing identical bytes.
"""

from __future__ import annotations

from repro.crypto.provider import get_provider
from repro.crypto.sha256 import SHA256
from repro.util.bytesops import constant_time_eq

_BLOCK_SIZE = 64
_IPAD = int.from_bytes(bytes([0x36] * _BLOCK_SIZE), "big")
_OPAD = int.from_bytes(bytes([0x5C] * _BLOCK_SIZE), "big")


class HMACSHA256:
    """Incremental HMAC-SHA256 (the pure-Python reference).

    Both keyed states (after ``K ⊕ ipad`` and ``K ⊕ opad``) are kept, so
    :meth:`copy` carries the whole key schedule and a digest finishes
    with one outer compression."""

    __slots__ = ("_inner", "_outer")

    digest_size = 32

    def __init__(self, key: bytes, data: bytes = b"") -> None:
        if len(key) > _BLOCK_SIZE:
            key = SHA256(key).digest()
        k = int.from_bytes(key.ljust(_BLOCK_SIZE, b"\x00"), "big")
        self._inner = SHA256((k ^ _IPAD).to_bytes(_BLOCK_SIZE, "big"))
        self._outer = SHA256((k ^ _OPAD).to_bytes(_BLOCK_SIZE, "big"))
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._inner.update(data)

    def copy(self) -> "HMACSHA256":
        clone = HMACSHA256.__new__(HMACSHA256)
        clone._inner = self._inner.copy()
        clone._outer = self._outer  # only ever copied, never updated
        return clone

    def digest(self) -> bytes:
        outer = self._outer.copy()
        outer.update(self._inner.digest())
        return outer.digest()


def hmac_sha256(key: bytes, data: bytes, *, reuse: bool = False) -> bytes:
    """One-shot HMAC-SHA256 of ``data`` under ``key`` (active backend);
    ``reuse=True`` declares ``key`` long-lived, as ``seal`` does."""
    return get_provider().hmac_sha256(key, data, reuse=reuse)


def verify_hmac_sha256(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time verification of an HMAC-SHA256 tag."""
    return constant_time_eq(get_provider().hmac_sha256(key, data), tag)
