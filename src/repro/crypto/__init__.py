"""Software crypto substrate for Enclaves.

The paper relies on "standard cryptographic techniques based on
symmetric-key encryption and message-authentication codes" implemented in
software.  This package provides those primitives from scratch:

* :mod:`repro.crypto.sha256` — SHA-256 (FIPS 180-4)
* :mod:`repro.crypto.mac` — HMAC (RFC 2104) over SHA-256
* :mod:`repro.crypto.aes` — AES-128/192/256 block cipher (FIPS 197)
* :mod:`repro.crypto.modes` — CBC and CTR modes with PKCS#7
* :mod:`repro.crypto.kdf` — PBKDF2-HMAC-SHA256 for password -> P_a
* :mod:`repro.crypto.aead` — encrypt-then-MAC authenticated encryption
* :mod:`repro.crypto.keys` — typed keys (long-term, session, group)
* :mod:`repro.crypto.rng` — nonce/key factories (CSPRNG and seeded)

Everything is validated against published test vectors in the test suite.
The protocol layers only consume :class:`~repro.crypto.aead.AuthenticatedCipher`
and the typed keys, so the concrete cipher can be swapped without touching
protocol code — and :mod:`repro.crypto.provider` does exactly that: the
from-scratch code is the ``reference`` backend, a stdlib
``hashlib``/``hmac`` (plus optional ``cryptography`` AES) ``fast``
backend is selected with :func:`set_provider` or the
``REPRO_CRYPTO_BACKEND`` environment variable, and a differential
conformance suite proves the two byte-identical on every primitive and
on seeded end-to-end transcripts.
"""

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.keys import (
    GroupKey,
    KeyMaterial,
    LongTermKey,
    SessionKey,
    derive_long_term_key,
)
from repro.crypto.mac import hmac_sha256
from repro.crypto.provider import (
    CryptoProvider,
    available_backends,
    get_provider,
    set_provider,
    using_provider,
)
from repro.crypto.rng import DeterministicRandom, Nonce, SystemRandom

__all__ = [
    "AuthenticatedCipher",
    "SealedBox",
    "KeyMaterial",
    "LongTermKey",
    "SessionKey",
    "GroupKey",
    "derive_long_term_key",
    "hmac_sha256",
    "Nonce",
    "SystemRandom",
    "DeterministicRandom",
    "CryptoProvider",
    "available_backends",
    "get_provider",
    "set_provider",
    "using_provider",
]
