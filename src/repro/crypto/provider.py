"""Pluggable crypto backends behind one :class:`CryptoProvider` interface.

Every seal/open, handshake, and rekey in the stack bottoms out in this
package's primitives.  The from-scratch pure-Python implementations
(:mod:`~repro.crypto.sha256`, :mod:`~repro.crypto.aes`, …) remain the
**reference** backend — readable, self-contained, vector-checked — while
the **fast** backend routes the same operations through stdlib
:mod:`hashlib`/:mod:`hmac` (C speed) and, when the optional
``cryptography`` package is importable, hardware-accelerated AES.

Both backends compute *exactly the same functions*: SHA-256, HMAC-SHA256,
HKDF, PBKDF2, AES-128/192/256, CBC/CTR, and the encrypt-then-MAC sealed
box.  Byte-for-byte agreement is not an aspiration but a tested
invariant — ``tests/crypto/test_conformance.py`` runs every primitive and
seeded end-to-end transcripts under both backends and asserts identical
output, and the known-answer vectors under ``tests/crypto/vectors/`` pin
whichever backend is active to FIPS/RFC truth.

Selection:

* ``REPRO_CRYPTO_BACKEND=fast`` (environment) picks the backend at
  process start; unset or ``reference`` keeps the pure-Python substrate.
* :func:`set_provider` switches at runtime; :func:`using_provider` is the
  scoped variant tests use.

The provider also carries the **batch** entry points
(:meth:`CryptoProvider.seal_many` / :meth:`CryptoProvider.open_many`).
Nothing under ``src/`` calls them: the leader's admin fan-out is M seals
under M session keys, one :meth:`CryptoProvider.seal` each.  They stay
for the cross-backend conformance suite and the e2e tracer, which reads
both attributes off the provider it wraps.

What is cached, and for which keys.  A provider keeps expanded cipher
state — an AES key schedule, and on the fast backend an armed OpenSSL
CTR context — only for keys a caller declares **long-lived** by passing
``reuse=True`` to :meth:`CryptoProvider.seal` / :meth:`CryptoProvider.open`
(:class:`~repro.crypto.aead.AuthenticatedCipher` does: ``P_a``, ``K_a``,
``K_g``, a journal's storage key) and for the one key of a
``seal_many`` / ``open_many`` flush.  Building a CTR context for a
300-byte frame costs ~6 µs straight from the OpenSSL constructor
(:attr:`FastProvider.ctr_direct`; ~15 µs through a ``Cipher`` object)
and re-arming a kept one with a new nonce ~1 µs, which is most of what a
short frame pays for encryption.  ``seal`` / ``open`` hand the same
declaration to the MAC key, and ``hmac_sha256(..., reuse=True)`` takes
it for the DRBG seeds, HKDF-Extract's salt and the fingerprint label:
both backends keep that key's keyed HMAC state in ``_macs`` (half of a
short HMAC's four compressions; on the fast backend the two keyed
``hashlib`` states, so a tag is two C-level ``copy``/``update``/``digest``
rounds).  The default, ``reuse=False``, is the one-shot path: build,
use, drop.  The data plane's one-time message keys take it and a chain
key goes through :meth:`CryptoProvider.hmac_sha256_many` (keyed once per
step, kept nowhere), so a key that was ratcheted away is never left
reachable in a process-wide cache; nor is a PBKDF2 password.  Each
cache is a bounded LRU owned by one provider instance; switching
backends switches caches.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.exceptions import CryptoError, IntegrityError, KeyError_
from repro.util.bytesops import constant_time_eq

#: Environment variable consulted by the first :func:`get_provider` call.
ENV_VAR = "REPRO_CRYPTO_BACKEND"

#: Maximum HKDF-Expand output, per RFC 5869 (255 blocks of HashLen).
HKDF_MAX_LENGTH = 255 * 32


#: RFC 2104's key pads as ``bytes.translate`` tables (byte b -> b ^ pad).
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _wrong_key_size(key: bytes) -> KeyError_:
    return KeyError_(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")


class _KeyScheduleCache:
    """Small LRU of expanded cipher or MAC state keyed by raw key bytes.

    AES key expansion costs ~40 S-box passes per key, an OpenSSL CTR
    context ~6 µs to build and an HMAC key schedule two compressions,
    so each is kept here for long-lived keys
    (per provider, since the cached object type differs between
    backends).  Bounded so a churn of session keys cannot grow it
    without limit.
    """

    __slots__ = ("_entries", "_maxsize")

    def __init__(self, maxsize: int = 512) -> None:
        self._entries: OrderedDict[bytes, object] = OrderedDict()
        self._maxsize = maxsize

    def get(self, key: bytes, factory):
        entry = self._entries.get(key)
        if entry is None:
            entry = factory(key)
            self._entries[key] = entry
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class CryptoProvider(ABC):
    """One backend's implementation of every primitive the stack uses.

    The generic mode/KDF/AEAD logic lives here, expressed in terms of
    the abstract hash/MAC/block operations, so a backend only overrides
    what it can genuinely accelerate — and any backend that satisfies
    the primitive contracts automatically produces byte-identical
    sealed boxes, subkeys, and transcripts.
    """

    #: Registry name ("reference", "fast").
    name: str = "abstract"
    #: Which AES implementation backs the block layer ("pure" or
    #: "cryptography") — surfaced in BENCH_crypto.json so a ratio is
    #: never read without knowing what produced it.
    aes_backend: str = "pure"
    #: Whether a long-lived key's CTR context is kept and re-armed per
    #: frame (True) or rebuilt per frame (False) — recorded beside
    #: ``aes_backend`` for the same reason.
    ctr_reuse: bool = False
    #: Whether a CTR context (a one-time key's, or a kept one) comes
    #: straight from the OpenSSL constructor (True) or through a public
    #: ``Cipher(...)`` object (False) — recorded for the same reason.
    ctr_direct: bool = False

    def __init__(self) -> None:
        self._schedules = _KeyScheduleCache()
        #: Keyed HMAC states of long-lived MAC keys (``reuse=True``).
        self._macs = _KeyScheduleCache()

    def caches_key(self, key: bytes) -> bool:
        """Whether this provider holds cipher or MAC state for ``key``."""
        return key in self._schedules or key in self._macs

    # -- hashing ---------------------------------------------------------

    @abstractmethod
    def sha256(self, data: bytes) -> bytes:
        """One-shot SHA-256."""

    @abstractmethod
    def sha256_new(self, data: bytes = b""):
        """Incremental SHA-256 hasher (update/digest/copy)."""

    # -- MAC -------------------------------------------------------------

    @abstractmethod
    def hmac_sha256(self, key: bytes, data: bytes, *, reuse=False) -> bytes:
        """One-shot HMAC-SHA256.  ``reuse=True`` declares ``key``
        long-lived, as in :meth:`seal`."""

    def hmac_sha256_many(self, key: bytes, messages) -> list[bytes]:
        """HMAC-SHA256 of each of ``messages`` under one ``key`` that is
        used for exactly these and then dropped (a ratchet's chain key):
        a backend may key once for the batch, and keeps nothing after."""
        out = []
        for message in messages:
            out.append(self.hmac_sha256(key, message))
        return out

    @abstractmethod
    def hmac_new(self, key: bytes, data: bytes = b""):
        """Incremental HMAC-SHA256 (update/digest/copy)."""

    # -- key derivation --------------------------------------------------

    def hkdf_extract(self, salt: bytes, ikm: bytes) -> bytes:
        """HKDF-Extract (RFC 5869) with HMAC-SHA256."""
        if not salt:
            salt = b"\x00" * 32
        # The salt is public (RFC 5869 §3.1) and every caller passes a
        # constant, so its key schedule is declared long-lived.
        return self.hmac_sha256(salt, ikm, reuse=True)

    def hkdf_expand(self, prk: bytes, info: bytes, length: int) -> bytes:
        """HKDF-Expand (RFC 5869) with HMAC-SHA256."""
        if not isinstance(length, int) or isinstance(length, bool):
            raise ValueError("HKDF-Expand length must be an int")
        if length < 0:
            raise ValueError("HKDF-Expand length must be >= 0")
        if length > HKDF_MAX_LENGTH:
            raise ValueError("HKDF-Expand length too large")
        hmac_sha256 = self.hmac_sha256
        okm = bytearray()
        block = b""
        counter = 1
        while len(okm) < length:
            block = hmac_sha256(prk, block + info + bytes([counter]))
            okm += block
            counter += 1
        return bytes(okm[:length])

    def pbkdf2_hmac_sha256(
        self, password: bytes, salt: bytes, iterations: int, dk_len: int = 32
    ) -> bytes:
        """PBKDF2 (RFC 8018) with HMAC-SHA256 as the PRF."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if dk_len < 1:
            raise ValueError("dk_len must be >= 1")
        keyed = self.hmac_new(password)  # keyed once, kept nowhere
        derived = b""
        for block_index in range(1, (dk_len + 31) // 32 + 1):
            u, t = salt + block_index.to_bytes(4, "big"), 0
            for _ in range(iterations):
                mac = keyed.copy()
                mac.update(u)
                u = mac.digest()
                t ^= int.from_bytes(u, "big")
            derived += t.to_bytes(32, "big")
        return derived[:dk_len]

    # -- block cipher ----------------------------------------------------

    @abstractmethod
    def _make_aes(self, key: bytes):
        """Build this backend's block-cipher object for ``key``
        (something with ``encrypt_block``/``decrypt_block``)."""

    def aes(self, key: bytes):
        """Block cipher for ``key``, with the schedule cached."""
        return self._schedules.get(key, self._make_aes)

    def aes_encrypt_block(self, key: bytes, block: bytes) -> bytes:
        return self.aes(key).encrypt_block(block)

    def aes_decrypt_block(self, key: bytes, block: bytes) -> bytes:
        return self.aes(key).decrypt_block(block)

    # -- chaining modes --------------------------------------------------

    def _ctr(self, key: bytes, nonce: bytes, data: bytes, reuse: bool) -> bytes:
        """The CTR transform under every sealed box.  ``reuse`` keeps the
        expanded key for the next frame; without it nothing is cached."""
        from repro.crypto.modes import ctr_transform

        cipher = self.aes(key) if reuse else self._make_aes(key)
        return ctr_transform(cipher, nonce, data)

    def ctr_transform(self, key: bytes, nonce: bytes, data: bytes) -> bytes:
        """CTR mode over an 8-byte nonce || 64-bit big-endian counter."""
        return self._ctr(key, nonce, data, False)

    def cbc_encrypt(self, key: bytes, iv: bytes, plaintext: bytes) -> bytes:
        """CBC-encrypt with PKCS#7 padding."""
        from repro.crypto.modes import cbc_encrypt

        return cbc_encrypt(self.aes(key), iv, plaintext)

    def cbc_decrypt(self, key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
        """CBC-decrypt and strip PKCS#7 padding (typed PaddingError)."""
        from repro.crypto.modes import cbc_decrypt

        return cbc_decrypt(self.aes(key), iv, ciphertext)

    # -- sealed boxes (encrypt-then-MAC AEAD core) -----------------------
    #
    # The tag layout (length-prefixed associated data, then nonce, then
    # ciphertext) is part of the wire format; it lives here, once, so
    # every backend frames identically by construction.

    def _tag(
        self, mac_key: bytes, nonce: bytes, ciphertext: bytes, ad: bytes,
        reuse: bool = False,
    ) -> bytes:
        header = len(ad).to_bytes(4, "big") + ad
        return self.hmac_sha256(mac_key, header + nonce + ciphertext,
                                reuse=reuse)

    def seal(
        self,
        enc_key: bytes,
        mac_key: bytes,
        nonce: bytes,
        plaintext: bytes,
        associated_data: bytes = b"",
        *,
        reuse: bool = False,
    ) -> tuple[bytes, bytes]:
        """Encrypt-then-MAC one frame: ``(ciphertext, tag)``.

        ``reuse=True`` declares ``enc_key`` and ``mac_key`` long-lived:
        their expanded state may be kept for the next frame.  The default
        builds, uses and drops it, which is what a one-time key needs.
        """
        ciphertext = self._ctr(enc_key, nonce, plaintext, reuse)
        return ciphertext, self._tag(mac_key, nonce, ciphertext,
                                     associated_data, reuse)

    def open(
        self,
        enc_key: bytes,
        mac_key: bytes,
        nonce: bytes,
        ciphertext: bytes,
        tag: bytes,
        associated_data: bytes = b"",
        *,
        reuse: bool = False,
    ) -> bytes:
        """Verify and decrypt one frame (IntegrityError on forgery,
        raised before any decryption).  ``reuse`` as in :meth:`seal`."""
        expected = self._tag(mac_key, nonce, ciphertext, associated_data,
                             reuse)
        if not constant_time_eq(expected, tag):
            raise IntegrityError("MAC verification failed")
        return self._ctr(enc_key, nonce, ciphertext, reuse)

    def seal_many(
        self,
        enc_key: bytes,
        mac_key: bytes,
        items: Sequence[tuple[bytes, bytes, bytes]],
    ) -> list[tuple[bytes, bytes]]:
        """Seal a flush of ``(nonce, plaintext, ad)`` frames under one key.

        Identical to :meth:`seal` with ``reuse=True`` per item: a key
        that seals a batch is long-lived by construction.
        """
        ctr, tag = self._ctr, self._tag
        out = []
        for nonce, plaintext, ad in items:
            ciphertext = ctr(enc_key, nonce, plaintext, True)
            out.append((ciphertext, tag(mac_key, nonce, ciphertext, ad, True)))
        return out

    def open_many(
        self,
        enc_key: bytes,
        mac_key: bytes,
        items: Sequence[tuple[bytes, bytes, bytes, bytes]],
    ) -> list[bytes | None]:
        """Verify-and-decrypt a flush of ``(nonce, ct, tag, ad)`` frames.

        Per-item results: plaintext on success, ``None`` on MAC failure
        (no exception — batch callers route failures to their existing
        per-frame rejection paths, which re-run the single-frame logic).
        """
        ctr, tag_of = self._ctr, self._tag
        out: list[bytes | None] = []
        for nonce, ciphertext, tag, ad in items:
            if constant_time_eq(tag_of(mac_key, nonce, ciphertext, ad, True),
                                tag):
                out.append(ctr(enc_key, nonce, ciphertext, True))
            else:
                out.append(None)
        return out


class ReferenceProvider(CryptoProvider):
    """The from-scratch pure-Python substrate (the seed behaviour).

    Every primitive is the readable FIPS/RFC transcription this package
    shipped with; this class only *binds* them behind the provider
    interface.  It is the default backend and the truth source the fast
    backend is differentially tested against.
    """

    name = "reference"
    aes_backend = "pure"

    def __init__(self) -> None:
        super().__init__()
        from repro.crypto.aes import AES
        from repro.crypto.mac import HMACSHA256
        from repro.crypto.sha256 import SHA256

        self._AES = AES
        self._HMACSHA256 = HMACSHA256
        self._SHA256 = SHA256

    def sha256(self, data: bytes) -> bytes:
        return self._SHA256(data).digest()

    def sha256_new(self, data: bytes = b""):
        return self._SHA256(data)

    def hmac_sha256(self, key: bytes, data: bytes, *, reuse=False) -> bytes:
        if not reuse:
            return self._HMACSHA256(key, data).digest()
        mac = self._macs.get(key, self._HMACSHA256).copy()
        mac.update(data)
        return mac.digest()

    def hmac_sha256_many(self, key: bytes, messages) -> list[bytes]:
        keyed = self._HMACSHA256(key)
        out = []
        for message in messages:
            mac = keyed.copy()
            mac.update(message)
            out.append(mac.digest())
        return out

    def hmac_new(self, key: bytes, data: bytes = b""):
        return self._HMACSHA256(key, data)

    def _make_aes(self, key: bytes):
        return self._AES(key)


class _EcbBlockCipher:
    """AES block operations via ``cryptography``'s ECB mode.

    ECB of a single block *is* the raw block transform; the encryptor /
    decryptor objects are stateless and reusable, so one pair per key
    doubles as the cached "schedule"."""

    __slots__ = ("_enc", "_dec", "key_size")

    def __init__(self, key: bytes, cipher_cls, aes, ecb) -> None:
        if len(key) not in (16, 24, 32):
            raise _wrong_key_size(key)
        self.key_size = len(key)
        cipher = cipher_cls(aes(key), ecb())
        self._enc = cipher.encryptor()
        self._dec = cipher.decryptor()

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        return self._enc.update(block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        return self._dec.update(block)


class FastProvider(CryptoProvider):
    """Stdlib ``hashlib``/``hmac`` (plus optional ``cryptography`` AES).

    * SHA-256, PBKDF2: :mod:`hashlib` (``hashlib.pbkdf2_hmac`` for the
      stretch loop).  HMAC: RFC 2104 written directly on
      ``hashlib.sha256``, the key padded by ``bytes.translate``, not
      stdlib's pure-Python ``hmac.HMAC`` class, whose Python frames cost
      more than its two hashes.  A long-lived key keeps its two keyed
      states; a chain step keys once for its labels.
    * HKDF: the generic RFC 5869 chain over the fast HMAC.
    * AES/CBC/CTR and the sealed box: ``cryptography`` when importable
      (our 8-byte-nonce CTR layout is standard CTR with the counter
      half of the initial block zero, so ciphertexts match the
      reference bit-for-bit); otherwise the pure-Python AES, so the
      backend degrades gracefully instead of failing to construct.
    * Long-lived keys (``reuse=True``, see the module docstring): one
      CTR context per key, re-armed per frame with ``reset_nonce`` where
      the installed ``cryptography`` has it (:attr:`ctr_reuse`), rebuilt
      per frame where it does not.
    * Every CTR context, one-time or kept, comes from the OpenSSL
      constructor behind ``Cipher(...).encryptor()`` where a known-answer
      block shows it agrees with that call (:attr:`ctr_direct`), and
      from the public call where it is missing or disagrees.
    """

    name = "fast"

    def __init__(self) -> None:
        super().__init__()
        import hashlib
        import hmac as hmac_mod

        self._hashlib = hashlib
        self._sha = hashlib.sha256
        self._hmac_mod = hmac_mod
        self._new_ctr = None
        try:
            from cryptography.hazmat.primitives.ciphers import (
                Cipher,
                algorithms,
                modes,
            )
        except ImportError:  # graceful degradation, see class docstring
            self._cipher_cls = None
            self.aes_backend = "pure"
        else:
            # Bound once: each attribute of ``algorithms`` / ``modes`` is
            # a Python-level module ``__getattr__`` away.
            self._cipher_cls = Cipher
            self._AES, self._CTR = algorithms.AES, modes.CTR
            self._ECB, self._CBC = modes.ECB, modes.CBC
            self.aes_backend = "cryptography"
            # ``Cipher(algorithm, mode).encryptor()`` checks its arguments
            # in Python and then calls this constructor; ``_make_ctr`` and
            # ``_ctr`` check them already, so they call it directly --
            # once one block of its keystream is seen to equal the public
            # call's.  Observed, not configured, as is ``ctr_reuse``.
            probe = (self._AES(bytes(16)), self._CTR(bytes(16)))
            want = Cipher(*probe).encryptor().update(bytes(16))
            try:
                from cryptography.hazmat.bindings._rust import openssl

                new_ctr = openssl.ciphers.create_encryption_ctx
                if new_ctr(*probe).update(bytes(16)) == want:
                    self._new_ctr = new_ctr
            except (ImportError, AttributeError, TypeError, ValueError):
                pass
            self.ctr_direct = self._new_ctr is not None
            # Contexts that can take a new nonce are kept per long-lived
            # key, others rebuilt per frame.
            self.ctr_reuse = hasattr(self._make_ctr(bytes(16)), "reset_nonce")
        self._contexts = _KeyScheduleCache()

    def caches_key(self, key: bytes) -> bool:
        return key in self._contexts or super().caches_key(key)

    # -- hashing / MAC ---------------------------------------------------

    def sha256(self, data: bytes) -> bytes:
        return self._sha(data).digest()

    def sha256_new(self, data: bytes = b""):
        return self._sha(data)

    def _keyed(self, key: bytes):
        """HMAC's inner and outer SHA-256 states, keyed (RFC 2104)."""
        if len(key) > 64:
            key = self._sha(key).digest()
        key = key.ljust(64, b"\0")
        return self._sha(key.translate(_IPAD)), self._sha(key.translate(_OPAD))

    def hmac_sha256(self, key: bytes, data: bytes, *, reuse=False) -> bytes:
        if reuse:
            inner, outer = self._macs.get(key, self._keyed)
            inner = inner.copy()
            inner.update(data)
            outer = outer.copy()
            outer.update(inner.digest())
            return outer.digest()
        # The one-shot inlines _keyed: two hashes, no kept state.
        sha = self._sha
        if len(key) > 64:
            key = sha(key).digest()
        key = key.ljust(64, b"\0")
        inner = sha(key.translate(_IPAD) + data).digest()
        return sha(key.translate(_OPAD) + inner).digest()

    def hmac_sha256_many(self, key: bytes, messages) -> list[bytes]:
        inner, outer = self._keyed(key)
        out = []
        for message in messages:
            mac = inner.copy()
            mac.update(message)
            tag = outer.copy()
            tag.update(mac.digest())
            out.append(tag.digest())
        return out

    def hmac_new(self, key: bytes, data: bytes = b""):
        return self._hmac_mod.new(key, data, self._sha)

    def pbkdf2_hmac_sha256(
        self, password: bytes, salt: bytes, iterations: int, dk_len: int = 32
    ) -> bytes:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if dk_len < 1:
            raise ValueError("dk_len must be >= 1")
        return self._hashlib.pbkdf2_hmac(
            "sha256", password, salt, iterations, dk_len
        )

    # -- AES -------------------------------------------------------------

    def _make_aes(self, key: bytes):
        if self._cipher_cls is not None:
            return _EcbBlockCipher(key, self._cipher_cls, self._AES, self._ECB)
        from repro.crypto.aes import AES

        return AES(key)

    def _cipher(self, key: bytes, mode):
        # A wrong-size key raises the reference AES's typed KeyError_,
        # not ``cryptography``'s bare ValueError (here and in _make_ctr).
        try:
            return self._cipher_cls(self._AES(key), mode)
        except ValueError:
            raise _wrong_key_size(key) from None

    def _make_ctr(self, key: bytes, nonce: bytes = bytes(8)):
        # Standard 128-bit-counter CTR with the low 64 bits starting at
        # zero reproduces the reference nonce||counter keystream exactly.
        # Not through _cipher: this runs once per one-time key.
        try:
            algorithm = self._AES(key)
        except ValueError:
            raise _wrong_key_size(key) from None
        mode = self._CTR(nonce + bytes(8))
        if self._new_ctr is not None:
            return self._new_ctr(algorithm, mode)
        return self._cipher_cls(algorithm, mode).encryptor()

    def _ctr(self, key: bytes, nonce: bytes, data: bytes, reuse: bool) -> bytes:
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
        if self._cipher_cls is None:
            return super()._ctr(key, nonce, data, reuse)
        if reuse and self.ctr_reuse:
            # A CTR context is never finalized, and as a stream mode it
            # returns every byte from update(): re-arming it with the
            # next nonce is all a new frame under the same key needs.
            context = self._contexts.get(key, self._make_ctr)
            context.reset_nonce(nonce + bytes(8))
            return context.update(data)
        # finalize() of a CTR context returns nothing: not called.
        return self._make_ctr(key, nonce).update(data)

    def cbc_encrypt(self, key: bytes, iv: bytes, plaintext: bytes) -> bytes:
        if self._cipher_cls is None:
            return super().cbc_encrypt(key, iv, plaintext)
        if len(iv) != 16:
            raise ValueError("IV must be one block")
        from repro.util.bytesops import pkcs7_pad

        encryptor = self._cipher(key, self._CBC(iv)).encryptor()
        return encryptor.update(pkcs7_pad(plaintext, 16)) + encryptor.finalize()

    def cbc_decrypt(self, key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
        if self._cipher_cls is None:
            return super().cbc_decrypt(key, iv, ciphertext)
        if len(iv) != 16:
            raise ValueError("IV must be one block")
        if len(ciphertext) % 16 != 0:
            raise ValueError("ciphertext is not block-aligned")
        from repro.util.bytesops import pkcs7_unpad

        decryptor = self._cipher(key, self._CBC(iv)).decryptor()
        padded = decryptor.update(ciphertext) + decryptor.finalize()
        return pkcs7_unpad(padded, 16)


# -- registry ------------------------------------------------------------

_BACKENDS: dict[str, type[CryptoProvider]] = {
    "reference": ReferenceProvider,
    "fast": FastProvider,
}

_active: CryptoProvider | None = None


def available_backends() -> tuple[str, ...]:
    """Names :func:`set_provider` accepts."""
    return tuple(sorted(_BACKENDS))


def _instantiate(name: str) -> CryptoProvider:
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise CryptoError(
            f"unknown crypto backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return cls()


def get_provider() -> CryptoProvider:
    """The active backend, initialized from ``REPRO_CRYPTO_BACKEND`` on
    first use (unset → ``reference``)."""
    global _active
    if _active is None:
        name = os.environ.get(ENV_VAR, "").strip() or "reference"
        _active = _instantiate(name)
    return _active


def set_provider(backend: str | CryptoProvider) -> CryptoProvider:
    """Select the crypto backend at runtime; returns the new provider.

    ``backend`` is a registry name (``"reference"``/``"fast"``) or an
    already-constructed :class:`CryptoProvider` (how a future backend —
    an HSM shim, say — plugs in without registry changes).  Safe to call
    mid-process: key objects cache derived material per backend name, so
    switching never serves one backend's cache to another.
    """
    global _active
    if isinstance(backend, CryptoProvider):
        _active = backend
    elif isinstance(backend, str):
        _active = _instantiate(backend)
    else:
        raise CryptoError(
            f"backend must be a name or CryptoProvider, got {type(backend)}"
        )
    return _active


@contextmanager
def using_provider(backend: str | CryptoProvider) -> Iterator[CryptoProvider]:
    """Scoped :func:`set_provider` — the conformance suite's workhorse."""
    global _active
    previous = _active
    provider = set_provider(backend)
    try:
        yield provider
    finally:
        _active = previous


__all__ = [
    "ENV_VAR",
    "HKDF_MAX_LENGTH",
    "CryptoProvider",
    "FastProvider",
    "ReferenceProvider",
    "available_backends",
    "get_provider",
    "set_provider",
    "using_provider",
]
