"""Randomness sources: nonces and key material.

The protocol needs two kinds of randomness:

* :class:`SystemRandom` — CSPRNG backed by :mod:`secrets`, used in
  production.
* :class:`DeterministicRandom` — a seeded, reproducible source (HMAC-DRBG
  style over our own SHA-256) used by tests, the simulator, and the
  attack harness so that traces are replayable.

Nonces are modeled as an explicit value type (:class:`Nonce`) because the
paper's protocol chains them (N1, N2, N3, ..., N_{2i+1}); giving them a
type prevents a whole family of "passed the key where the nonce goes"
bugs in protocol code.
"""

from __future__ import annotations

import math
import secrets
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.crypto.mac import hmac_sha256

NONCE_LEN = 16


@dataclass(frozen=True, slots=True)
class Nonce:
    """A 16-byte protocol nonce."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")

    def hex(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:  # short, log-friendly
        return f"Nonce({self.value[:4].hex()}…)"


def _validate_count(n: int) -> None:
    """Reject byte counts that would silently misbehave.

    ``bytes[:n]`` with a negative ``n`` truncates instead of failing, so
    without this check a buggy caller would get *short* key material
    back — the worst possible failure mode for an RNG.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"byte count must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"byte count must be >= 0, got {n}")


class RandomSource(ABC):
    """Interface for nonce/key-material generation."""

    @abstractmethod
    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` fresh random bytes."""

    def nonce(self) -> Nonce:
        """Return a fresh :class:`Nonce`."""
        return Nonce(self.random_bytes(NONCE_LEN))

    def key_material(self, n: int = 32) -> bytes:
        """Return ``n`` bytes of fresh key material."""
        return self.random_bytes(n)

    def fork(self, label: str) -> "RandomSource":
        """The source a sub-component should draw from.

        A non-reproducible source has no streams to keep apart, so it
        hands out itself; :class:`DeterministicRandom` derives an
        independent stream per label.
        """
        return self

    def uniform(self) -> float:
        """One uniform draw in [0, 1) from eight bytes of the source."""
        return int.from_bytes(self.random_bytes(8), "big") / 2**64

    def exponential(self) -> float:
        """One unit-mean exponential draw (inverse CDF of a uniform in
        (0, 1] from eight bytes of the source)."""
        raw = int.from_bytes(self.random_bytes(8), "big")
        return -math.log((raw + 1) / 2**64)


class SystemRandom(RandomSource):
    """CSPRNG backed by the operating system (via :mod:`secrets`)."""

    def random_bytes(self, n: int) -> bytes:
        _validate_count(n)
        return secrets.token_bytes(n)


class DeterministicRandom(RandomSource):
    """Reproducible random source for tests and simulation.

    Implements a simple HMAC-based DRBG: each request advances an
    internal counter and derives output as
    ``HMAC(seed, counter || block_index)``.  Distinct seeds yield
    independent streams; the same seed always replays the same stream.
    This generator is *not* meant to resist state-compromise attacks —
    it exists for reproducibility, never for production keys — so its
    seed is declared long-lived and the backend may keep it keyed.
    """

    def __init__(self, seed: bytes | int | str = 0) -> None:
        if isinstance(seed, bool):
            # bool is an int subclass; a seed of True is almost always a
            # mis-passed flag, and accepting it silently would alias the
            # streams for seeds 0/1.
            raise TypeError("seed must be bytes, int, or str, not bool")
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError(f"integer seed must be >= 0, got {seed}")
            if seed >= 1 << 64:
                raise ValueError("integer seed must fit in 64 bits")
            seed = seed.to_bytes(8, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode()
        elif not isinstance(seed, (bytes, bytearray)):
            raise TypeError(
                f"seed must be bytes, int, or str, "
                f"got {type(seed).__name__}"
            )
        self._seed = bytes(seed)
        self._counter = 0

    def random_bytes(self, n: int) -> bytes:
        _validate_count(n)
        self._counter += 1
        out = bytearray()
        block_index = 0
        while len(out) < n:
            msg = self._counter.to_bytes(8, "big") + block_index.to_bytes(4, "big")
            out += hmac_sha256(self._seed, msg, reuse=True)
            block_index += 1
        return bytes(out[:n])

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent deterministic stream for a sub-component."""
        if not isinstance(label, str):
            raise TypeError(
                f"fork label must be str, got {type(label).__name__}"
            )
        seed = hmac_sha256(self._seed, b"fork|" + label.encode(), reuse=True)
        return DeterministicRandom(seed)
