"""No seeded world seals two different messages under one (key, nonce).

AES-CTR under a repeated (key, nonce) leaks the XOR of the two
plaintexts, and a seeded world can repeat one without any bug in the
primitives: a :class:`~repro.crypto.rng.DeterministicRandom` stream is
a pure function of its seed, so a stream handed to two consumers (or
re-derived for a second incarnation) draws the same CTR nonces twice.
The probe wraps :meth:`AuthenticatedCipher.seal_with_nonce` — every
seal goes through it — and records, per (enc subkey, nonce), what was
sealed.  Sealing the *same* (plaintext, AD) again is a byte-identical
resend and harmless; anything else is a reuse.
"""

from __future__ import annotations

import pytest

from repro.chaos.soak import SoakConfig, run_soak
from repro.crypto.aead import AuthenticatedCipher
from repro.fabric.scale import FabricConfig, run_fabric_soak


@pytest.fixture
def reused(monkeypatch):
    """Run the test's world under the probe; yields the list of
    ``(nonce hex, first (plaintext, AD), second (plaintext, AD))``
    reuses it saw."""
    sealed: dict[tuple[bytes, bytes], tuple[bytes, bytes]] = {}
    found: list[tuple[str, tuple, tuple]] = []
    seal_with_nonce = AuthenticatedCipher.seal_with_nonce

    def probe(self, nonce, plaintext, associated_data=b""):
        key = (self._keys()[0], bytes(nonce))
        message = (bytes(plaintext), bytes(associated_data))
        first = sealed.setdefault(key, message)
        if first != message:
            found.append((nonce.hex(), first, message))
        return seal_with_nonce(self, nonce, plaintext, associated_data)

    monkeypatch.setattr(AuthenticatedCipher, "seal_with_nonce", probe)
    return found


def test_probe_catches_a_reused_stream(reused):
    from repro.crypto.keys import SessionKey
    from repro.crypto.rng import DeterministicRandom

    key = SessionKey(bytes(32))
    AuthenticatedCipher(key, DeterministicRandom(1)).seal(b"one")
    AuthenticatedCipher(key, DeterministicRandom(1)).seal(b"one")
    assert reused == []  # the same message again is a resend
    AuthenticatedCipher(key, DeterministicRandom(1)).seal(b"two")
    assert len(reused) == 1


def test_fabric_soak_never_reuses_a_nonce(reused):
    """Two shards, four groups, a migration there and back, a rebalance
    and a shard crash: every re-hosting of a group is a new incarnation
    of its leader and journal, under the group's one storage key."""
    report = run_fabric_soak(FabricConfig.full(
        seed=7, n_groups=4, n_shards=2, duration=25.0,
    ))
    assert report.migrations
    assert reused == []


def test_chaos_soak_with_a_warm_restore_never_reuses_a_nonce(reused):
    """The restored leader continues its predecessor's sessions under
    the journaled K_a: its draws must not replay the predecessor's."""
    report = run_soak(SoakConfig(stack="itgm", seed=7))
    assert report.converged
    assert reused == []
