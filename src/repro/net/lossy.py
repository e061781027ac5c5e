"""Seeded random loss/duplication for the in-memory network.

:class:`LossyPolicy` is an :class:`~repro.net.adversary.Adversary`
policy modelling an *unreliable* (rather than malicious) network:
each frame is independently dropped or duplicated with configured
probabilities, deterministically per seed.  Combined with the protocol
stack's retransmission layer it demonstrates (and tests) liveness under
loss — joins and admin delivery eventually succeed even at high drop
rates, without weakening any safety property.
"""

from __future__ import annotations

from repro.crypto.rng import DeterministicRandom
from repro.net.adversary import ObservedFrame, Verdict


class LossyPolicy:
    """Per-frame i.i.d. drop/duplicate policy, seeded."""

    def __init__(
        self,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        if not 0.0 <= duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must be in [0, 1)")
        if drop_rate + duplicate_rate > 1.0:
            raise ValueError(
                "drop_rate + duplicate_rate must not exceed 1.0"
            )
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self._rng = DeterministicRandom(seed).fork("lossy")
        self.dropped = 0
        self.duplicated = 0

    def __call__(self, frame: ObservedFrame) -> Verdict:
        roll = self._rng.uniform()
        if roll < self.drop_rate:
            self.dropped += 1
            return Verdict.drop()
        if roll < self.drop_rate + self.duplicate_rate:
            self.duplicated += 1
            return Verdict.duplicate()
        return Verdict.deliver()
