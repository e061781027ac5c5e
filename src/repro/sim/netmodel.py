"""Network delay models for the latency studies.

The in-memory networks deliver instantly, which is fine for protocol
logic but hides latency structure.  A :class:`DelayModel` is an
adversary policy (:data:`~repro.net.adversary.Policy`) that holds every
frame for a sampled one-way delay: installed on a
:class:`~repro.net.memnet.MemoryNetwork` under the virtual-time loop
(:mod:`repro.chaos.loop`), it turns join latency, admin round-trips,
and rekey convergence into measurable quantities with the
linear-in-hops shapes the protocol's message diagram predicts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.crypto.rng import DeterministicRandom
from repro.net.adversary import ObservedFrame, Verdict
from repro.wire.message import Envelope


class DelayModel(ABC):
    """Samples a one-way delay (seconds) for each frame."""

    @abstractmethod
    def sample(self, envelope: Envelope) -> float: ...

    def __call__(self, frame: ObservedFrame) -> Verdict:
        return Verdict.delay(self.sample(frame.envelope))


class FixedDelay(DelayModel):
    """Every frame takes exactly ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay

    def sample(self, envelope: Envelope) -> float:
        return self.delay


class ExponentialDelay(DelayModel):
    """Exponentially distributed delays with the given mean (seeded)."""

    def __init__(self, mean: float, seed: int = 0) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        self.mean = mean
        self._rng = DeterministicRandom(seed).fork("delays")

    def sample(self, envelope: Envelope) -> float:
        return self._rng.exponential() * self.mean
