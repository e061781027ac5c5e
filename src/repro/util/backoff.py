"""Unified retry backoff: exponential growth with seeded jitter.

Before this module, each retry loop carried its own ad-hoc delay
arithmetic — the self-healing member supervisor computed exponential
backoff with centered jitter inline, and the fabric member driver used
a bare fixed interval.  One formula, three jitter modes, every knob in
one dataclass:

* ``"none"`` — the raw exponential delay, unperturbed.  This is also
  what every policy yields when no RNG is supplied, so callers without
  a deterministic random source degrade gracefully instead of
  silently consuming entropy.
* ``"centered"`` — scale by ``1 + jitter * (u - 0.5)`` for a uniform
  ``u`` in [0, 1): the historical supervisor formula, kept bit-exact
  (same 8-byte draw, same arithmetic) so seeded chaos runs reproduce
  the same schedules they always did.
* ``"full"`` — scale by ``1 - jitter * u``: delays land uniformly in
  ``[delay * (1 - jitter), delay]``.  With ``jitter=1.0`` this is the
  classic AWS "full jitter", which decorrelates a thundering herd far
  better than centered jitter; new subsystems (the quorum view-change
  retries) default to it.

Jitter draws consume exactly eight bytes from the injected
:class:`~repro.crypto.rng.RandomSource` per call, so a policy's random
stream is easy to reason about in deterministic tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rng import RandomSource

#: Accepted jitter modes, in increasing order of decorrelation.
JITTER_MODES = ("none", "centered", "full")


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff schedule with optional seeded jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... grows as
    ``base * factor ** attempt`` capped at ``max_delay``, then jittered
    per ``mode``.  The policy is immutable and stateless: the caller
    owns the attempt counter and the RNG, so one policy instance can be
    shared by any number of independent retry loops.
    """

    base: float = 0.25
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    mode: str = "full"

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base must be >= 0")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.mode not in JITTER_MODES:
            raise ValueError(
                f"mode must be one of {JITTER_MODES}, got {self.mode!r}"
            )

    def raw_delay(self, attempt: int) -> float:
        """The capped exponential delay before jitter."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return min(self.max_delay, self.base * self.factor ** attempt)

    def delay(self, attempt: int, rng: RandomSource | None = None) -> float:
        """The jittered delay for one retry attempt.

        Without an RNG (or with ``mode="none"`` / ``jitter=0``) this is
        exactly :meth:`raw_delay` and consumes no randomness.
        """
        delay = self.raw_delay(attempt)
        if rng is None or self.mode == "none" or self.jitter == 0.0:
            return delay
        u = rng.uniform()
        if self.mode == "centered":
            return delay * (1.0 + self.jitter * (u - 0.5))
        # mode == "full"
        return delay * (1.0 - self.jitter * u)

    def schedule(
        self, attempts: int, rng: RandomSource | None = None
    ) -> list[float]:
        """The first ``attempts`` delays, in order (handy in tests)."""
        return [self.delay(i, rng) for i in range(attempts)]


def constant(interval: float) -> BackoffPolicy:
    """A degenerate policy: every attempt waits exactly ``interval``.

    Used where a subsystem historically retried on a fixed cadence
    (the fabric member driver) — routing it through the same policy
    type keeps the pacing knobs in one place without changing the
    produced delays.
    """
    return BackoffPolicy(
        base=interval, factor=1.0, max_delay=interval, jitter=0.0,
        mode="none",
    )


__all__ = ["BackoffPolicy", "JITTER_MODES", "constant"]
