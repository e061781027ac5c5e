"""Clock abstraction.

The runtime protocol stack and the simulation harness both consume a
:class:`Clock`.  Production code uses :class:`RealClock`; tests and the
synchronous harnesses use :class:`VirtualClock` so that time-dependent
behaviour (periodic rekeying, timeouts) is deterministic.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Monotonic time source measured in seconds."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""


class RealClock(Clock):
    """Wall-clock backed by :func:`time.monotonic`."""

    def now(self) -> float:
        return time.monotonic()


class VirtualClock(Clock):
    """Manually advanced clock for deterministic tests and simulation."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> None:
        """Move time forward by ``delta`` seconds (must be >= 0)."""
        if delta < 0:
            raise ValueError("cannot move a VirtualClock backwards")
        self._now += delta

    def set(self, value: float) -> None:
        """Jump to an absolute time (must not go backwards)."""
        if value < self._now:
            raise ValueError("cannot move a VirtualClock backwards")
        self._now = float(value)


class TickClock(Clock):
    """A logical clock that advances a fixed step on every reading.

    Useful for timestamping event streams from synchronous harnesses
    (which have no time axis of their own): every reading is distinct,
    strictly increasing, and deterministic — so two runs of the same
    scripted scenario produce byte-identical timestamps.
    """

    def __init__(self, step: float = 1.0, start: float = 0.0) -> None:
        if step <= 0:
            raise ValueError("step must be > 0")
        self._step = float(step)
        self._now = float(start)

    def now(self) -> float:
        value = self._now
        self._now += self._step
        return value

