"""Machine-speed calibration: take the neighbours' load out of the timings.

The box this benchmark was built on is a shared 2-vCPU microVM whose
*effective CPU speed* moves by up to 40 % in regimes that last from 100 ms
to minutes (README, "Noise"): a fixed pure-CPU loop reads 24 ms, then
33 ms for twenty seconds, with CPU time equal to wall time — the core
itself runs slower, nothing is preempted.  Raw wall-clock medians of 25 s
runs therefore differ by 20-40 % between runs of the same commit.

A :class:`SpeedMeter` runs a small fixed kernel (Python bytecode, a dict,
C-level HMAC: the mix the stack itself executes) about every 30 ms
*between* operations.  The stretch between two samples is a **gap**; its
speed factor is the mean of the two samples around it divided by
``REFERENCE_S``, the kernel's time on the build box when nothing
interferes.  A normalised duration is the time spent inside gaps, each
gap's part divided by its factor — "seconds at reference speed".
Calibration time itself is in no gap, so it is never charged to the
workload.  On an uncontended box of the build box's speed every factor is
1 and normalised equals raw.
"""

from __future__ import annotations

import hashlib
import hmac
from bisect import bisect_right
from time import perf_counter

#: Kernel time on the build box, uncontended (the fast mode's median).
REFERENCE_S = 0.0006
#: Sample when this much time passed since the previous sample.
INTERVAL_S = 0.03

_KEY = bytes(32)
_BLOCK = bytes(256)


def kernel() -> None:
    total = 0
    table = {}
    for i in range(3000):
        total += i * i
        table[i & 63] = total
    for _ in range(150):
        hmac.new(_KEY, _BLOCK, hashlib.sha256).digest()


class SpeedMeter:
    """Calibration samples of one repetition and the time scale they give."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []

    def sample(self) -> float:
        """Run the kernel now; returns the time it ended."""
        start = perf_counter()
        kernel()
        end = perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        return end

    def tick(self) -> None:
        """Sample if one is due (call between operations)."""
        if perf_counter() - self._ends[-1] >= INTERVAL_S:
            self.sample()

    def _factor(self, gap: int) -> float:
        """Speed factor of the gap after sample ``gap`` (1 = reference)."""
        return (
            self._ends[gap] - self._starts[gap]
            + self._ends[gap + 1] - self._starts[gap + 1]
        ) / (2 * REFERENCE_S)

    def normalized(self, begin: float, end: float, scale: bool = True) -> float:
        """``[begin, end]`` in seconds at reference speed (``scale=False``:
        in raw seconds, calibration time still left out).  The interval
        must lie between the first and the last sample."""
        starts, ends = self._starts, self._ends
        gap = max(0, bisect_right(ends, begin) - 1)
        total = 0.0
        while gap + 1 < len(starts) and ends[gap] < end:
            overlap = min(end, starts[gap + 1]) - max(begin, ends[gap])
            if overlap > 0:
                total += overlap / self._factor(gap) if scale else overlap
            gap += 1
        return total
