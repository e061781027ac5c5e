"""Deterministic chaos engineering for the protocol stacks.

* :mod:`repro.chaos.loop` — a virtual-time asyncio event loop: the
  unmodified asyncio runtimes (:class:`ResilientMemberClient`,
  :class:`LeaderRuntime`) run deterministically, and hundreds of
  simulated seconds complete in milliseconds.
* :mod:`repro.chaos.soak` — seeded soak scenarios driving N
  self-healing members (one follower per standby manager) + leaders
  through a :class:`~repro.net.faults.FaultPlan` while
  continuously asserting the paper's safety invariants, plus the
  recovery matrix (crash × partition × loss × legacy-vs-improved).
"""

from repro.chaos.loop import LoopClock, VirtualTimeEventLoop, run_virtual
from repro.chaos.soak import (
    SoakConfig,
    SoakReport,
    clip_to_duration,
    format_recovery_matrix,
    run_recovery_matrix,
    run_soak,
)

__all__ = [
    "VirtualTimeEventLoop",
    "LoopClock",
    "run_virtual",
    "SoakConfig",
    "SoakReport",
    "clip_to_duration",
    "run_soak",
    "run_recovery_matrix",
    "format_recovery_matrix",
]
