"""Brownout: planned partial degradation under sustained saturation.

A bounded mailbox keeps the leader *correct* at saturation; brownout
keeps it *useful*.  When the saturation signal (mailbox occupancy
fraction) reaches ``ENTER_THRESHOLD``, the controller drops into
degraded mode and the leader's driver consults it twice:

* :meth:`BrownoutController.note_rekey_wanted` — membership-triggered
  rekeys batch into one rotation per ``REKEY_INTERVAL`` instead of one
  per join/leave, trading key-freshness granularity for the O(members)
  fan-out cost of each rotation (the single most expensive control
  operation under a join surge).
* :attr:`BrownoutController.shed_classes` — the priority classes the
  mailbox sheds at the door (APP under brownout), on top of fair-share
  admission.

Recovery has **hysteresis**: the controller exits only after the
signal has stayed at or below ``EXIT_THRESHOLD`` for ``MIN_DWELL``
consecutive virtual seconds — a single drained tick must not flap the
group back into full-cost mode while the flood is still running.
Entry and exit are telemetry events; exit carries the coalescing
evidence (how many rekeys were folded).
"""

from __future__ import annotations

from repro.overload.admission import PriorityClass
from repro.telemetry.events import (
    BrownoutEntered,
    BrownoutExited,
    EventBus,
)


#: Saturation at or above which the controller enters brownout.
ENTER_THRESHOLD = 0.8
#: Saturation at or below which the exit dwell runs.
EXIT_THRESHOLD = 0.3
#: Virtual seconds the signal must stay <= ``EXIT_THRESHOLD``.
MIN_DWELL = 1.0
#: Virtual seconds between coalesced rekey flushes while degraded.
REKEY_INTERVAL = 2.0


class BrownoutController:
    """Hysteretic two-level controller fed a saturation signal."""

    def __init__(
        self,
        node: str,
        *,
        telemetry: EventBus | None = None,
    ) -> None:
        self.node = node
        self._telemetry = telemetry
        self.active = False
        self._calm_since: float | None = None
        self._last_rekey_flush = 0.0
        self.episodes = 0
        self.coalesced_rekeys = 0
        self._pending_rekey = False

    # -- the control loop ----------------------------------------------------

    def observe(self, saturation: float, now: float) -> None:
        """Feed one saturation reading (occupancy fraction) at ``now``."""
        if not self.active:
            if saturation >= ENTER_THRESHOLD:
                self.active = True
                self.episodes += 1
                self._calm_since = None
                self._last_rekey_flush = now
                if self._telemetry:
                    self._telemetry.emit(BrownoutEntered(
                        self.node, "brownout", saturation
                    ))
            return
        if saturation > EXIT_THRESHOLD:
            self._calm_since = None
            return
        if self._calm_since is None:
            self._calm_since = now
            return
        if now - self._calm_since >= MIN_DWELL:
            self.active = False
            self._calm_since = None
            if self._telemetry:
                self._telemetry.emit(BrownoutExited(
                    self.node, self.coalesced_rekeys
                ))

    # -- what drivers consult -------------------------------------------------

    @property
    def shed_classes(self) -> frozenset[PriorityClass]:
        """Classes the mailbox should shed at the door right now."""
        if self.active:
            return frozenset({PriorityClass.APP})
        return frozenset()

    # -- rekey coalescing helper ----------------------------------------------

    def note_rekey_wanted(self, now: float) -> bool:
        """One membership change wants a rekey; should it run *now*?

        Outside brownout: always yes.  Inside: the request is latched
        and only the first caller after ``REKEY_INTERVAL`` elapses gets
        a True — everyone else's rotation folds into that flush (and is
        counted in ``coalesced_rekeys``, the evidence the soak report
        carries).
        """
        if not self.active:
            return True
        if now - self._last_rekey_flush >= REKEY_INTERVAL:
            self._last_rekey_flush = now
            self._pending_rekey = False
            return True
        self.coalesced_rekeys += 1
        self._pending_rekey = True
        return False

    def flush_pending_rekey(self) -> bool:
        """True once if a coalesced rekey is still owed (call on exit
        from brownout so the last batch of membership changes gets its
        rotation)."""
        owed = self._pending_rekey
        self._pending_rekey = False
        return owed


__all__ = ["BrownoutController"]
