"""Bounded, priority-aware ingest mailboxes.

The seed transport merged every peer's frames into one *unbounded*
queue — the textbook insider availability attack surface: a flooding
member grows the queue faster than the leader drains it, and honest
frames wait behind an ever-longer tail.  :class:`BoundedMailbox`
replaces that with:

* a hard **capacity** across all priority classes;
* **class queues** served strictly highest-priority-first (FIFO within
  a class), so a join never waits behind ten thousand app frames;
* **eviction**: a full mailbox accepts a higher-priority arrival by
  shedding the newest frame of the lowest occupied class — control
  traffic is never the victim of app traffic;
* **fair-share admission** (optional, a
  :class:`~repro.overload.admission.FairShareAdmission`) applied
  before capacity, so the shed pain lands on the sender causing it;
* **typed telemetry**: every shed is a
  :class:`~repro.telemetry.events.FrameShed`; crossing into
  saturation emits one
  :class:`~repro.telemetry.events.QueueSaturated` per episode
  (re-armed after draining below half capacity).

The mailbox is synchronous and time-explicit: callers pass ``now``
(virtual seconds) into :meth:`offer`.  Async drivers layer their own
wakeup primitive on top (see ``TcpLeaderEndpoint``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.overload.admission import (
    FairShareAdmission,
    PriorityClass,
    classify_frame,
)
from repro.telemetry.events import EventBus, FrameShed, QueueSaturated
from repro.wire.message import Envelope

#: Shed reasons carried in FrameShed events.
SHED_CAPACITY = "capacity"
SHED_FAIR_SHARE = "fair_share"

#: The classes in the order they are served.
_SERVICE_ORDER = tuple(PriorityClass)


@dataclass
class MailboxStats:
    """Counters the soak report and the bench read."""

    offered: int = 0
    accepted: int = 0
    shed_capacity: int = 0
    shed_fair_share: int = 0
    evicted: int = 0
    max_depth: int = 0
    saturation_episodes: int = 0
    #: sender -> frames shed (all reasons), the fairness evidence.
    shed_by_sender: dict[str, int] = field(default_factory=dict)


class BoundedMailbox:
    """A capacity-bounded multi-class FIFO with loud shedding."""

    def __init__(
        self,
        node: str,
        *,
        capacity: int = 1024,
        fair_share: FairShareAdmission | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.node = node
        self.capacity = capacity
        #: Optional per-sender pacing; None admits everything the
        #: capacity allows.
        self.fair_share = fair_share
        self._telemetry = telemetry
        self._classes: dict[PriorityClass, deque] = {
            cls: deque() for cls in _SERVICE_ORDER
        }
        self._depth = 0
        self._saturated = False
        self.stats = MailboxStats()

    # -- state ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        return self._depth

    # -- ingest --------------------------------------------------------------

    def offer(
        self,
        envelope: Envelope,
        now: float = 0.0,
        *,
        priority: PriorityClass | None = None,
    ) -> bool:
        """Admit one frame; False (plus telemetry) when it was shed."""
        self.stats.offered += 1
        cls = priority if priority is not None else classify_frame(envelope)
        sender = envelope.sender
        fair = self.fair_share
        if fair is not None and not fair.admit(sender, cls, now):
            self.stats.shed_fair_share += 1
            self._shed(envelope, sender, cls, SHED_FAIR_SHARE)
            return False
        if self._depth >= self.capacity:
            self._note_saturated()
            if not self._evict_below(cls):
                self.stats.shed_capacity += 1
                self._shed(envelope, sender, cls, SHED_CAPACITY)
                return False
        self._classes[cls].append(envelope)
        self._depth += 1
        self.stats.accepted += 1
        if self._depth > self.stats.max_depth:
            self.stats.max_depth = self._depth
        if self._depth >= self.capacity:
            self._note_saturated()
        return True

    def _evict_below(self, cls: PriorityClass) -> bool:
        """Make room for ``cls`` by shedding the newest frame of the
        lowest-priority occupied class strictly below it."""
        for victim_cls in reversed(_SERVICE_ORDER):
            if victim_cls <= cls:
                return False
            queue = self._classes[victim_cls]
            if queue:
                victim = queue.pop()
                self._depth -= 1
                self.stats.evicted += 1
                self._shed(
                    victim, victim.sender, victim_cls, SHED_CAPACITY
                )
                return True
        return False

    def _shed(
        self,
        envelope: Envelope,
        sender: str,
        cls: PriorityClass,
        reason: str,
    ) -> None:
        by = self.stats.shed_by_sender
        by[sender] = by.get(sender, 0) + 1
        if self._telemetry:
            self._telemetry.emit(FrameShed(
                self.node, sender, envelope.label.name, cls.name, reason
            ))

    def _note_saturated(self) -> None:
        if self._saturated:
            return
        self._saturated = True
        self.stats.saturation_episodes += 1
        if self._telemetry:
            self._telemetry.emit(QueueSaturated(
                self.node, self._depth, self.capacity
            ))

    # -- drain ---------------------------------------------------------------

    def take(self) -> Envelope | None:
        """Dequeue the oldest frame of the highest occupied class."""
        for cls in _SERVICE_ORDER:
            queue = self._classes[cls]
            if queue:
                self._depth -= 1
                if self._saturated and self._depth <= self.capacity // 2:
                    self._saturated = False  # re-arm the episode latch
                return queue.popleft()
        return None

    def drain(self, budget: int) -> list[Envelope]:
        """Up to ``budget`` frames, priority order (one service tick)."""
        out: list[Envelope] = []
        for _ in range(budget):
            envelope = self.take()
            if envelope is None:
                break
            out.append(envelope)
        return out


__all__ = [
    "BoundedMailbox",
    "MailboxStats",
    "SHED_CAPACITY",
    "SHED_FAIR_SHARE",
]
