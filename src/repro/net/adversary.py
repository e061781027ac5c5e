"""The network adversary.

In the paper's threat model, compromised participants and outsiders "can
read all the messages exchanged, replay old messages, and send arbitrary
messages they can construct."  :class:`Adversary` gives attack code
exactly that power over a :class:`~repro.net.memnet.MemoryNetwork`:

* every frame that any honest party sends is *observed* and appended to
  the adversary's log (the concrete analogue of ``trace(q)``),
* a per-frame policy decides whether the frame is delivered, dropped,
  duplicated, or replaced,
* the adversary can *inject* arbitrary envelopes at any time, with any
  claimed sender.

The adversary cannot, of course, open sealed boxes without keys — the
crypto layer enforces that, exactly as the formal model's Analz does.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.telemetry.events import (
    EventBus,
    FrameInjected,
    frame_id,
    resolve_bus,
)
from repro.wire.message import Envelope


class FrameAction(enum.Enum):
    """What the adversary does with an observed frame."""

    DELIVER = "deliver"      #: pass through unchanged
    DROP = "drop"            #: silently discard
    DUPLICATE = "duplicate"  #: deliver twice
    REPLACE = "replace"      #: deliver substitute frames instead
    DELAY = "delay"          #: deliver later (possibly reordered)


@dataclass(frozen=True, slots=True)
class ObservedFrame:
    """One frame as seen on the wire, with its true origin address."""

    origin: str
    envelope: Envelope
    sequence: int


@dataclass
class Verdict:
    """A policy's decision about one frame."""

    action: FrameAction = FrameAction.DELIVER
    substitutes: list[Envelope] = field(default_factory=list)
    #: Seconds to hold the frame before delivery (DELAY only).  Frames
    #: with different hold times overtake each other, so delay is also
    #: how a policy reorders traffic.
    hold: float = 0.0

    @classmethod
    def deliver(cls) -> "Verdict":
        return cls(FrameAction.DELIVER)

    @classmethod
    def drop(cls) -> "Verdict":
        return cls(FrameAction.DROP)

    @classmethod
    def duplicate(cls) -> "Verdict":
        return cls(FrameAction.DUPLICATE)

    @classmethod
    def delay(cls, hold: float) -> "Verdict":
        if hold < 0:
            raise ValueError("hold must be >= 0")
        return cls(FrameAction.DELAY, hold=hold)


Policy = Callable[[ObservedFrame], Verdict]


class Adversary:
    """Dolev-Yao controller over a :class:`MemoryNetwork`.

    Attack code either installs a :data:`Policy` callable (decides per
    frame) or drives the helpers (:meth:`drop_next`, :meth:`replay`)
    directly.  The complete wire history is kept in :attr:`log`.
    """

    def __init__(self, telemetry: EventBus | None = None) -> None:
        self.log: list[ObservedFrame] = []
        self._policy: Policy | None = None
        self._network = None  # set by MemoryNetwork.attach_adversary
        self._one_shot_drops: list[Callable[[ObservedFrame], bool]] = []
        self._telemetry = resolve_bus(telemetry)

    # -- wiring ----------------------------------------------------------

    def bind(self, network) -> None:
        """Called by the network when the adversary is attached."""
        self._network = network

    def set_policy(self, policy: Policy | None) -> None:
        """Install (or clear) the per-frame policy."""
        self._policy = policy

    # -- per-frame decision (called by the network) -----------------------

    def observe(self, frame: ObservedFrame) -> Verdict:
        """Record a frame and decide its fate."""
        self.log.append(frame)
        for i, predicate in enumerate(self._one_shot_drops):
            if predicate(frame):
                del self._one_shot_drops[i]
                return Verdict.drop()
        if self._policy is not None:
            return self._policy(frame)
        return Verdict.deliver()

    # -- attack helpers ----------------------------------------------------

    def drop_next(self, predicate: Callable[[ObservedFrame], bool]) -> None:
        """Silently drop the next frame matching ``predicate``."""
        self._one_shot_drops.append(predicate)

    async def inject(self, envelope: Envelope) -> None:
        """Send a forged envelope to its recipient, bypassing any policy."""
        if self._network is None:
            raise RuntimeError("adversary is not attached to a network")
        if self._telemetry:
            self._telemetry.emit(FrameInjected(
                envelope.sender, envelope.recipient,
                envelope.label.name, frame_id(envelope),
            ))
        await self._network.deliver_raw(envelope)

    async def replay(self, frame: ObservedFrame) -> None:
        """Re-send a previously observed frame verbatim."""
        await self.inject(frame.envelope)

    def frames_to(self, recipient: str) -> list[ObservedFrame]:
        """All logged frames addressed to ``recipient``."""
        return [f for f in self.log if f.envelope.recipient == recipient]

    def frames_with_label(self, label) -> list[ObservedFrame]:
        """All logged frames carrying ``label``."""
        return [f for f in self.log if f.envelope.label == label]
