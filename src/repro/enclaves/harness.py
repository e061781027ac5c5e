"""Synchronous message pump for sans-IO protocol cores.

Both protocol stacks are sans-IO (``handle(envelope) -> (out, events)``),
so a deterministic, single-threaded pump is enough to run complete
scenarios without asyncio.  Tests, the attack library, and the
benchmarks all drive the stacks through :class:`SyncNetwork`: it gives
deterministic delivery order, an interception hook with full Dolev-Yao
power, and a complete wire log.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.enclaves.common import Event
from repro.telemetry.events import (
    EventBus,
    FrameDropped,
    FrameInjected,
    frame_id,
    resolve_bus,
)
from repro.wire.message import Envelope

#: An interceptor sees each envelope before delivery and returns the list
#: of envelopes to actually deliver (empty list = drop; the original
#: envelope may be included, modified, or replaced).  ``None`` means
#: "deliver unchanged".
Interceptor = Callable[[Envelope], "list[Envelope] | None"]

#: A handler is a sans-IO protocol core entry point.
Handler = Callable[[Envelope], "tuple[list[Envelope], list[Event]]"]


class SyncNetwork:
    """Deterministic in-process network for sans-IO protocol cores."""

    def __init__(self, telemetry: EventBus | None = None) -> None:
        self._handlers: dict[str, Handler] = {}
        self._queue: deque[Envelope] = deque()
        #: All envelopes ever posted, in order (the wire log).
        self.wire_log: list[Envelope] = []
        #: Events emitted by each address, in order.
        self.events: dict[str, list[Event]] = {}
        self._interceptor: Interceptor | None = None
        self._telemetry = resolve_bus(telemetry)
        self.delivered = 0
        self.dropped = 0

    def register(self, address: str, handler: Handler) -> None:
        """Attach a protocol core at ``address``."""
        self._handlers[address] = handler
        self.events.setdefault(address, [])

    def set_interceptor(self, interceptor: Interceptor | None) -> None:
        """Install (or clear) the adversarial interception hook."""
        self._interceptor = interceptor

    # -- posting ---------------------------------------------------------------

    def post(self, envelope: Envelope) -> None:
        """Put an envelope on the wire (subject to interception)."""
        self.wire_log.append(envelope)
        if self._interceptor is not None:
            replacement = self._interceptor(envelope)
            if replacement is not None:
                if not replacement:
                    self.dropped += 1
                    if self._telemetry:
                        self._telemetry.emit(FrameDropped(
                            envelope.sender, envelope.recipient,
                            envelope.label.name, frame_id(envelope),
                        ))
                for sub in replacement:
                    self._queue.append(sub)
                return
        self._queue.append(envelope)

    def post_all(self, envelopes: list[Envelope]) -> None:
        for envelope in envelopes:
            self.post(envelope)

    def inject(self, envelope: Envelope) -> None:
        """Adversarial injection: bypasses the interceptor and the log
        is still updated (the attacker's own messages are part of the
        trace, as in the formal model)."""
        self.wire_log.append(envelope)
        if self._telemetry:
            self._telemetry.emit(FrameInjected(
                envelope.sender, envelope.recipient,
                envelope.label.name, frame_id(envelope),
            ))
        self._queue.append(envelope)

    # -- pumping -----------------------------------------------------------------

    def step(self) -> bool:
        """Deliver one queued envelope; returns False when idle."""
        if not self._queue:
            return False
        envelope = self._queue.popleft()
        handler = self._handlers.get(envelope.recipient)
        if handler is None:
            self.dropped += 1
            return True
        outgoing, events = handler(envelope)
        self.delivered += 1
        self.events[envelope.recipient].extend(events)
        for out in outgoing:
            self.post(out)
        return True

    def run(self, max_steps: int = 10_000) -> int:
        """Deliver until idle (or the step budget runs out)."""
        steps = 0
        while steps < max_steps and self.step():
            steps += 1
        if steps >= max_steps and self._queue:
            raise RuntimeError(
                f"SyncNetwork did not quiesce within {max_steps} steps"
            )
        return steps

    def events_of(self, address: str, event_type: type | None = None) -> list[Event]:
        """Events emitted at ``address`` (optionally filtered by type)."""
        events = self.events.get(address, [])
        if event_type is None:
            return list(events)
        return [e for e in events if isinstance(e, event_type)]


def wire(network: SyncNetwork, address: str, core) -> None:
    """Register a protocol core object (anything with ``handle``)."""
    network.register(address, core.handle)
