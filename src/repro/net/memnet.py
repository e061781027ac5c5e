"""In-memory asyncio network with adversary interposition.

All frames sent through a :class:`MemoryNetwork` pass through the
attached :class:`~repro.net.adversary.Adversary` (if any), which may
deliver, drop, duplicate, or replace them.  Delivery is via per-endpoint
unbounded queues, so the network is asynchronous and non-blocking, like
the paper's model.  Frames to unknown addresses vanish silently — an
insecure network gives no delivery receipts.
"""

from __future__ import annotations

import asyncio

from repro.exceptions import AddressInUse, ConnectionClosed
from repro.net.adversary import Adversary, FrameAction, ObservedFrame
from repro.net.transport import Endpoint, Transport
from repro.telemetry.events import (
    EventBus,
    FrameDelayed,
    FrameDropped,
    FrameDuplicated,
    FrameReplaced,
    frame_id,
    resolve_bus,
)
from repro.wire.message import Envelope

_CLOSED = object()


class MemoryEndpoint(Endpoint):
    """An endpoint attached to a :class:`MemoryNetwork`."""

    def __init__(self, network: "MemoryNetwork", address: str) -> None:
        self._network = network
        self._address = address
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False

    async def send(self, envelope: Envelope) -> None:
        if self._closed:
            raise ConnectionClosed(f"endpoint {self._address} is closed")
        await self._network.route(self._address, envelope)

    async def recv(self) -> Envelope:
        if self._closed:
            raise ConnectionClosed(f"endpoint {self._address} is closed")
        item = await self._queue.get()
        if item is _CLOSED:
            raise ConnectionClosed(f"endpoint {self._address} is closed")
        return item

    @property
    def pending(self) -> int:
        """Number of frames waiting to be received."""
        return self._queue.qsize()

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._network._detach(self._address)
            await self._queue.put(_CLOSED)

    def _enqueue(self, envelope: Envelope) -> None:
        if not self._closed:
            self._queue.put_nowait(envelope)


class MemoryNetwork(Transport):
    """An insecure, asynchronous, in-process network."""

    def __init__(self, telemetry: EventBus | None = None) -> None:
        self._endpoints: dict[str, MemoryEndpoint] = {}
        self._adversary: Adversary | None = None
        self._sequence = 0
        self._telemetry = resolve_bus(telemetry)
        #: Total frames routed (observed traffic counter for benchmarks).
        self.frames_routed = 0

    async def attach(self, address: str) -> MemoryEndpoint:
        """Bind a new endpoint at ``address``."""
        if address in self._endpoints:
            raise AddressInUse(f"address {address!r} already attached")
        endpoint = MemoryEndpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def attach_adversary(self, adversary: Adversary) -> None:
        """Give ``adversary`` full control of the wire."""
        self._adversary = adversary
        adversary.bind(self)

    # -- routing -----------------------------------------------------------

    async def route(self, origin: str, envelope: Envelope) -> None:
        """Route a frame from an honest endpoint, via the adversary."""
        self.frames_routed += 1
        if self._adversary is None:
            self._deliver(envelope)
            return
        self._sequence += 1
        frame = ObservedFrame(
            origin=origin, envelope=envelope, sequence=self._sequence
        )
        verdict = self._adversary.observe(frame)
        if self._telemetry and verdict.action is not FrameAction.DELIVER:
            self._publish_fate(origin, envelope, verdict)
        if verdict.action is FrameAction.DELIVER:
            self._deliver(envelope)
        elif verdict.action is FrameAction.DROP:
            pass
        elif verdict.action is FrameAction.DUPLICATE:
            self._deliver(envelope)
            self._deliver(envelope)
        elif verdict.action is FrameAction.REPLACE:
            for sub in verdict.substitutes:
                self._deliver(sub)
        elif verdict.action is FrameAction.DELAY:
            # Held frames ride the event loop's timer wheel; frames with
            # shorter holds overtake longer ones, so DELAY doubles as
            # reordering.  Under a virtual-time loop this is exact and
            # deterministic.
            asyncio.get_running_loop().call_later(
                verdict.hold, self._deliver, envelope
            )

    def _publish_fate(self, origin: str, envelope: Envelope, verdict) -> None:
        """Emit the telemetry event matching a non-DELIVER verdict."""
        label = envelope.label.name
        fid = frame_id(envelope)
        recipient = envelope.recipient
        if verdict.action is FrameAction.DROP:
            event = FrameDropped(origin, recipient, label, fid)
        elif verdict.action is FrameAction.DUPLICATE:
            event = FrameDuplicated(origin, recipient, label, fid)
        elif verdict.action is FrameAction.REPLACE:
            event = FrameReplaced(
                origin, recipient, label, fid, len(verdict.substitutes)
            )
        elif verdict.action is FrameAction.DELAY:
            event = FrameDelayed(origin, recipient, label, fid, verdict.hold)
        else:  # pragma: no cover - exhaustive over non-DELIVER actions
            return
        self._telemetry.emit(event)

    async def deliver_raw(self, envelope: Envelope) -> None:
        """Adversary-injected delivery: no observation, no policy."""
        self.frames_routed += 1
        self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        endpoint = self._endpoints.get(envelope.recipient)
        if endpoint is not None:
            endpoint._enqueue(envelope)
        # Unknown recipient: the frame vanishes, as on a real network.

    def _detach(self, address: str) -> None:
        self._endpoints.pop(address, None)

    @property
    def addresses(self) -> list[str]:
        """Currently attached addresses."""
        return sorted(self._endpoints)
