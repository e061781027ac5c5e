"""Asyncio member client: drives a MemberProtocol over any transport.

The client owns a background receive loop that feeds incoming envelopes
to the sans-IO core, sends whatever the core wants sent, and publishes
events to :attr:`events`.  High-level calls (:meth:`join`, :meth:`leave`,
:meth:`send_app`) are thin wrappers over the core's actions.
"""

from __future__ import annotations

import asyncio

from repro.crypto.rng import RandomSource
from repro.enclaves.common import Credentials, Event
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.exceptions import ConnectionClosed, ProtocolError
from repro.net.transport import Endpoint
from repro.telemetry.events import EventBus


class MemberClient:
    """A group member bound to a transport endpoint."""

    def __init__(
        self,
        credentials: Credentials,
        leader_id: str,
        endpoint: Endpoint,
        rng: RandomSource | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        self.protocol = MemberProtocol(
            credentials, leader_id, rng, telemetry=telemetry
        )
        self.endpoint = endpoint
        #: Every protocol event, in order; consumers drain this queue.
        self.events: asyncio.Queue[Event] = asyncio.Queue()
        self._state_changed = asyncio.Event()
        self._recv_task: asyncio.Task | None = None

    @property
    def user_id(self) -> str:
        return self.protocol.user_id

    @property
    def state(self) -> MemberState:
        return self.protocol.state

    @property
    def membership(self) -> set[str]:
        return set(self.protocol.membership)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the background receive loop."""
        if self._recv_task is None:
            self._recv_task = asyncio.get_running_loop().create_task(
                self._recv_loop()
            )

    async def stop(self) -> None:
        """Stop the receive loop and close the endpoint."""
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except asyncio.CancelledError:
                pass
            self._recv_task = None
        await self.endpoint.close()

    async def _recv_loop(self) -> None:
        try:
            while True:
                envelope = await self.endpoint.recv()
                outgoing, events = self.protocol.handle(envelope)
                for out in outgoing:
                    await self.endpoint.send(out)
                for event in events:
                    self.events.put_nowait(event)
                self._state_changed.set()
                self._state_changed = asyncio.Event()
        except (ConnectionClosed, asyncio.CancelledError):
            pass

    # -- high-level operations -------------------------------------------------

    async def join(
        self,
        timeout: float = 5.0,
        retransmit_interval: float | None = None,
    ) -> None:
        """Authenticate and wait until connected with a group key.

        ``retransmit_interval`` enables loss recovery: while still
        waiting, the (byte-identical) AuthInitReq is re-sent every
        interval — on a lossy network joins then succeed eventually
        instead of failing on a single lost frame.

        Raises :class:`ProtocolError` on timeout (e.g., the leader denied
        us — the improved protocol denies *silently*, so denial and
        packet loss are indistinguishable by design).
        """
        self.start()
        await self.endpoint.send(self.protocol.start_join())

        async def _until_ready() -> None:
            while not (
                self.protocol.state is MemberState.CONNECTED
                and self.protocol.has_group_key
            ):
                await self._state_changed.wait()

        async def _retransmit_loop() -> None:
            assert retransmit_interval is not None
            # Stop as soon as the protocol leaves the joining state —
            # once keyed (or rejected) there is nothing left to re-send.
            while self.protocol.state is MemberState.WAITING_FOR_KEY:
                await asyncio.sleep(retransmit_interval)
                frame = self.protocol.retransmit_last()
                if frame is not None:
                    await self.endpoint.send(frame)

        retransmitter = (
            asyncio.get_running_loop().create_task(_retransmit_loop())
            if retransmit_interval is not None
            else None
        )
        try:
            await asyncio.wait_for(_until_ready(), timeout)
        except asyncio.TimeoutError:
            raise ProtocolError(
                f"{self.user_id}: join timed out (denied or lost)"
            ) from None
        finally:
            if retransmitter is not None:
                retransmitter.cancel()
                try:
                    await retransmitter
                except asyncio.CancelledError:
                    pass

    async def leave(self) -> None:
        """Send ReqClose and return to NotConnected."""
        await self.endpoint.send(self.protocol.start_leave())

    async def send_app(self, payload: bytes) -> None:
        """Send an application payload to the group (sealed under K_g)."""
        await self.endpoint.send(self.protocol.seal_app(payload))

    async def drain_events(self) -> list[Event]:
        """Return all currently queued events without waiting."""
        drained = []
        while not self.events.empty():
            drained.append(self.events.get_nowait())
        return drained
