"""Asyncio runtime: drives a sans-IO core over any transport."""

from __future__ import annotations

import asyncio

from repro.enclaves.common import Event
from repro.enclaves.itgm.leader import GroupLeader
from repro.exceptions import ConnectionClosed
from repro.net.transport import Endpoint


class LeaderRuntime:
    """A sans-IO core bound to a transport endpoint.

    The receive loop (envelope in, envelopes out) needs only
    ``handle(envelope) -> (out, events)``, so it drives a group leader,
    a shard host or a legacy core alike.  The optional timer loops call
    :meth:`~repro.enclaves.itgm.leader.GroupLeader.tick` (periodic
    rekeying) and ``heartbeat``, which a shard host also has.
    """

    def __init__(
        self,
        leader: GroupLeader,
        endpoint: Endpoint,
        tick_interval: float | None = None,
        heartbeat_interval: float | None = None,
    ) -> None:
        self.leader = leader
        self.endpoint = endpoint
        self.events: asyncio.Queue[Event] = asyncio.Queue()
        self._tick_interval = tick_interval
        self._heartbeat_interval = heartbeat_interval
        self._tasks: list[asyncio.Task] = []

    def start(self) -> None:
        """Start the receive (and optional tick/heartbeat) loops."""
        if self._tasks:
            return
        loop = asyncio.get_running_loop()
        self._tasks.append(loop.create_task(self._recv_loop()))
        if self._tick_interval is not None:
            self._tasks.append(loop.create_task(self._tick_loop()))
        if self._heartbeat_interval is not None:
            self._tasks.append(loop.create_task(self._heartbeat_loop()))

    async def stop(self) -> None:
        """Cancel loops and close the endpoint."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        await self.endpoint.close()

    async def _recv_loop(self) -> None:
        try:
            while True:
                envelope = await self.endpoint.recv()
                outgoing, events = self.leader.handle(envelope)
                for out in outgoing:
                    await self.endpoint.send(out)
                for event in events:
                    self.events.put_nowait(event)
        except (ConnectionClosed, asyncio.CancelledError):
            pass

    async def _tick_loop(self) -> None:
        assert self._tick_interval is not None
        try:
            while True:
                await asyncio.sleep(self._tick_interval)
                for out in self.leader.tick():
                    await self.endpoint.send(out)
        except (ConnectionClosed, asyncio.CancelledError):
            pass

    async def _heartbeat_loop(self) -> None:
        assert self._heartbeat_interval is not None
        try:
            while True:
                await asyncio.sleep(self._heartbeat_interval)
                for out in self.leader.heartbeat():
                    await self.endpoint.send(out)
        except (ConnectionClosed, asyncio.CancelledError):
            pass

    async def rekey_now(self) -> None:
        """Rotate the group key immediately."""
        for out in self.leader.rekey_now():
            await self.endpoint.send(out)

    async def broadcast_admin(self, payload) -> None:
        """Queue an admin payload to every member and pump the channels."""
        for out in self.leader.broadcast_admin(payload):
            await self.endpoint.send(out)
