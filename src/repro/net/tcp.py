"""TCP transport.

Runs the same :class:`~repro.net.transport.Endpoint` interface over real
sockets so the examples can span processes.  Topology matches the paper's
architecture (Figure 1): the *leader* listens; each member dials it, and
that connection, one :class:`_Link` protocol at each end, is the member's
point-to-point link carrying length-prefixed envelopes.

When ``send`` returns, the frame sits in the send buffer (the kernel's
or the transport's) behind every earlier frame on its link, and a
``close`` right after still writes it out; that the peer reads it is not
promised.  ``send`` parks only while that buffer is over its high-water
mark (``pause_writing`` until ``resume_writing`` or the link's loss),
which is how a peer that stops reading holds back its sender.

A peer that goes away (also mid-frame), announces a frame over 16 MiB
(dropped before anything is allocated) or sends bytes that do not frame
ends its link quietly.  Anything else raised while taking a frame in
emits :class:`~repro.telemetry.events.TransportError`, closes the link
and reaches the loop's exception handler: a bug is never a disconnect.
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque

from repro.exceptions import CodecError, ConnectionClosed
from repro.net.transport import Endpoint, Transport
from repro.telemetry.events import (
    EventBus, FrameUnroutable, RouteReclaimed, TransportError, frame_id,
)
from repro.wire.message import Envelope

_MAX_FRAME = 1 << 24
_LEN = struct.Struct(">I")


class _Link(asyncio.Protocol):
    """One TCP connection, at either end.  Its endpoint's ``_take`` gets
    each whole frame as it arrives, ``_lost`` the end, ``_telemetry`` a bug."""

    def __init__(self, endpoint) -> None:
        self._endpoint = endpoint
        self.transport: asyncio.Transport | None = None
        self.peer = ""  # the sender this link last claimed (leader's end)
        self._tail, self._need = bytearray(), 0  # a partial frame, whole size
        self._writable = asyncio.Event()
        self._writable.set()
        self.lost = asyncio.Event()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self._endpoint._closed:
            transport.close()

    def data_received(self, data: bytes) -> None:
        if self._tail:
            self._tail += data
            if len(self._tail) < self._need:
                return
            data, self._tail = bytes(self._tail), bytearray()
        take, parse = self._endpoint._take, Envelope.from_bytes
        at, end = 0, len(data)
        try:
            while end - at >= 4:
                (length,) = _LEN.unpack_from(data, at)
                if length > _MAX_FRAME:
                    raise ConnectionClosed("oversized frame")
                stop = at + 4 + length
                if stop > end:
                    break
                take(self, parse(data[at + 4:stop]))
                at = stop
        except (ConnectionClosed, CodecError):
            self.transport.close()  # bytes that do not frame: drop the link
            return
        except Exception as exc:
            if bus := self._endpoint._telemetry:
                bus.emit(TransportError(
                    self._endpoint.address, self.peer, repr(exc)))
            raise  # the transport reports it and closes the link
        if at < end:
            self._tail[:] = data[at:]
            self._need = stop - at if end - at >= 4 else 4

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def connection_lost(self, exc: Exception | None) -> None:
        self._writable.set()  # release a parked send
        self._endpoint._lost(self)
        self.lost.set()

    async def send(self, envelope: Envelope) -> None:
        """Write one frame; wait only while the transport is paused."""
        payload = envelope.to_bytes()
        self.transport.write(_LEN.pack(len(payload)) + payload)
        if not self._writable.is_set():
            await self._writable.wait()


class TcpLeaderEndpoint(Endpoint):
    """The leader's endpoint: a TCP server whose member links all feed
    one receive queue — bounded and admission-controlled when given a
    ``mailbox``.  A frame out goes to the link whose peer last claimed
    its recipient."""

    def __init__(self, address: str, *, mailbox=None,
                 telemetry: EventBus | None = None) -> None:
        self._address = address
        self._queue: asyncio.Queue[Envelope] = asyncio.Queue()
        self._mailbox = mailbox
        self._arrival = asyncio.Event()
        self._telemetry = telemetry
        self._links: dict[str, _Link] = {}
        #: Every link not yet lost, also one ``_links`` does not know.
        self._open: set[_Link] = set()
        self._server: asyncio.AbstractServer | None = None
        self._closed = False

    @property
    def address(self) -> str:
        return self._address

    @property
    def mailbox(self):
        return self._mailbox

    async def start(self, host: str, port: int) -> None:
        """Begin listening for member connections."""
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, host, port
        )

    @property
    def port(self) -> int:
        """The actual listening port (useful with port 0)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    def _accept(self) -> _Link:
        link = _Link(self)
        self._open.add(link)
        return link

    def _take(self, link: _Link, envelope: Envelope) -> None:
        # Learn/refresh the claimed address for return routing.
        sender = envelope.sender
        if sender:
            holder = self._links.get(sender)
            if holder is not link:
                if holder is not None and self._telemetry:
                    # A reconnect, or an insider stealing a live route.
                    self._telemetry.emit(RouteReclaimed(
                        self._address, sender, frame_id(envelope)))
                self._links[sender] = link
            link.peer = sender
        if self._mailbox is None:
            self._queue.put_nowait(envelope)
        elif self._mailbox.offer(envelope, asyncio.get_running_loop().time()):
            self._arrival.set()

    def _lost(self, link: _Link) -> None:
        if self._links.get(link.peer) is link:
            del self._links[link.peer]
        self._open.discard(link)

    async def send(self, envelope: Envelope) -> None:
        if self._closed:
            raise ConnectionClosed("leader endpoint closed")
        link = self._links.get(envelope.recipient)
        if link is None or link.transport.is_closing():
            # Unroutable -> dropped, as on an insecure network — but
            # never silently when someone is watching.
            self._links.pop(envelope.recipient, None)
            if self._telemetry:
                self._telemetry.emit(FrameUnroutable(
                    self._address, envelope.recipient,
                    envelope.label.name, frame_id(envelope),
                ))
            return
        await link.send(envelope)

    async def recv(self) -> Envelope:
        if self._closed:
            raise ConnectionClosed("leader endpoint closed")
        if self._mailbox is None:
            return await self._queue.get()
        while True:
            envelope = self._mailbox.take()
            if envelope is not None:
                return envelope
            self._arrival.clear()
            await self._arrival.wait()
            if self._closed:
                raise ConnectionClosed("leader endpoint closed")

    async def close(self) -> None:
        self._closed = True
        if self._server is not None:
            self._server.close()
        # Close every link and wait for its end, so nothing is left behind
        # (a link accepted but not yet made closes as it is made).
        links = [link for link in self._open if link.transport is not None]
        for link in links:
            link.transport.close()
        await asyncio.gather(*(link.lost.wait() for link in links))
        self._links.clear()
        if self._server is not None:
            await self._server.wait_closed()
        self._arrival.set()  # release a recv() parked on the mailbox


class TcpMemberEndpoint(Endpoint):
    """A member's endpoint: one TCP connection to the leader."""

    def __init__(self, address: str) -> None:
        self._address = address
        self._telemetry = None  # a frame-intake bug still reaches the loop
        self._link: _Link | None = None
        self._frames: deque[Envelope] = deque()
        self._arrival = asyncio.Event()
        self._closed = False

    @property
    def address(self) -> str:
        return self._address

    async def connect(self, host: str, port: int) -> None:
        """Dial the leader."""
        _, self._link = await asyncio.get_running_loop().create_connection(
            lambda: _Link(self), host, port
        )

    def _take(self, link: _Link, envelope: Envelope) -> None:
        self._frames.append(envelope)
        self._arrival.set()

    def _lost(self, link: _Link) -> None:
        self._arrival.set()  # release a parked recv()

    async def send(self, envelope: Envelope) -> None:
        link = self._link
        if self._closed or link is None or link.transport.is_closing():
            raise ConnectionClosed("member endpoint closed")
        await link.send(envelope)

    async def recv(self) -> Envelope:
        while not self._closed and self._link is not None:
            if self._frames:
                return self._frames.popleft()
            if self._link.lost.is_set():
                break
            self._arrival.clear()
            await self._arrival.wait()
        raise ConnectionClosed("member endpoint closed")

    async def close(self) -> None:
        self._closed = True
        if self._link is not None:
            self._link.transport.close()
            await self._link.lost.wait()


class TcpTransport(Transport):
    """Transport facade used by the examples: the first ``attach`` starts
    the leader's server, with ``mailbox``/``telemetry``; each later one
    dials it (members are point-to-point and need neither)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 mailbox=None, telemetry: EventBus | None = None) -> None:
        self._host = host
        self._port = port
        self._mailbox = mailbox
        self._telemetry = telemetry
        self._leader: TcpLeaderEndpoint | None = None

    async def attach(self, address: str) -> Endpoint:
        if self._leader is None:
            leader = TcpLeaderEndpoint(address, mailbox=self._mailbox,
                                       telemetry=self._telemetry)
            await leader.start(self._host, self._port)
            self._port = leader.port
            self._leader = leader
            return leader
        member = TcpMemberEndpoint(address)
        await member.connect(self._host, self._port)
        return member
