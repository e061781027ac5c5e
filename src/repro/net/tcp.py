"""TCP transport.

Runs the same :class:`~repro.net.transport.Endpoint` interface over real
sockets so the examples can span processes.  Topology matches the paper's
architecture (Figure 1): the *leader* listens; each member dials the
leader and the resulting bidirectional stream is the member's
point-to-point link.  Frames are length-prefixed envelopes.

This transport is honest plumbing — the adversarial behaviours live in
:mod:`repro.net.memnet`/:mod:`repro.net.adversary`; over TCP the attacker
role can simply be played by another client sending forged envelopes,
since the leader trusts nothing about an envelope header anyway.

What the transport *does* own is its availability posture:

* The leader's mailbox can be **bounded** — pass a
  :class:`~repro.overload.mailbox.BoundedMailbox` and every accepted
  frame goes through priority classification and (optionally) per-sender
  fair-share admission, with typed ``FrameShed``/``QueueSaturated``
  telemetry instead of silent unbounded growth.  Without one, the seed
  behaviour (unbounded queue) is unchanged.
* Frame fates that used to be silent are now observable: an outbound
  frame with no live link emits
  :class:`~repro.telemetry.events.FrameUnroutable`; a peer claiming a
  return route another live link holds emits
  :class:`~repro.telemetry.events.RouteReclaimed`.
* Stream teardown is *narrow*: only expected stream errors (peer went
  away, malformed framing) end a link quietly.  Anything else emits
  :class:`~repro.telemetry.events.TransportError` and propagates —
  a bug in frame handling must never be swallowed as a disconnect.
"""

from __future__ import annotations

import asyncio
import struct

from repro.exceptions import CodecError, ConnectionClosed
from repro.net.transport import Endpoint, Transport
from repro.telemetry.events import (
    EventBus,
    FrameUnroutable,
    RouteReclaimed,
    TransportError,
    frame_id,
)
from repro.wire.message import Envelope

_MAX_FRAME = 1 << 24

#: Stream errors that legitimately end a link: the peer vanished, the
#: stream died mid-frame, or the peer sent bytes that do not frame.
_EXPECTED_STREAM_ERRORS = (
    ConnectionClosed,
    CodecError,
    ConnectionResetError,
    BrokenPipeError,
)


async def write_frame(writer: asyncio.StreamWriter, envelope: Envelope) -> None:
    """Write one length-prefixed envelope."""
    payload = envelope.to_bytes()
    writer.write(struct.pack(">I", len(payload)) + payload)
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> Envelope:
    """Read one length-prefixed envelope."""
    try:
        header = await reader.readexactly(4)
        (length,) = struct.unpack(">I", header)
        if length > _MAX_FRAME:
            raise ConnectionClosed("oversized frame")
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("stream ended") from exc
    return Envelope.from_bytes(payload)


class TcpLeaderEndpoint(Endpoint):
    """The leader's endpoint: a TCP server accepting member links.

    Incoming frames from all links are merged into one receive queue
    (the leader's mailbox).  Outgoing frames are routed to the link whose
    peer last claimed the envelope's recipient address; unroutable frames
    are dropped — loudly, when a telemetry bus is attached.

    With ``mailbox`` (a :class:`~repro.overload.mailbox.BoundedMailbox`)
    the receive queue is bounded and admission-controlled; without one
    it is the seed's unbounded queue.
    """

    def __init__(
        self,
        address: str,
        *,
        mailbox=None,
        telemetry: EventBus | None = None,
    ) -> None:
        self._address = address
        self._queue: asyncio.Queue[Envelope] = asyncio.Queue()
        self._mailbox = mailbox
        self._arrival = asyncio.Event()
        self._telemetry = telemetry
        self._links: dict[str, asyncio.StreamWriter] = {}
        #: Every live connection's handler task and its writer — also
        #: links that never sent a frame, which ``_links`` does not know.
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
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
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def port(self) -> int:
        """The actual listening port (useful with port 0)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer_addr: str | None = None
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            while not self._closed:
                envelope = await read_frame(reader)
                # Learn/refresh the claimed address for return routing.
                if envelope.sender:
                    holder = self._links.get(envelope.sender)
                    if (holder is not None and holder is not writer
                            and self._telemetry):
                        # Another live link held this return route: a
                        # reconnect, or an insider stealing a route.
                        self._telemetry.emit(RouteReclaimed(
                            self._address, envelope.sender,
                            frame_id(envelope),
                        ))
                    peer_addr = envelope.sender
                    self._links[peer_addr] = writer
                self._enqueue(envelope)
        except _EXPECTED_STREAM_ERRORS:
            pass  # the peer went away / sent garbage: just drop the link
        except Exception as exc:
            # Anything else is a bug, not a disconnect — surface it.
            if self._telemetry:
                self._telemetry.emit(TransportError(
                    self._address, peer_addr or "", repr(exc)
                ))
            raise
        finally:
            if peer_addr is not None and self._links.get(peer_addr) is writer:
                del self._links[peer_addr]
            del self._handlers[task]
            writer.close()

    def _enqueue(self, envelope: Envelope) -> None:
        if self._mailbox is not None:
            now = asyncio.get_running_loop().time()
            if self._mailbox.offer(envelope, now):
                self._arrival.set()
            return
        self._queue.put_nowait(envelope)

    async def send(self, envelope: Envelope) -> None:
        if self._closed:
            raise ConnectionClosed("leader endpoint closed")
        writer = self._links.get(envelope.recipient)
        if writer is None:
            # Unroutable -> dropped, as on an insecure network — but
            # never silently when someone is watching.
            if self._telemetry:
                self._telemetry.emit(FrameUnroutable(
                    self._address, envelope.recipient,
                    envelope.label.name, frame_id(envelope),
                ))
            return
        try:
            await write_frame(writer, envelope)
        except (ConnectionResetError, OSError):
            self._links.pop(envelope.recipient, None)

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
        # Closing a link's writer ends its handler's pending read with
        # EOF, so each handler finishes on its own; wait for all of them
        # rather than leave tasks for the loop's teardown to cancel.
        handlers = list(self._handlers)
        for writer in self._handlers.values():
            writer.close()
        if handlers:
            await asyncio.gather(*handlers)
        self._links.clear()
        if self._server is not None:
            await self._server.wait_closed()
        self._arrival.set()  # release a recv() parked on the mailbox


class TcpMemberEndpoint(Endpoint):
    """A member's endpoint: one TCP connection to the leader."""

    def __init__(self, address: str) -> None:
        self._address = address
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._closed = False

    @property
    def address(self) -> str:
        return self._address

    async def connect(self, host: str, port: int) -> None:
        """Dial the leader."""
        self._reader, self._writer = await asyncio.open_connection(host, port)

    async def send(self, envelope: Envelope) -> None:
        if self._closed or self._writer is None:
            raise ConnectionClosed("member endpoint closed")
        await write_frame(self._writer, envelope)

    async def recv(self) -> Envelope:
        if self._closed or self._reader is None:
            raise ConnectionClosed("member endpoint closed")
        return await read_frame(self._reader)

    async def close(self) -> None:
        self._closed = True
        if self._writer is not None:
            self._writer.close()


class TcpTransport(Transport):
    """Transport facade used by the examples.

    ``attach(leader_id)`` must be called first to start the server; later
    ``attach`` calls dial it.  ``mailbox``/``telemetry`` are handed to
    the leader endpoint (members are point-to-point and need neither).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        mailbox=None,
        telemetry: EventBus | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._mailbox = mailbox
        self._telemetry = telemetry
        self._leader: TcpLeaderEndpoint | None = None

    async def attach(self, address: str) -> Endpoint:
        if self._leader is None:
            leader = TcpLeaderEndpoint(
                address, mailbox=self._mailbox, telemetry=self._telemetry
            )
            await leader.start(self._host, self._port)
            self._port = leader.port
            self._leader = leader
            return leader
        member = TcpMemberEndpoint(address)
        await member.connect(self._host, self._port)
        return member
