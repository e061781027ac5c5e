"""Tests for the TCP transport."""

import asyncio
import gc
import logging
import socket
import struct

import pytest

from repro.exceptions import ConnectionClosed
from repro.net.tcp import TcpMemberEndpoint, TcpTransport
from repro.wire.labels import Label
from repro.wire.message import Envelope


def run(coro):
    return asyncio.run(coro)


class TestTcpTransport:
    def test_member_to_leader(self):
        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            member = await transport.attach("alice")
            await member.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"hello")
            )
            envelope = await asyncio.wait_for(leader.recv(), 2)
            await member.close()
            await leader.close()
            return envelope

        envelope = run(scenario())
        assert envelope.sender == "alice"
        assert envelope.body == b"hello"

    def test_leader_replies_via_learned_route(self):
        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            member = await transport.attach("alice")
            await member.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"hi")
            )
            await leader.recv()
            await leader.send(
                Envelope(Label.AUTH_KEY_DIST, "leader", "alice", b"reply")
            )
            envelope = await asyncio.wait_for(member.recv(), 2)
            await member.close()
            await leader.close()
            return envelope

        assert run(scenario()).body == b"reply"

    def test_unroutable_frame_dropped(self):
        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            # No member registered: send is a silent no-op.
            await leader.send(
                Envelope(Label.ADMIN_MSG, "leader", "ghost", b"x")
            )
            await leader.close()

        run(scenario())

    def test_multiple_members(self):
        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            members = {}
            for name in ("a", "b", "c"):
                members[name] = await transport.attach(name)
                await members[name].send(
                    Envelope(Label.AUTH_INIT_REQ, name, "leader", b"")
                )
            senders = set()
            for _ in range(3):
                envelope = await asyncio.wait_for(leader.recv(), 2)
                senders.add(envelope.sender)
            # Reply to each and check routing separates streams.
            for name in senders:
                await leader.send(
                    Envelope(Label.ACK, "leader", name, name.encode())
                )
            bodies = {}
            for name, member in members.items():
                bodies[name] = (await asyncio.wait_for(member.recv(), 2)).body
            for member in members.values():
                await member.close()
            await leader.close()
            return senders, bodies

        senders, bodies = run(scenario())
        assert senders == {"a", "b", "c"}
        assert bodies == {"a": b"a", "b": b"b", "c": b"c"}

    def test_large_frame(self):
        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            member = await transport.attach("alice")
            big = bytes(200_000)
            await member.send(
                Envelope(Label.APP_DATA, "alice", "leader", big)
            )
            envelope = await asyncio.wait_for(leader.recv(), 5)
            await member.close()
            await leader.close()
            return len(envelope.body)

        assert run(scenario()) == 200_000


class TestTcpEdgeCases:
    """Adversarial stream shapes: oversized frames, mid-frame death,
    route theft, and a saturated leader mailbox."""

    def test_oversized_frame_rejected(self):
        """A length header past the cap must drop the link, not allocate."""
        import struct

        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", transport._port
            )
            writer.write(struct.pack(">I", (1 << 24) + 1))
            writer.write(b"\x00" * 64)
            await writer.drain()
            # The leader drops the link; our end sees EOF eventually.
            data = await asyncio.wait_for(reader.read(), 2)
            writer.close()
            await leader.close()
            return data

        assert run(scenario()) == b""

    def test_mid_frame_disconnect(self):
        """A peer dying halfway through a frame must not wedge or kill
        the leader — other members keep working."""
        import struct

        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            _, writer = await asyncio.open_connection(
                "127.0.0.1", transport._port
            )
            # Announce a 1000-byte frame, send 10 bytes, hang up.
            writer.write(struct.pack(">I", 1000) + b"\x00" * 10)
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.05)
            # A healthy member still gets through.
            member = await transport.attach("alice")
            await member.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"ok")
            )
            envelope = await asyncio.wait_for(leader.recv(), 2)
            await member.close()
            await leader.close()
            return envelope.body

        assert run(scenario()) == b"ok"

    def test_garbage_frame_drops_link_quietly(self):
        """Undecodable bytes inside a well-formed length prefix are a
        CodecError — an expected stream error, not a crash."""
        import struct

        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", transport._port
            )
            payload = b"\xff" * 32
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), 2)
            writer.close()
            await leader.close()
            return data

        assert run(scenario()) == b""

    def test_route_reclaim_telemetry(self):
        """A second link claiming an existing return route is observable."""
        from repro.telemetry.events import EventBus, RouteReclaimed

        async def scenario():
            bus = EventBus()
            seen = []
            bus.subscribe(
                lambda r: seen.append(r.event)
                if isinstance(r.event, RouteReclaimed) else None
            )
            transport = TcpTransport(port=0, telemetry=bus)
            leader = await transport.attach("leader")
            honest = await transport.attach("alice")
            await honest.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"")
            )
            await leader.recv()
            # A different connection claims alice's return route.
            thief = await transport.attach("mallory-socket")
            await thief.send(
                Envelope(Label.APP_DATA, "alice", "leader", b"stolen")
            )
            await leader.recv()
            await honest.close()
            await thief.close()
            await leader.close()
            return seen

        seen = run(scenario())
        assert len(seen) == 1
        assert seen[0].peer == "alice"

    def test_unroutable_telemetry(self):
        from repro.telemetry.events import EventBus, FrameUnroutable

        async def scenario():
            bus = EventBus()
            seen = []
            bus.subscribe(
                lambda r: seen.append(r.event)
                if isinstance(r.event, FrameUnroutable) else None
            )
            transport = TcpTransport(port=0, telemetry=bus)
            leader = await transport.attach("leader")
            await leader.send(
                Envelope(Label.ADMIN_MSG, "leader", "ghost", b"x")
            )
            await leader.close()
            return seen

        seen = run(scenario())
        assert len(seen) == 1
        assert seen[0].recipient == "ghost"
        assert seen[0].label == "ADMIN_MSG"

    def test_bounded_mailbox_overflow_sheds(self):
        """With a bounded mailbox the leader sheds instead of growing."""
        from repro.overload.mailbox import BoundedMailbox

        async def scenario():
            mailbox = BoundedMailbox("leader", capacity=4)
            transport = TcpTransport(port=0, mailbox=mailbox)
            leader = await transport.attach("leader")
            member = await transport.attach("mallory")
            for i in range(10):
                await member.send(
                    Envelope(Label.APP_DATA, "mallory", "leader", bytes([i]))
                )
            # Let the server task ingest everything before reading.
            for _ in range(50):
                await asyncio.sleep(0.01)
                if mailbox.stats.offered >= 10:
                    break
            received = []
            while mailbox.depth:
                received.append(await asyncio.wait_for(leader.recv(), 2))
            await member.close()
            await leader.close()
            return mailbox.stats, received

        stats, received = run(scenario())
        assert stats.offered == 10
        assert stats.accepted == 4
        assert stats.shed_capacity == 6
        assert len(received) == 4

    def test_recv_wakes_on_mailbox_arrival(self):
        """A recv() parked on an empty bounded mailbox must wake when
        a frame lands (and unblock cleanly on close)."""
        from repro.overload.mailbox import BoundedMailbox

        async def scenario():
            mailbox = BoundedMailbox("leader", capacity=4)
            transport = TcpTransport(port=0, mailbox=mailbox)
            leader = await transport.attach("leader")
            member = await transport.attach("alice")
            waiter = asyncio.create_task(leader.recv())
            await asyncio.sleep(0.02)
            await member.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"late")
            )
            envelope = await asyncio.wait_for(waiter, 2)
            await member.close()
            await leader.close()
            return envelope.body

        assert run(scenario()) == b"late"

    def test_leader_closes_first_and_leaves_nothing_behind(
        self, caplog, capfd
    ):
        """Closing the leader endpoint before its clients must end every
        per-connection handler — also the one of a link that never sent
        a frame — instead of leaving them for the loop's teardown to
        cancel (which asyncio reports as 'Exception in callback …
        CancelledError')."""
        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            idle = await transport.attach("idle")
            active = await transport.attach("alice")
            await active.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"x")
            )
            await asyncio.wait_for(leader.recv(), 2)
            await asyncio.wait_for(leader.close(), 2)
            pending = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            # The clients see EOF: the leader closed their links too.
            eofs = 0
            for member in (idle, active):
                try:
                    await asyncio.wait_for(member.recv(), 2)
                except ConnectionClosed:
                    eofs += 1
                await member.close()
            return pending, eofs

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            pending, eofs = run(scenario())
        assert pending == []
        assert eofs == 2
        assert caplog.records == []
        assert capfd.readouterr().err == ""


def framed(*envelopes: Envelope) -> bytes:
    """The bytes a link puts on the socket for ``envelopes``."""
    return b"".join(
        struct.pack(">I", len(raw)) + raw
        for raw in (envelope.to_bytes() for envelope in envelopes)
    )


class _Intake:
    """A leader mailbox whose ``offer`` fails: a bug in frame intake."""

    def __init__(self) -> None:
        self.offered = 0

    def offer(self, envelope, now):
        self.offered += 1
        raise LookupError("intake bug")

    def take(self):
        return None


class TestTcpFraming:
    """What the link owes its callers however the bytes are cut, and
    whatever happens inside it: frames whole and in order, a bug never
    mistaken for a disconnect, a returned ``send`` that is on its way,
    and back-pressure that parks the sender."""

    def test_intake_exception_is_loud_closes_link_and_propagates(self):
        from repro.telemetry.events import EventBus, TransportError

        async def scenario():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context.get("exception"))
            )
            bus = EventBus()
            seen = []
            bus.subscribe(
                lambda r: seen.append(r.event)
                if isinstance(r.event, TransportError) else None
            )
            intake = _Intake()
            transport = TcpTransport(port=0, mailbox=intake, telemetry=bus)
            leader = await transport.attach("leader")
            member = await transport.attach("alice")
            await member.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"x")
            )
            # The leader drops the link: the member sees it end.
            with pytest.raises(ConnectionClosed):
                await asyncio.wait_for(member.recv(), 2)
            await member.close()
            await leader.close()
            gc.collect()  # an exception kept by a dead task reports when freed
            await asyncio.sleep(0)
            return intake.offered, seen, reported

        offered, seen, reported = run(scenario())
        assert offered == 1
        assert len(seen) == 1
        assert seen[0].peer == "alice" and "intake bug" in seen[0].error
        # Not swallowed: the exception itself reaches the loop's handler.
        assert any(isinstance(exc, LookupError) for exc in reported)

    def test_frames_cut_one_byte_at_a_time_arrive_whole(self):
        frames = [
            Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"first"),
            Envelope(Label.APP_DATA, "alice", "leader", bytes(300)),
        ]

        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            _, writer = await asyncio.open_connection(
                "127.0.0.1", transport._port
            )
            for i, byte in enumerate(framed(*frames)):
                writer.write(bytes([byte]))
                await writer.drain()
                if i % 16 == 0:
                    await asyncio.sleep(0.001)  # let each cut land alone
            received = [await asyncio.wait_for(leader.recv(), 2)
                        for _ in frames]
            writer.close()
            await leader.close()
            return received

        assert run(scenario()) == frames

    def test_fifty_frames_in_one_write_arrive_in_order(self):
        """Both directions: into the leader's link from a raw client, and
        into a member's link from a raw server."""
        up = [Envelope(Label.APP_DATA, "alice", "leader", bytes([i]) * i)
              for i in range(50)]
        down = [Envelope(Label.ADMIN_MSG, "leader", "alice", bytes([i]) * i)
                for i in range(50)]

        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            _, writer = await asyncio.open_connection(
                "127.0.0.1", transport._port
            )
            writer.write(framed(*up))
            into_leader = [await asyncio.wait_for(leader.recv(), 2)
                           for _ in up]
            writer.close()
            await leader.close()

            async def serve(reader, writer):
                writer.write(framed(*down))
                await writer.drain()
                await reader.read()  # until the member hangs up
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            member = TcpMemberEndpoint("alice")
            await member.connect("127.0.0.1",
                                 server.sockets[0].getsockname()[1])
            into_member = [await asyncio.wait_for(member.recv(), 2)
                           for _ in down]
            await member.close()
            server.close()
            await server.wait_closed()
            return into_leader, into_member

        into_leader, into_member = run(scenario())
        assert into_leader == up
        assert into_member == down

    def test_send_then_close_in_one_turn_still_delivers(self):
        async def scenario():
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            member = await transport.attach("alice")
            await member.send(
                Envelope(Label.AUTH_INIT_REQ, "alice", "leader", b"hi")
            )
            up = await asyncio.wait_for(leader.recv(), 2)
            # Leader to member, then the leader goes away at once.
            await leader.send(
                Envelope(Label.AUTH_KEY_DIST, "leader", "alice", b"last")
            )
            await leader.close()
            down = await asyncio.wait_for(member.recv(), 2)
            await member.close()

            # Member to leader, then the member goes away at once.
            transport = TcpTransport(port=0)
            leader = await transport.attach("leader")
            member = await transport.attach("bob")
            await member.send(
                Envelope(Label.AUTH_INIT_REQ, "bob", "leader", b"bye")
            )
            await member.close()
            late = await asyncio.wait_for(leader.recv(), 2)
            await leader.close()
            return up.body, down.body, late.body

        assert run(scenario()) == (b"hi", b"last", b"bye")

    def test_paused_transport_parks_send_until_it_resumes(self):
        """A peer that stops reading fills the socket buffers; ``send``
        then waits instead of queueing without bound, and finishes once
        the peer reads again."""
        frame = Envelope(Label.APP_DATA, "alice", "leader", bytes(1 << 20))
        # 32 MiB: past the kernel's socket buffers (Linux autotunes the
        # send side up to tcp_wmem's 4 MiB default) plus the high-water
        # mark, while a parked sender holds only one frame in memory.
        count = 32
        total = count * len(framed(frame))

        async def scenario():
            reading = asyncio.Event()
            got = asyncio.get_running_loop().create_future()

            async def serve(reader, writer):
                await reading.wait()
                size = 0
                while size < total and (chunk := await reader.read(1 << 16)):
                    size += len(chunk)
                got.set_result(size)
                writer.close()

            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            sock.bind(("127.0.0.1", 0))
            server = await asyncio.start_server(serve, sock=sock)
            member = TcpMemberEndpoint("alice")
            await member.connect("127.0.0.1", sock.getsockname()[1])

            async def send_all():
                for _ in range(count):
                    await member.send(frame)

            sender = asyncio.create_task(send_all())
            await asyncio.sleep(0.3)
            parked = not sender.done()
            reading.set()
            await asyncio.wait_for(sender, 10)
            size = await asyncio.wait_for(got, 10)
            await member.close()
            server.close()
            await server.wait_closed()
            return parked, size

        parked, size = run(scenario())
        assert parked
        assert size == total
