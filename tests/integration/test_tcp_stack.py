"""Integration: the full protocol stack over real TCP sockets."""

import asyncio

from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.itgm import (
    Follower,
    GroupLeader,
    LeaderRuntime,
    ResilientMemberClient,
    TextPayload,
)
from repro.net.tcp import TcpTransport


def run(coro):
    return asyncio.run(coro)


async def joined(creds, transport):
    """A member shell over its own TCP connection, keyed by the leader."""
    client = ResilientMemberClient(
        {"leader": Follower(creds, "leader")}, transport
    )
    await client.join()
    await asyncio.wait_for(client.wait_keyed(), 5)
    return client


async def start_leader(leader, transport):
    runtime = LeaderRuntime(
        leader, await transport.attach("leader"), heartbeat_interval=0.5
    )
    runtime.start()
    return runtime


class TestTcpEndToEnd:
    def test_join_chat_leave_over_tcp(self):
        async def scenario():
            transport = TcpTransport(port=0)
            directory = UserDirectory()
            creds = {n: directory.register_password(n, f"pw-{n}")
                     for n in ("ann", "ben")}
            leader = GroupLeader("leader", directory)
            runtime = await start_leader(leader, transport)
            try:
                ann = await joined(creds["ann"], transport)
                ben = await joined(creds["ben"], transport)
                assert leader.members == ["ann", "ben"]

                await ann.send_app(b"over real sockets")
                await asyncio.sleep(0.1)
                events = []
                while not ben.events.empty():
                    events.append(ben.events.get_nowait())
                assert AppMessage("ann", b"over real sockets") in events

                await runtime.broadcast_admin(TextPayload("notice"))
                await asyncio.sleep(0.1)
                for client in (ann, ben):
                    assert TextPayload("notice") in \
                        client.follower.protocol.admin_log

                await ann.leave()
                await asyncio.sleep(0.1)
                assert leader.members == ["ben"]
                await ann.stop()
                await ben.stop()
            finally:
                await runtime.stop()

        run(scenario())

    def test_tcp_attacker_client_rejected(self):
        """A hostile TCP client spamming forged frames cannot join or
        disturb the group."""
        async def scenario():
            from repro.wire.labels import Label
            from repro.wire.message import Envelope

            transport = TcpTransport(port=0)
            directory = UserDirectory()
            creds = directory.register_password("alice", "pw")
            leader = GroupLeader("leader", directory)
            runtime = await start_leader(leader, transport)
            try:
                alice = await joined(creds, transport)

                evil = await transport.attach("evil")
                # Claim to be alice; send garbage under every label.
                for label in (Label.AUTH_INIT_REQ, Label.AUTH_ACK_KEY,
                              Label.REQ_CLOSE, Label.ACK, Label.APP_DATA):
                    await evil.send(
                        Envelope(label, "alice", "leader", b"\x00" * 64)
                    )
                await asyncio.sleep(0.2)
                assert leader.members == ["alice"]
                await evil.close()
                await alice.stop()
            finally:
                await runtime.stop()

        run(scenario())
