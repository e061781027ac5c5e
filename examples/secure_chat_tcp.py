#!/usr/bin/env python3
"""Secure group chat over real TCP sockets.

Runs the leader as a TCP server and three members as TCP clients — all
inside one process for the demo, but the wire traffic is genuine
length-prefixed frames over loopback sockets, so the same code splits
across machines by pointing members at the leader's host:port.

Run:  python examples/secure_chat_tcp.py
"""

import asyncio

from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.itgm import (
    Follower,
    GroupLeader,
    LeaderRuntime,
    ResilientMemberClient,
)
from repro.net.tcp import TcpTransport


async def main() -> None:
    transport = TcpTransport(host="127.0.0.1", port=0)

    directory = UserDirectory()
    creds = {
        name: directory.register_password(name, f"{name}-secret")
        for name in ("ann", "ben", "cam")
    }

    # First attach starts the TCP server (the leader's endpoint).
    leader = GroupLeader("leader", directory)
    leader_endpoint = await transport.attach("leader")
    runtime = LeaderRuntime(leader, leader_endpoint, heartbeat_interval=0.5)
    runtime.start()
    print(f"leader listening on 127.0.0.1:{transport._port}")

    clients = {}
    for name in ("ann", "ben", "cam"):
        # The client's endpoint dials the leader.
        client = ResilientMemberClient(
            {"leader": Follower(creds[name], "leader")}, transport
        )
        await client.join()
        await asyncio.wait_for(client.wait_keyed(), 5)
        clients[name] = client
        print(f"{name} authenticated over TCP; members = {leader.members}")

    # A short scripted conversation.
    script = [
        ("ann", b"anyone up for lunch?"),
        ("ben", b"yes! the usual place"),
        ("cam", b"save me a seat"),
    ]
    for sender, text in script:
        await clients[sender].send_app(text)
        await asyncio.sleep(0.05)
        for name, client in clients.items():
            if name == sender:
                continue
            while not client.events.empty():
                event = client.events.get_nowait()
                # The leader's own APP_DATA frames are its heartbeats.
                if isinstance(event, AppMessage) and event.sender != "leader":
                    print(f"  [{name}'s screen] {event.sender}: "
                          f"{event.payload.decode()}")

    for client in clients.values():
        await client.leave()
    await asyncio.sleep(0.05)
    print(f"everyone left; members = {leader.members}")

    for client in clients.values():
        await client.stop()
    await runtime.stop()


if __name__ == "__main__":
    asyncio.run(main())
