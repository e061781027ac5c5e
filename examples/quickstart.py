#!/usr/bin/env python3
"""Quickstart: a secure group session over the in-memory network.

Three users join a group run by a leader, exchange confidential
application messages relayed through the leader (Figure 1), watch
membership notifications arrive over the intrusion-tolerant admin
channel (§3.2), and leave — triggering rekeys per the leader's policy.

Run:  python examples/quickstart.py
"""

import asyncio

from repro.enclaves.common import (
    AppMessage,
    GroupKeyChanged,
    MemberJoined,
    MemberLeft,
    RekeyPolicy,
    UserDirectory,
)
from repro.enclaves.itgm import (
    Follower,
    GroupLeader,
    LeaderRuntime,
    ResilientMemberClient,
)
from repro.enclaves.itgm.leader import LeaderConfig
from repro.net import MemoryNetwork


def drain(client: ResilientMemberClient) -> list:
    """Every event the member has queued so far."""
    events = []
    while not client.events.empty():
        events.append(client.events.get_nowait())
    return events


async def main() -> None:
    net = MemoryNetwork()

    # The leader knows every potential member's password in advance
    # (the paper's long-term key assumption).
    directory = UserDirectory()
    creds = {
        name: directory.register_password(name, f"{name}-password")
        for name in ("alice", "bob", "carol")
    }

    leader = GroupLeader(
        "leader",
        directory,
        config=LeaderConfig(rekey_policy=RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE),
    )
    # Heartbeats keep the members' watchdogs quiet while nothing else
    # is said.
    runtime = LeaderRuntime(
        leader, await net.attach("leader"), heartbeat_interval=0.5
    )
    runtime.start()

    # Everyone joins: 3-message password authentication, then the group
    # key arrives over the authenticated admin channel.
    clients = {}
    for name in ("alice", "bob", "carol"):
        client = ResilientMemberClient(
            {"leader": Follower(creds[name], "leader")}, net
        )
        await client.join()
        await asyncio.wait_for(client.wait_keyed(), 5)
        clients[name] = client
        print(f"{name} joined; leader sees members = {leader.members}")

    await asyncio.sleep(0.05)
    alice_view = clients["alice"].follower.protocol.membership
    print(f"alice's view of the group: {sorted(alice_view)}")

    # Confidential group chat, relayed by the leader.
    await clients["alice"].send_app(b"hello group!")
    await asyncio.sleep(0.05)
    for name in ("bob", "carol"):
        for event in drain(clients[name]):
            # The leader's own APP_DATA frames are its heartbeats.
            if isinstance(event, AppMessage) and event.sender != "leader":
                print(f"{name} received from {event.sender}: "
                      f"{event.payload.decode()}")

    # Carol leaves; the ON_LEAVE policy rotates the group key so she is
    # cryptographically evicted.
    await clients["carol"].leave()
    await asyncio.sleep(0.05)
    print(f"after carol leaves: members = {leader.members}, "
          f"group-key epoch = {leader.group_epoch}")
    for event in drain(clients["alice"]):
        if isinstance(event, (MemberJoined, MemberLeft, GroupKeyChanged)):
            print(f"alice observed: {event}")

    for client in clients.values():
        await client.stop()
    await runtime.stop()


if __name__ == "__main__":
    asyncio.run(main())
