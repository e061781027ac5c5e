"""Asyncio integration tests for the member shell and ``LeaderRuntime``.

Each member is a ``ResilientMemberClient`` with one ``Follower``, the
form the examples and the README use.  Everything runs on the
virtual-time loop, so the shell's timers cost no wall time.
"""

import asyncio

import pytest

from repro.chaos.loop import run_virtual
from repro.enclaves.common import (
    AppMessage,
    GroupKeyChanged,
    MemberJoined,
    UserDirectory,
)
from repro.enclaves.itgm import (
    Follower,
    GroupLeader,
    LeaderRuntime,
    ResilientMemberClient,
    SupervisorConfig,
    TextPayload,
)
from repro.enclaves.itgm.leader import LeaderConfig
from repro.enclaves.itgm.member import MemberState
from repro.exceptions import RecoveryFailed
from repro.net import MemoryNetwork


def member(creds, net, config=None):
    return ResilientMemberClient(
        {"leader": Follower(creds, "leader")}, net, config=config
    )


async def start_leader(net, directory, config=None):
    leader = GroupLeader("leader", directory, config=config)
    runtime = LeaderRuntime(
        leader, await net.attach("leader"), heartbeat_interval=0.5
    )
    runtime.start()
    return leader, runtime


async def joined(client):
    await client.join()
    await asyncio.wait_for(client.wait_keyed(), 5)
    return client


async def make_group(names, config=None):
    net = MemoryNetwork()
    directory = UserDirectory()
    creds = {n: directory.register_password(n, f"pw-{n}") for n in names}
    leader, runtime = await start_leader(net, directory, config)
    clients = {}
    for name in names:
        clients[name] = await joined(member(creds[name], net))
    return net, leader, runtime, clients


async def teardown(runtime, clients):
    for client in clients.values():
        await client.stop()
    await runtime.stop()


def drain(client):
    events = []
    while not client.events.empty():
        events.append(client.events.get_nowait())
    return events


class TestJoinLeave:
    def test_join_connects_with_group_key(self):
        async def scenario():
            _, leader, runtime, clients = await make_group(["alice"])
            try:
                protocol = clients["alice"].follower.protocol
                assert protocol.state is MemberState.CONNECTED
                assert protocol.has_group_key
                assert leader.members == ["alice"]
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())

    def test_join_timeout_when_denied(self):
        """The leader denies silently, so a denied member sees only
        timeouts: one round over its one leader, then RecoveryFailed."""
        async def scenario():
            net = MemoryNetwork()
            directory = UserDirectory()
            creds = directory.register_password("alice", "pw")
            leader, runtime = await start_leader(
                net, directory, LeaderConfig(access_policy=lambda _: False)
            )
            client = member(creds, net, SupervisorConfig(max_rounds=1))
            try:
                await client.join()
                with pytest.raises(RecoveryFailed):
                    await asyncio.wait_for(client.wait_keyed(), 30)
                assert client.gave_up
                assert leader.members == []
            finally:
                await teardown(runtime, {"alice": client})

        run_virtual(scenario())

    def test_leave(self):
        async def scenario():
            _, leader, runtime, clients = await make_group(["alice", "bob"])
            try:
                await clients["alice"].leave()
                await asyncio.sleep(0.05)
                assert leader.members == ["bob"]
                assert clients["bob"].follower.protocol.membership == {"bob"}
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())


class TestMessaging:
    def test_chat_reaches_other_members(self):
        async def scenario():
            _, _, runtime, clients = await make_group(["alice", "bob", "carol"])
            try:
                await clients["alice"].send_app(b"hello")
                await asyncio.sleep(0.05)
                for name in ("bob", "carol"):
                    # The leader's own APP_DATA frames are its heartbeats.
                    msgs = [e for e in drain(clients[name])
                            if isinstance(e, AppMessage)
                            and e.sender != "leader"]
                    assert msgs == [AppMessage("alice", b"hello")]
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())

    def test_broadcast_admin(self):
        async def scenario():
            _, _, runtime, clients = await make_group(["alice", "bob"])
            try:
                await runtime.broadcast_admin(TextPayload("maintenance"))
                await asyncio.sleep(0.05)
                for client in clients.values():
                    assert TextPayload("maintenance") in \
                        client.follower.protocol.admin_log
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())

    def test_rekey_now(self):
        async def scenario():
            _, leader, runtime, clients = await make_group(["alice", "bob"])
            try:
                before = leader.group_epoch
                await runtime.rekey_now()
                await asyncio.sleep(0.05)
                assert leader.group_epoch == before + 1
                for client in clients.values():
                    assert client.follower.protocol.group_epoch == before + 1
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())

    def test_event_stream(self):
        """A second member joins; the first sees it as events."""
        async def scenario():
            net, leader, runtime, clients = await make_group(["ann"])
            try:
                creds = leader.directory.register_password("ben", "pw-ben")
                clients["ben"] = await joined(member(creds, net))
                await asyncio.sleep(0.05)
                events = drain(clients["ann"])
                assert any(
                    isinstance(e, MemberJoined) and e.user_id == "ben"
                    for e in events
                )
                assert any(isinstance(e, GroupKeyChanged) for e in events)
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())
