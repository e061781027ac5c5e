"""Integration: the full asyncio stack under an active wire adversary.

The concrete analogue of the §5 theorems: under duplication, replay,
reordering, and injection, every member's accepted admin log stays a
prefix of the leader's send log, views converge, and nothing crashes.
The scenarios run on the virtual-time loop.
"""

import asyncio

from repro.chaos.loop import run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.itgm import (
    Follower,
    GroupLeader,
    LeaderRuntime,
    ResilientMemberClient,
    TextPayload,
)
from repro.net import Adversary, MemoryNetwork
from repro.net.adversary import Verdict
from repro.wire.labels import Label
from repro.wire.message import Envelope


async def build(names, policy=None, seed=0):
    net = MemoryNetwork()
    adversary = Adversary()
    net.attach_adversary(adversary)
    if policy:
        adversary.set_policy(policy)
    rng = DeterministicRandom(seed)
    directory = UserDirectory()
    leader = GroupLeader("leader", directory, rng=rng.fork("leader"))
    runtime = LeaderRuntime(
        leader, await net.attach("leader"), heartbeat_interval=0.5
    )
    runtime.start()
    clients = {}
    for name in names:
        creds = directory.register_password(name, f"pw-{name}")
        member_rng = rng.fork(name)
        client = ResilientMemberClient(
            {"leader": Follower(creds, "leader",
                                rng=member_rng.fork("follower"))},
            net, rng=member_rng,
        )
        await client.join()
        await asyncio.wait_for(client.wait_keyed(), 5)
        clients[name] = client
    return net, adversary, leader, runtime, clients


async def teardown(runtime, clients):
    for client in clients.values():
        await client.stop()
    await runtime.stop()


class TestUnderDuplication:
    def test_prefix_and_no_duplicates(self):
        async def scenario():
            def duplicate_everything(frame):
                return Verdict.duplicate()

            net, adversary, leader, runtime, clients = await build(
                ["alice", "bob"], policy=duplicate_everything
            )
            try:
                for i in range(8):
                    await runtime.broadcast_admin(TextPayload(f"m{i}"))
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.1)
                for name, client in clients.items():
                    log = client.follower.protocol.admin_log
                    sent = leader.admin_send_log(name)
                    assert log == sent[: len(log)]
                    assert len(set(map(repr, log))) == len(log)
                    texts = [p.text for p in log
                             if isinstance(p, TextPayload)]
                    assert texts == [f"m{i}" for i in range(len(texts))]
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())


class TestUnderReplayStorm:
    def test_replayed_history_is_harmless(self):
        async def scenario():
            net, adversary, leader, runtime, clients = await build(
                ["alice", "bob"]
            )
            try:
                for i in range(5):
                    await runtime.broadcast_admin(TextPayload(f"m{i}"))
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)
                logs_before = {
                    n: list(c.follower.protocol.admin_log)
                    for n, c in clients.items()
                }
                # Replay the entire observed history, twice.
                for _ in range(2):
                    for frame in list(adversary.log):
                        await adversary.replay(frame)
                await asyncio.sleep(0.2)
                for name, client in clients.items():
                    log = client.follower.protocol.admin_log
                    assert log == logs_before[name]
                assert leader.members == ["alice", "bob"]
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())


class TestUnderInjection:
    def test_garbage_storm(self):
        async def scenario():
            net, adversary, leader, runtime, clients = await build(
                ["alice", "bob"]
            )
            try:
                for label in (Label.ADMIN_MSG, Label.AUTH_KEY_DIST,
                              Label.APP_DATA, Label.ACK, Label.REQ_CLOSE):
                    for target in ("alice", "bob", "leader"):
                        for size in (0, 1, 64, 300):
                            await adversary.inject(
                                Envelope(label, "leader" if target != "leader"
                                         else "alice", target, b"\xaa" * size)
                            )
                await asyncio.sleep(0.2)
                assert leader.members == ["alice", "bob"]
                # Group still functions end to end after the storm.
                await clients["alice"].send_app(b"still alive")
                await asyncio.sleep(0.05)
                events = []
                while not clients["bob"].events.empty():
                    events.append(clients["bob"].events.get_nowait())
                assert AppMessage("alice", b"still alive") in events
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())


class TestUnderDropsAndRecovery:
    def test_dropped_admin_blocks_channel_not_group(self):
        async def scenario():
            net, adversary, leader, runtime, clients = await build(
                ["alice", "bob"]
            )
            try:
                # Drop the next AdminMsg to alice: her stop-and-wait
                # channel stalls (no ack), but bob's proceeds.
                adversary.drop_next(
                    lambda f: f.envelope.label is Label.ADMIN_MSG
                    and f.envelope.recipient == "alice"
                )
                await runtime.broadcast_admin(TextPayload("lost-for-alice"))
                await asyncio.sleep(0.1)
                assert TextPayload("lost-for-alice") in \
                    clients["bob"].follower.protocol.admin_log
                assert TextPayload("lost-for-alice") not in \
                    clients["alice"].follower.protocol.admin_log
                # alice's channel is stalled awaiting the lost frame's
                # ack; the prefix property still holds (rcv shorter).
                sent = leader.admin_send_log("alice")
                log = clients["alice"].follower.protocol.admin_log
                assert log == sent[: len(log)]
            finally:
                await teardown(runtime, clients)

        run_virtual(scenario())
