"""Liveness under loss: the retransmission layer on a lossy network.

A 25-35% frame loss rate breaks the bare stop-and-wait protocol on
nearly every run; with the retransmission timers (the member shell's
join retransmissions, the leader tick) every operation still completes
— and all the safety invariants keep holding because retransmissions
are byte-identical.  The scenarios run on the virtual-time loop.
"""

import asyncio

import pytest

from repro.chaos.loop import run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.itgm import (
    Follower,
    GroupLeader,
    LeaderRuntime,
    ResilientMemberClient,
    TextPayload,
)
from repro.net import Adversary, MemoryNetwork
from repro.net.lossy import LossyPolicy


async def joined(creds, net, rng):
    client = ResilientMemberClient(
        {"leader": Follower(creds, "leader", rng=rng.fork("follower"))},
        net, rng=rng,
    )
    await client.join()
    await asyncio.wait_for(client.wait_keyed(), 20.0)
    return client


async def start_leader(leader, net):
    runtime = LeaderRuntime(
        leader, await net.attach("leader"),
        tick_interval=0.03, heartbeat_interval=0.5,
    )
    runtime.start()
    return runtime


class TestLossyPolicy:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LossyPolicy(drop_rate=1.0)
        with pytest.raises(ValueError):
            LossyPolicy(duplicate_rate=-0.1)

    def test_deterministic(self):
        from repro.net.adversary import ObservedFrame
        from repro.wire.labels import Label
        from repro.wire.message import Envelope

        frame = ObservedFrame(
            "a", Envelope(Label.APP_DATA, "a", "b", b""), 1
        )
        p1 = LossyPolicy(drop_rate=0.5, seed=7)
        p2 = LossyPolicy(drop_rate=0.5, seed=7)
        assert [p1(frame).action for _ in range(20)] == \
            [p2(frame).action for _ in range(20)]

    def test_zero_rates_deliver_everything(self):
        from repro.net.adversary import FrameAction, ObservedFrame
        from repro.wire.labels import Label
        from repro.wire.message import Envelope

        frame = ObservedFrame(
            "a", Envelope(Label.APP_DATA, "a", "b", b""), 1
        )
        policy = LossyPolicy()
        assert all(policy(frame).action is FrameAction.DELIVER
                   for _ in range(50))

    def test_rates_roughly_honored(self):
        from repro.net.adversary import FrameAction, ObservedFrame
        from repro.wire.labels import Label
        from repro.wire.message import Envelope

        frame = ObservedFrame(
            "a", Envelope(Label.APP_DATA, "a", "b", b""), 1
        )
        policy = LossyPolicy(drop_rate=0.3, seed=1)
        outcomes = [policy(frame).action for _ in range(1000)]
        drops = sum(1 for o in outcomes if o is FrameAction.DROP)
        assert 230 <= drops <= 370


class TestJoinUnderLoss:
    def test_join_succeeds_despite_heavy_loss(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            policy = LossyPolicy(drop_rate=0.3, duplicate_rate=0.05, seed=13)
            adversary.set_policy(policy)

            rng = DeterministicRandom(0)
            directory = UserDirectory()
            creds = directory.register_password("alice", "pw")
            leader = GroupLeader("leader", directory, rng=rng.fork("l"))
            runtime = await start_leader(leader, net)
            client = await joined(creds, net, rng.fork("m"))
            assert leader.members == ["alice"]
            assert policy.dropped > 0  # the network really was lossy
            await client.stop()
            await runtime.stop()

        run_virtual(scenario())

    def test_admin_delivery_under_loss(self):
        async def scenario():
            net = MemoryNetwork()
            adversary = Adversary()
            net.attach_adversary(adversary)
            policy = LossyPolicy(drop_rate=0.25, seed=17)
            adversary.set_policy(policy)

            rng = DeterministicRandom(1)
            directory = UserDirectory()
            creds = {n: directory.register_password(n, f"pw-{n}")
                     for n in ("alice", "bob")}
            leader = GroupLeader("leader", directory, rng=rng.fork("l"))
            runtime = await start_leader(leader, net)
            clients = {}
            for name in ("alice", "bob"):
                clients[name] = await joined(creds[name], net, rng.fork(name))

            # Push admin notices through the lossy wire; the leader's
            # tick loop retransmits stalls until every ack lands.
            for i in range(5):
                await runtime.broadcast_admin(TextPayload(f"n{i}"))

            async def all_delivered() -> None:
                while True:
                    done = all(
                        TextPayload("n4") in c.follower.protocol.admin_log
                        for c in clients.values()
                    )
                    if done:
                        return
                    await asyncio.sleep(0.02)

            await asyncio.wait_for(all_delivered(), 20.0)
            # Safety held throughout: prefix + order for both members.
            for name, client in clients.items():
                log = client.follower.protocol.admin_log
                sent = leader.admin_send_log(name)
                assert log == sent[: len(log)]
                texts = [p.text for p in log if isinstance(p, TextPayload)]
                assert texts == [f"n{i}" for i in range(len(texts))]
            for client in clients.values():
                await client.stop()
            await runtime.stop()

        run_virtual(scenario())
