"""Extension benchmarks: DH provisioning, failover, loss recovery.

The paper's footnote (public-key authentication) and future work
(multiple group managers) carry costs; these benches quantify them next
to the password-provisioned single-leader baseline.
"""

import asyncio

import pytest

from repro.chaos.loop import LoopClock, run_virtual
from repro.crypto.dh import generate_keypair, shared_secret
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.itgm import LeaderOrchestrator, ResilientMemberClient
from repro.enclaves.pubkey import PublicKeyInfrastructure
from repro.net import MemoryNetwork


def test_dh_keypair_generation(benchmark):
    rng = DeterministicRandom(0)
    pair = benchmark(lambda: generate_keypair(rng))
    assert pair.public > 1


def test_dh_agreement(benchmark):
    alice = generate_keypair(DeterministicRandom(1))
    leader = generate_keypair(DeterministicRandom(2))
    secret = benchmark(lambda: shared_secret(alice, leader.public))
    assert len(secret) == 256


def test_pki_enrollment(benchmark):
    pki = PublicKeyInfrastructure.create("leader", DeterministicRandom(0))
    rng = DeterministicRandom(1)
    counter = [0]

    def enroll():
        counter[0] += 1
        return pki.enroll_user(f"user-{counter[0]}", rng)

    creds = benchmark(enroll)
    assert creds.long_term_key is not None


async def _failover_drill(seed):
    managers = ["mgr-0", "mgr-1", "mgr-2"]
    net = MemoryNetwork()
    directory = UserDirectory()
    rng = DeterministicRandom(seed)
    orchestrator = LeaderOrchestrator(
        net, directory, managers, rng=rng.fork("mgrs"),
        clock=LoopClock(asyncio.get_running_loop()),
    )
    await orchestrator.start()
    members = {}
    for uid in ("alice", "bob"):
        creds = directory.register_password(uid, f"pw-{uid}")
        members[uid] = ResilientMemberClient(
            {m: creds for m in managers}, managers, net, rng=rng.fork(uid)
        )
        await members[uid].start()
    await asyncio.sleep(1.0)
    promoted = await orchestrator.failover()
    while not all(m.connected and m.active == promoted
                  for m in members.values()):
        await asyncio.sleep(0.25)
    await members["alice"].send_app(b"we survived")
    await asyncio.sleep(1.0)
    received = []
    while not members["bob"].events.empty():
        event = members["bob"].events.get_nowait()
        if isinstance(event, AppMessage) and event.sender == "alice":
            received.append(event.payload)
    after = list(orchestrator.current_leader.members)
    for member in members.values():
        await member.stop()
    await orchestrator.stop()
    return after, received


def test_failover_drill(benchmark):
    """Full drill on the pair production runs (LeaderOrchestrator +
    ResilientMemberClient, virtual time): bring up 2 members on mgr-0,
    crash it, promote mgr-1, every member heals itself, resume traffic."""
    seeds = iter(range(100_000))

    after, received = benchmark(
        lambda: run_virtual(_failover_drill(next(seeds)))
    )
    assert after == ["alice", "bob"]
    assert received == [b"we survived"]


def test_loss_recovery_roundtrip(benchmark):
    """Cost of one lost-AdminMsg recovery: drop, retransmit, ack."""
    from repro.enclaves.itgm.admin import TextPayload
    from repro.wire.labels import Label
    from conftest import build_itgm_group

    net, leader, members = build_itgm_group(2)
    counter = [0]

    def lose_and_recover():
        counter[0] += 1
        dropped = []

        def drop_one(envelope):
            if (
                envelope.label is Label.ADMIN_MSG
                and not dropped
            ):
                dropped.append(envelope)
                return []
            return None

        net.set_interceptor(drop_one)
        net.post_all(
            leader.broadcast_admin(TextPayload(f"frame-{counter[0]}"))
        )
        net.run()
        net.set_interceptor(None)
        net.post_all(leader.retransmit_stalled())
        net.run()

    benchmark(lose_and_recover)
    for user_id, member in members.items():
        assert member.admin_log == leader.admin_send_log(user_id)
