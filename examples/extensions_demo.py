#!/usr/bin/env python3
"""Extensions demo: the paper's footnote and future work, implemented.

1. **Public-key authentication** (§2.2 footnote: "Authentication using
   public-key cryptography is also possible, but is not currently
   implemented"): static-static Diffie-Hellman provisions the long-term
   key P_a; the §3.2 protocol then runs unchanged.

2. **A set of group managers** (§7 future work: "the single leader is
   replaced by a distributed set of group managers"): crash-recovery
   failover — the primary dies, a standby takes over, the self-healing
   members notice the silence and re-authenticate, the group lives on.
   Runs the production pair (``LeaderOrchestrator`` +
   ``ResilientMemberClient``) on the virtual-time loop.

Run:  python examples/extensions_demo.py
"""

import asyncio

from repro.chaos.loop import LoopClock, run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm import (
    Follower,
    LeaderOrchestrator,
    ResilientMemberClient,
)
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol
from repro.enclaves.pubkey import PublicKeyInfrastructure
from repro.net import MemoryNetwork

MANAGERS = ["mgr-0", "mgr-1", "mgr-2"]


def pubkey_demo() -> None:
    print("1. Public-key (DH) provisioning of P_a")
    print("=" * 54)
    pki = PublicKeyInfrastructure.create("leader", DeterministicRandom(0))
    print(f"leader public key: {hex(pki.leader_public_key)[:26]}…")

    alice_creds = pki.enroll_user("alice", DeterministicRandom(1))
    bob_creds = pki.enroll_user("bob", DeterministicRandom(2))
    print("enrolled alice and bob (leader never sees a password)")

    net = SyncNetwork()
    leader = GroupLeader("leader", pki.leader_directory(),
                         rng=DeterministicRandom(3))
    wire(net, "leader", leader)
    alice = MemberProtocol(alice_creds, "leader", DeterministicRandom(4))
    bob = MemberProtocol(bob_creds, "leader", DeterministicRandom(5))
    wire(net, "alice", alice)
    wire(net, "bob", bob)
    for member in (alice, bob):
        net.post(member.start_join())
        net.run()
    print(f"members after DH-authenticated joins: {leader.members}")
    print(f"alice's view: {sorted(alice.membership)}")
    print()


async def failover_drill(seed: int) -> None:
    """Join at mgr-0 → crash it → mgr-1 promoted → the members heal
    themselves → traffic flows again."""
    net = MemoryNetwork()
    directory = UserDirectory()
    rng = DeterministicRandom(seed)
    orchestrator = LeaderOrchestrator(
        net, directory, MANAGERS, rng=rng.fork("mgrs"),
        clock=LoopClock(asyncio.get_running_loop()),
    )
    await orchestrator.start()
    members = {}
    for uid in ("alice", "bob"):
        creds = directory.register_password(uid, f"pw-{uid}")
        # Password provisioning: same credentials toward every manager.
        members[uid] = ResilientMemberClient(
            {
                m: Follower(creds, m, rng=rng.fork(uid).fork(f"toward-{m}"))
                for m in MANAGERS
            },
            net, rng=rng.fork(uid),
        )
        await members[uid].join()
    await asyncio.sleep(1.0)
    print(f"before: primary={orchestrator.current_id}, "
          f"members={orchestrator.current_leader.members}")

    dead = orchestrator.current_id
    promoted = await orchestrator.failover()
    print(f"crash {dead} -> promoted {promoted}")
    while not all(m.connected and m.active == promoted
                  for m in members.values()):
        await asyncio.sleep(0.25)
    print(f"after:  members={orchestrator.current_leader.members}")
    assert orchestrator.current_leader.members == ["alice", "bob"]

    # Traffic on the new primary proves the group is live again.
    await members["alice"].send_app(b"we survived")
    await asyncio.sleep(1.0)
    received = []
    while not members["bob"].events.empty():
        event = members["bob"].events.get_nowait()
        if isinstance(event, AppMessage) and event.sender == "alice":
            received.append(event.payload)
    print(f"post-failover chat received by bob: {received}")
    assert received == [b"we survived"]
    for member in members.values():
        await member.stop()
    await orchestrator.stop()


def failover_demo() -> None:
    print("2. Group-manager failover (crash recovery)")
    print("=" * 54)
    run_virtual(failover_drill(seed=7))
    print()
    print("Safety was never at risk: failover just ends sessions (like")
    print("any crash) and starts fresh ones — every §5 property is")
    print("per-session, so the proofs carry over verbatim.")


if __name__ == "__main__":
    pubkey_demo()
    failover_demo()
