#!/usr/bin/env python3
"""Adversarial-network demo: the protocol under an active attacker.

Attaches a Dolev-Yao adversary to the in-memory network and lets it
duplicate every admin frame, replay old frames, and inject forgeries
while a group operates.  The improved protocol's guarantees hold: every
member's admin log stays a prefix of what the leader sent, with no
duplicates — the §3.1 "Proper Distribution" requirement, live.

Run:  python examples/adversarial_network.py
"""

import asyncio

from repro.enclaves.common import UserDirectory
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


async def main() -> None:
    net = MemoryNetwork()
    adversary = Adversary()
    net.attach_adversary(adversary)

    # The adversary duplicates every AdminMsg (replay) and occasionally
    # injects garbage with forged headers.
    def policy(frame):
        if frame.envelope.label is Label.ADMIN_MSG:
            return Verdict.duplicate()
        return Verdict.deliver()

    adversary.set_policy(policy)

    directory = UserDirectory()
    alice_creds = directory.register_password("alice", "alice-pw")
    bob_creds = directory.register_password("bob", "bob-pw")

    leader = GroupLeader("leader", directory)
    runtime = LeaderRuntime(
        leader, await net.attach("leader"), heartbeat_interval=0.5
    )
    runtime.start()

    alice = ResilientMemberClient(
        {"leader": Follower(alice_creds, "leader")}, net
    )
    bob = ResilientMemberClient({"leader": Follower(bob_creds, "leader")}, net)
    for client in (alice, bob):
        await client.join()
        await asyncio.wait_for(client.wait_keyed(), 5)

    # Inject forged frames claiming to be the leader.
    for _ in range(5):
        await adversary.inject(
            Envelope(Label.ADMIN_MSG, "leader", "alice", b"\x00" * 72)
        )

    # Leader pushes a stream of admin notices; every frame is duplicated
    # on the wire by the adversary.
    for i in range(10):
        await runtime.broadcast_admin(TextPayload(f"notice-{i}"))
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.1)

    # Replay the five oldest admin frames verbatim.
    for frame in adversary.frames_with_label(Label.ADMIN_MSG)[:5]:
        await adversary.replay(frame)
    await asyncio.sleep(0.1)

    for name, client in (("alice", alice), ("bob", bob)):
        protocol = client.follower.protocol
        log = protocol.admin_log
        sent = leader.admin_send_log(name)
        texts = [p.text for p in log if isinstance(p, TextPayload)]
        assert log == sent[: len(log)], "prefix property violated!"
        assert len(set(map(repr, log))) == len(log), "duplicate accepted!"
        print(f"{name}: accepted {len(log)} admin messages "
              f"(rejected {protocol.stats.rejected} attack frames)")
        print(f"   notices in order: {texts}")

    print()
    print(f"wire saw {len(adversary.log)} frames (duplicates + forgeries);")
    print("every member's log is a prefix of the leader's send log — the")
    print("paper's ordering/no-duplication guarantee under active attack.")

    await alice.stop()
    await bob.stop()
    await runtime.stop()


if __name__ == "__main__":
    asyncio.run(main())
