#!/usr/bin/env python3
"""A collaborative editor on top of the secure group layer.

The paper's motivation is groupware: "users share information and
collaborate via a network."  This example builds the smallest honest
version of that — a shared append-only document — and shows a property
the Enclaves architecture gives applications for free: because every
frame passes through the leader (Figure 1), and the leader relays to
each member over an ordered link, all replicas observe edits in the
SAME total order, so they converge without any CRDT machinery.

Run:  python examples/shared_document.py
"""

import asyncio

from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.itgm import (
    Follower,
    GroupLeader,
    LeaderRuntime,
    ResilientMemberClient,
)
from repro.net import MemoryNetwork


class SharedDocument:
    """A replica of the document at one member."""

    def __init__(self, client: ResilientMemberClient) -> None:
        self.client = client
        self.lines: list[str] = []

    async def insert(self, text: str) -> None:
        """Append a line, visible to every replica."""
        await self.client.send_app(f"{self.client.user_id}: {text}".encode())
        # Our own edit comes back only to others; apply locally too.
        self.lines.append(f"{self.client.user_id}: {text}")

    async def sync(self) -> None:
        """Fold received edits into the local replica."""
        while not self.client.events.empty():
            event = self.client.events.get_nowait()
            # The leader's own APP_DATA frames are its heartbeats.
            if isinstance(event, AppMessage) and event.sender != "leader":
                self.lines.append(event.payload.decode())


async def main() -> None:
    net = MemoryNetwork()
    directory = UserDirectory()
    creds = {n: directory.register_password(n, f"{n}-pw")
             for n in ("ada", "grace", "edsger")}

    leader = GroupLeader("leader", directory)
    runtime = LeaderRuntime(
        leader, await net.attach("leader"), heartbeat_interval=0.5
    )
    runtime.start()

    docs = {}
    for name in creds:
        client = ResilientMemberClient(
            {"leader": Follower(creds[name], "leader")}, net
        )
        await client.join()
        await asyncio.wait_for(client.wait_keyed(), 5)
        docs[name] = SharedDocument(client)

    # Interleaved edits from everyone.
    script = [
        ("ada", "Abstract: we reproduce a DSN 2001 paper."),
        ("grace", "Section 1: the protocol."),
        ("edsger", "Remark: simplicity is prerequisite for reliability."),
        ("ada", "Section 2: the verification."),
        ("grace", "Conclusion: it works."),
    ]
    for author, text in script:
        await docs[author].insert(text)
        await asyncio.sleep(0.02)  # let the relay fan out
        for doc in docs.values():
            await doc.sync()

    print("Replicas after the session:")
    reference = docs["ada"].lines
    for name, doc in docs.items():
        status = "== converged" if doc.lines == reference else "!= DIVERGED"
        print(f"\n[{name}] {status}")
        for line in doc.lines:
            print(f"   {line}")

    assert all(doc.lines == reference for doc in docs.values()), \
        "replicas diverged!"
    print("\nAll replicas hold the same document, in the same order —")
    print("leader-mediated multicast is a total-order broadcast for free.")

    for doc in docs.values():
        await doc.client.stop()
    await runtime.stop()


if __name__ == "__main__":
    asyncio.run(main())
