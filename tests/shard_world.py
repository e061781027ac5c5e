"""One shard, two journaled groups, traffic served a chunk at a time.

Frames the members address to the shard pile up while the members talk;
when the wire goes idle the pile is *served* as one chunk and its
outputs are posted back.  How a chunk is served is the experiment:
:meth:`ShardWorld.serve_in_turn` hands the shard one frame per
``handle`` call, :meth:`ShardWorld.serve_pumped` goes through the
bounded intake (``enqueue`` then ``pump`` until it is empty).  A shard
is a deterministic function of its seed and its inputs, so two worlds on
one seed that are served the same chunks must agree on every byte.

Each leader and its journal get *independent* rng forks (``host_group``
shares one stream between the two, so there the number of journal
records — which is exactly what a flush boundary changes — would shift
every later nonce).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from repro.crypto.rng import DeterministicRandom
from repro.dataplane.reliable import unbundle_control
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberState
from repro.enclaves.itgm.persistence import snapshot_leader
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.shard import ShardHost
from repro.overload.admission import classify_frame
from repro.overload.mailbox import BoundedMailbox
from repro.storage.journal import Journal
from repro.storage.recovery import replay_records
from repro.storage.simdisk import SimDisk
from repro.wire.codec import encode_fields, encode_str
from repro.wire.labels import DATA_CONTROL_LABELS, Label
from repro.wire.message import Envelope, unwrap_group, wrap_group

SHARD = "shard-0"
GROUPS = ("grp-a", "grp-b")
USERS_PER_GROUP = 3

#: What a script step may do; see :meth:`ShardWorld.play`.
OPS = ("join", "leave", "app", "forged", "hold", "release", "data", "stray")


def forge(wrapped: Envelope) -> Envelope:
    """The same wrapped frame with the last byte of its seal flipped."""
    group_id, inner = unwrap_group(wrapped)
    body = inner.body[:-1] + bytes([inner.body[-1] ^ 1])
    return wrap_group(
        group_id,
        Envelope(inner.label, inner.sender, inner.recipient, body),
        wrapped.recipient,
    )


class ShardWorld:
    """A shard hosting :data:`GROUPS`, with their members on a wire."""

    def __init__(self, seed, *, pumped=False, telemetry=None,
                 group_size=USERS_PER_GROUP, protocol_factory=None):
        rng = DeterministicRandom(seed)
        self.fabric = GroupDirectory([SHARD], rng=rng.fork("directory"))
        self.disk = SimDisk(rng=rng.fork("disk"))
        self.mailbox = BoundedMailbox(SHARD) if pumped else None
        self.shard = ShardHost(
            SHARD, self.disk, rng=rng.fork("shard"),
            telemetry=telemetry, mailbox=self.mailbox,
        )
        self.keys = {}
        self.members: dict[str, list[FabricMember]] = {}
        self.net = SyncNetwork()
        self.net.register(SHARD, self._queue)
        for group_id in GROUPS:
            record = self.fabric.create_group(group_id)
            self.keys[group_id] = record.storage_key
            users = UserDirectory()
            leader = GroupLeader(
                group_id, users, rng=rng.fork(group_id), telemetry=telemetry
            )
            journal = Journal(
                self.disk, self.shard.journal_path(group_id),
                record.storage_key, rng=rng.fork(f"{group_id}.wal"),
                node=f"{SHARD}/{group_id}", telemetry=telemetry,
            )
            journal.attach(leader)
            self.shard.host_prepared(group_id, leader, journal)
            self.members[group_id] = []
            for index in range(group_size):
                uid = f"{group_id}.u{index}"
                member = FabricMember(
                    users.register_password(uid, f"pw-{uid}"), group_id,
                    self.fabric, rng=rng.fork(uid), telemetry=telemetry,
                    protocol_factory=protocol_factory,
                )
                self.members[group_id].append(member)
                wire(self.net, uid, member)
        self._inbox: list[Envelope] = []
        self._held: list[Envelope] = []
        #: What the shard was given, in order: a chunk (list of frames,
        #: arrival order) or a ``(method name, group id)`` call.
        self.tape: list = []
        self.pumps = 0
        #: What the shard gave back, in order.
        self.out: list[bytes] = []
        self.events: list = []

    def bind_profiler(self, profiler) -> None:
        """Bind shard, leaders, journals and members — everything."""
        self.shard.bind_profiler(profiler)
        for group_id in GROUPS:
            self.shard.leader(group_id).bind_profiler(profiler)
            self.shard.journal(group_id).bind_profiler(profiler)
            for member in self.members[group_id]:
                member.protocol.bind_profiler(profiler)

    # -- serving a chunk ------------------------------------------------------

    def _queue(self, envelope):
        self._inbox.append(envelope)
        return [], []

    def _took(self, result) -> list[Envelope]:
        frames, events = result
        self.out.extend(frame.to_bytes() for frame in frames)
        self.events.extend(events)
        return frames

    def serve_in_turn(self, chunk) -> list[Envelope]:
        """One ``handle`` per frame, in the order a mailbox serves them
        (highest class first, arrival order within a class)."""
        out: list[Envelope] = []
        for envelope in sorted(chunk, key=classify_frame):
            out.extend(self._took(self.shard.handle(envelope)))
        return out

    def serve_pumped(self, chunk, budgets) -> list[Envelope]:
        """``enqueue`` the chunk, then ``pump`` until the intake is
        empty, each pump with the next budget."""
        for envelope in chunk:
            assert self.shard.enqueue(envelope)
        out: list[Envelope] = []
        while len(self.mailbox):
            self.pumps += 1
            out.extend(self._took(self.shard.pump(next(budgets))))
        return out

    def replay(self, tape, serve) -> None:
        """Feed a recorded tape; nothing is delivered to any member."""
        for item in tape:
            if isinstance(item, tuple):
                name, group_id = item
                getattr(self.shard, name)(group_id)
            else:
                serve(item)

    # -- generating traffic ------------------------------------------------------

    def settle(self, serve) -> None:
        """Run the wire idle, serving every chunk that piles up."""
        while True:
            self.net.run()
            if not self._inbox:
                return
            chunk, self._inbox = self._inbox, []
            self.tape.append(chunk)
            self.net.post_all(serve(chunk))

    def play(self, script, serve) -> None:
        """Run ``(op, group index, user index, settle?)`` steps, then a
        fixed epilogue: quiesce the first group and serve one last
        chunk addressed to both (redirects for one, service for the
        other), which nobody gets to answer.

        Steps that do not settle leave their frames on the wire, so the
        next chunk mixes them with whatever follows.
        """
        post = self.net.post
        for op, g, u, settle in script:
            group_id = GROUPS[g]
            member = self.members[group_id][u]
            uid = member.user_id
            ready = member.connected and member.protocol.has_group_key
            if op == "join" and member.state is MemberState.NOT_CONNECTED:
                self.net.post_all(member.start_join())
            elif op == "leave" and member.connected:
                post(member.start_leave())
            elif op == "app" and ready:
                for text in (b"a1", b"a2", b"a3"):
                    post(member.seal_app(text))
            elif op == "forged" and ready:
                post(member.seal_app(b"f1"))
                post(forge(member.seal_app(b"f2")))
                post(member.seal_app(b"f3"))
            elif op == "hold" and ready:
                # Sealed now, sent later: stale by then if the group
                # rekeyed in between (grace re-seal, or rejection).
                self._held.append(member.seal_app(b"held"))
            elif op == "release":
                self.net.post_all(self._held)
                self._held = []
            elif op == "data":
                peer = self.members[group_id][(u + 1) % USERS_PER_GROUP]
                post(self._wrap(group_id, Label.DATA_MSG, uid, b"opaque"))
                # fields[origin | acker | payload | tag]: all the relay
                # reads is the origin, so any payload and tag will do.
                post(self._wrap(group_id, Label.DATA_ACK, uid, encode_fields(
                    [encode_str(peer.user_id), encode_str(uid),
                     bytes(16), b"t" * 32]
                )))
            elif op == "stray":
                post(self._wrap("grp-ghost", Label.APP_DATA, uid, b"x"))
                post(Envelope(Label.GROUP_WRAP, uid, SHARD, b"\xff"))
                post(Envelope(Label.APP_DATA, uid, SHARD, b"naked"))
            if settle:
                self.settle(serve)
        self.settle(serve)
        self.tape.append(("quiesce", GROUPS[0]))
        self.shard.quiesce(GROUPS[0])
        last = [
            member.seal_app(b"late")
            for group_id in GROUPS
            for member in self.members[group_id]
            if member.connected and member.protocol.has_group_key
        ]
        last.append(self._wrap(GROUPS[0], Label.AUTH_INIT_REQ, "nobody", b""))
        self.tape.append(last)
        serve(last)

    @staticmethod
    def _wrap(group_id, label, sender, body) -> Envelope:
        return wrap_group(
            group_id, Envelope(label, sender, group_id, body), SHARD
        )

    # -- what must agree ----------------------------------------------------------

    def journal_bytes(self) -> dict[str, bytes]:
        return {
            group_id: self.disk.read(self.shard.journal_path(group_id))
            for group_id in GROUPS
        }

    def observed(self) -> dict:
        """Everything a flush boundary must not change.

        How relayed ACKs/NACKs are *bundled* is the one thing it does
        change, by design (one downlink frame per origin per flush), so
        bundles are compared un-bundled: ``out`` is every other frame
        in order, ``control`` the items each ``(label, relay, origin)``
        was sent, in order, and ``relayed_frames`` counts an item as a
        frame of its own.
        """
        out: list[bytes] = []
        control: dict[tuple, list[bytes]] = {}
        bundled = Counter()  # relay -> items that rode in another's frame
        for raw in self.out:
            frame = Envelope.from_bytes(raw)
            if frame.label in DATA_CONTROL_LABELS:
                items = unbundle_control(frame.body)
                key = (frame.label, frame.sender, frame.recipient)
                control.setdefault(key, []).extend(items)
                bundled[frame.sender] += len(items) - 1
            else:
                out.append(raw)
        seen = {
            "out": out,
            "control": control,
            "events": self.events,
            "shard": self.shard.stats,
        }
        for group_id, data in self.journal_bytes().items():
            leader = self.shard.leader(group_id)
            replayed = replay_records(data, self.keys[group_id])
            assert not replayed.truncated, replayed.reason
            stats = replace(
                leader.stats,
                relayed_frames=leader.stats.relayed_frames + bundled[group_id],
            )
            seen[group_id] = (stats, snapshot_leader(leader), replayed.state)
        return seen
