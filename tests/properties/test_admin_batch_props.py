"""Batched admin delivery is per-item delivery, observed per item.

The leader drains a member's outbox into one AdminMsg, so under load a
frame's X is a batch.  Hypothesis drives joins, leaves, expulsions and
admin broadcasts over a network it controls frame by frame — any
in-flight frame may be delivered out of order, dropped, or duplicated,
and timers fire whenever the schedule says — so members are routinely
mid-ack while more payloads queue up behind them.  After every step:

* ``rcv_A`` is a prefix of ``snd_A``, item by item (§5.4);
* no member session installs a group-key epoch twice, or out of order;
* every member's group view equals that of a *twin* member that was
  handed the same ``rcv_A`` items one AdminMsg at a time — the batch
  changes how items travel, never what they do.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import (
    Credentials,
    GroupKeyChanged,
    Joined,
    UserDirectory,
)
from repro.enclaves.itgm.admin import BatchPayload, TextPayload
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.leader_session import LeaderSession, LeaderState
from repro.enclaves.itgm.member import MemberProtocol, MemberState

USERS = ["u0", "u1", "u2", "u3"]

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["join", "join", "leave", "expel", "admin", "admin",
             "deliver", "deliver", "deliver", "deliver", "deliver",
             "drop", "dup", "tick"]
        ),
        st.integers(0, len(USERS) - 1),
        st.integers(0, 63),
    ),
    max_size=70,
)


class Twin:
    """A member fed one payload per AdminMsg — the reference the real,
    batch-fed member is compared against."""

    def __init__(self, creds: Credentials) -> None:
        rng = DeterministicRandom(1)
        self.member = MemberProtocol(creds, "leader", rng.fork("m"))
        self.session = LeaderSession(
            "leader", creds.user_id, creds.long_term_key, rng.fork("l"))
        out1, _ = self.session.handle(self.member.start_join())
        out2, _ = self.member.handle(out1[0])
        self.session.handle(out2[0])

    def catch_up(self, log) -> None:
        for item in log[len(self.member.admin_log):]:
            assert not isinstance(item, BatchPayload)
            (ack,), _ = self.member.handle(self.session.send_admin(item))
            self.session.handle(ack)


class World:
    def __init__(self, seed: int) -> None:
        rng = DeterministicRandom(seed)
        directory = UserDirectory()
        self.leader = GroupLeader("leader", directory, rng=rng.fork("leader"))
        self.members: dict[str, MemberProtocol] = {}
        for user_id in USERS:
            creds = directory.register_password(user_id, f"pw-{user_id}")
            self.members[user_id] = MemberProtocol(
                creds, "leader", rng.fork(user_id))
        self.in_flight: list = []
        #: ReqClose frames to re-offer until the leader has closed (what
        #: FabricMember's cached close does in production).
        self.closing: dict[str, object] = {}
        #: snd_A as it stood when the leader expelled a member that does
        #: not know yet: its session is dead, its log must stay within.
        self.expelled: dict[str, list] = {}
        self.twins: dict[str, Twin] = {}
        self.epochs: dict[str, list[int]] = {u: [] for u in USERS}
        self.batches_seen = 0

    # -- the network ----------------------------------------------------------

    def deliver(self, envelope) -> None:
        if envelope.recipient == "leader":
            out, _ = self.leader.handle(envelope)
        else:
            uid = envelope.recipient
            member = self.members[uid]
            before = len(member.admin_log)
            out, events = member.handle(envelope)
            if len(member.admin_log) - before >= 2:
                self.batches_seen += 1
            for event in events:
                if isinstance(event, Joined):
                    # A new session: the expelled one's snd_A no longer
                    # bounds what this member receives.
                    self.expelled.pop(uid, None)
                    self.epochs[uid] = []
                    self.twins[uid] = Twin(member.credentials)
                elif isinstance(event, GroupKeyChanged):
                    self.epochs[uid].append(event.epoch)
        self.in_flight.extend(out)

    def tick(self) -> None:
        self.in_flight.extend(self.leader.tick())
        for uid, member in self.members.items():
            resend = member.retransmit_last()
            if resend is not None:
                self.in_flight.append(resend)
            if uid in self.closing:
                if self.leader.session_state(uid) in (
                    None, LeaderState.NOT_CONNECTED
                ):
                    del self.closing[uid]
                else:
                    self.in_flight.append(self.closing[uid])

    # -- one scheduled step -----------------------------------------------------

    def step(self, op: str, uid: str, index: int, counter: int) -> None:
        member, leader = self.members[uid], self.leader
        if op == "join" and member.state is MemberState.NOT_CONNECTED:
            self.in_flight.append(member.start_join())
        elif op == "leave" and member.state is MemberState.CONNECTED:
            self.closing[uid] = member.start_leave()
            self.in_flight.append(self.closing[uid])
            self.expelled.pop(uid, None)
            self.twins.pop(uid, None)
        elif op == "expel" and uid in leader.members:
            self.expelled[uid] = leader.admin_send_log(uid)
            self.in_flight.extend(leader.expel(uid))
        elif op == "admin":
            self.in_flight.extend(
                leader.broadcast_admin(TextPayload(f"a{counter}")))
        elif op == "tick":
            self.tick()
        elif self.in_flight and op in ("deliver", "drop", "dup"):
            position = index % len(self.in_flight)
            if op == "dup":
                self.deliver(self.in_flight[position])
            else:
                envelope = self.in_flight.pop(position)
                if op == "deliver":
                    self.deliver(envelope)

    # -- the properties ---------------------------------------------------------

    def check(self) -> None:
        for uid, member in self.members.items():
            if member.state is not MemberState.CONNECTED:
                continue
            sent = self.expelled.get(uid, self.leader.admin_send_log(uid))
            log = member.admin_log
            assert log == sent[:len(log)], (uid, log, sent)

            epochs = self.epochs[uid]
            assert epochs == sorted(set(epochs)), (uid, epochs)

            twin = self.twins[uid]
            twin.catch_up(log)
            ref = twin.member
            assert ref.admin_log == log
            assert member.membership == ref.membership, uid
            assert member.group_epoch == ref.group_epoch, uid
            assert member.group_key_fingerprint == ref.group_key_fingerprint
            assert (member._previous_group_cipher is None) \
                == (ref._previous_group_cipher is None), uid

    def settle(self) -> None:
        """Heal the network: FIFO, lossless, timers firing."""
        for _ in range(8):
            while self.in_flight:
                self.deliver(self.in_flight.pop(0))
            self.tick()
        while self.in_flight:
            self.deliver(self.in_flight.pop(0))


@given(steps, st.integers(0, 2**16))
# An expelled member that re-authenticates is checked against its new
# session's snd_A, not the dead one's.
@example([("join", 2, 0), ("deliver", 0, 0), ("deliver", 0, 0),
          ("leave", 2, 0), ("join", 2, 0), ("deliver", 0, 0),
          ("expel", 2, 0)], 0)
@settings(max_examples=60, deadline=None)
def test_batched_delivery_equals_item_by_item_delivery(script, seed):
    world = World(seed)
    for counter, (op, user_index, index) in enumerate(script):
        world.step(op, USERS[user_index], index, counter)
        world.check()
    world.settle()
    world.check()
    # Quiescent: everyone the leader still counts as a member, and who
    # agrees, has received everything that was sent, and holds the key.
    leader = world.leader
    for uid in leader.members:
        member = world.members[uid]
        if member.state is not MemberState.CONNECTED or uid in world.expelled:
            continue
        assert member.admin_log == leader.admin_send_log(uid)
        assert leader.outbox_depth(uid) == 0
        assert member.group_epoch == leader.group_epoch
        assert member.group_key_fingerprint == leader.group_key_fingerprint


def test_the_schedule_space_really_contains_batches():
    """Guard against the property going vacuous: a short hand-written
    schedule of the same step kinds must produce multi-item frames."""
    world = World(3)
    script = [("join", 0), ("deliver", 0), ("deliver", 0), ("deliver", 0),
              ("admin", 0), ("admin", 0), ("admin", 0),
              ("deliver", 0), ("deliver", 0), ("deliver", 0), ("deliver", 0)]
    for counter, (op, index) in enumerate(script):
        world.step(op, "u0", index, counter)
        world.check()
    # [view, key] at the join, then [a5, a6] behind the in-flight a4.
    assert world.batches_seen == 2
    assert [p.text for p in world.members["u0"].admin_log[2:]] \
        == ["a4", "a5", "a6"]
