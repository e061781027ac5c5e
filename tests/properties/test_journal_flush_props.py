"""Property: at every flush boundary the journal *is* the leader.

The journal writes one record per flush — a ``handle`` call, a
leader-initiated entry point, or a whole ``handle_many`` batch — and a
session's record holds only what that flush appended to its admin log.
Both savings are only sound if replaying the bytes on disk gives back
exactly ``snapshot_leader(leader)`` wherever a flush ends, however the
traffic happened to be cut into flushes.

Method: a hypothesis script (join / leave / expel / broadcast / rekey /
app relay / data relay) runs frame by frame on a reference group, which
records the leader's *input tape* — every inbound frame and every
leader-initiated call, in order.  A second, journaled leader on the
same seed is then fed that tape cut into random flushes (size 1 is a
plain ``handle``, 0 an explicit compaction) at a random compaction
threshold.  A leader is a deterministic function of its seed and its
inputs, so the batched leader must end where the reference did; and the
tape lets one flush hold frames no honest member could pipeline — a
close, the rejoin handshake and the acks of the admin messages that
follow it — which is where a log is reset and regrown between two
records.
"""

from itertools import cycle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberState
from repro.enclaves.itgm.persistence import snapshot_leader
from repro.storage.journal import Journal
from repro.storage.recovery import replay_records
from repro.storage.shipping import JournalFollower, JournalShipper
from repro.storage.simdisk import SimDisk
from repro.wire.labels import Label
from repro.wire.message import Envelope

from tests.conftest import ItgmGroup

USERS = ["u0", "u1", "u2", "u3"]
PATH = "leader.wal"

scripts = st.lists(
    st.tuples(
        st.sampled_from(
            ["join", "leave", "expel", "admin", "rekey", "app", "data"]
        ),
        st.integers(0, len(USERS) - 1),
    ),
    min_size=1, max_size=14,
)
#: Frames per flush, cycled over the tape; 0 compacts instead.
flush_plans = st.lists(st.integers(0, 8), min_size=1, max_size=12).filter(any)
thresholds = st.sampled_from([None, 1, 2, 3, 5, 8, 64])


def is_relay(envelope: Envelope) -> bool:
    return envelope.label is Label.APP_DATA or envelope.label.is_data


def record_tape(script, seed):
    """Run ``script`` frame by frame; returns ``(tape, group)`` where
    the tape lists the leader's inputs in order: an :class:`Envelope`
    it handled, or ``(method_name, args)`` it was called with."""
    group = ItgmGroup(USERS, seed=seed)
    net, leader = group.net, group.leader
    tape: list = []

    def tap(envelope):
        tape.append(envelope)
        return leader.handle(envelope)

    net.register("leader", tap)

    def call(name, *args):
        tape.append((name, args))
        net.post_all(getattr(leader, name)(*args))

    for op, index in script:
        uid = USERS[index]
        member = group.members[uid]
        if op == "join":
            if uid not in leader.members:
                # An expelled member still believes it is connected.
                member._reset_session()
            if member.state is MemberState.NOT_CONNECTED:
                net.post(member.start_join())
        elif op == "leave" and member.state is MemberState.CONNECTED:
            net.post(member.start_leave())
        elif op == "expel" and uid in leader.members:
            call("expel", uid)
        elif op == "admin":
            call("broadcast_admin", TextPayload(f"text-{len(tape)}"))
        elif op == "rekey" and leader.members:
            call("rekey_now")
        elif op == "app" and (
            member.state is MemberState.CONNECTED and member.has_group_key
        ):
            net.post(member.seal_app(b"chat"))
        elif op == "data":
            # The relay never opens a data frame; membership decides.
            net.post(Envelope(Label.DATA_MSG, uid, "leader", b"opaque"))
        net.run()
    return tape, group


class Journaled:
    """A journaled leader on the reference group's seed and directory."""

    def __init__(self, group, seed, **journal_kw):
        rng = DeterministicRandom(seed)
        self.leader = GroupLeader(
            "leader", group.directory, rng=rng.fork("leader")
        )
        self.disk = SimDisk(rng=rng.fork("disk"))
        self.key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
        self.journal = Journal(
            self.disk, PATH, self.key, rng=rng.fork("seal"), **journal_kw
        )
        self.journal.attach(self.leader)
        self.diffs = 0
        diff = self.journal._diff

        def counting(leader):
            self.diffs += 1
            return diff(leader)

        self.journal._diff = counting  # instance shadow

    def feed(self, tape, plan):
        """Feed ``tape`` in the flushes ``plan`` describes, checking
        the journal against the leader after each one."""
        sizes = cycle(plan)
        at = 0
        while at < len(tape):
            if isinstance(tape[at], tuple):
                name, args = tape[at]
                getattr(self.leader, name)(*args)
                at += 1
            else:
                size = next(sizes)
                if size == 0:
                    self.journal.compact(self.leader)
                    continue
                flush = []
                while (len(flush) < size and at < len(tape)
                       and isinstance(tape[at], Envelope)):
                    flush.append(tape[at])
                    at += 1
                self.deliver(flush)
            self.assert_journal_is_leader()

    def deliver(self, flush):
        before = (self.diffs, self.journal.seq, self.disk.read(PATH))
        if len(flush) == 1:
            self.leader.handle(flush[0])
        else:
            self.leader.handle_many(flush)
        if all(is_relay(envelope) for envelope in flush):
            # A relay cannot change what is journaled: no scan for a
            # change, no record.
            assert before == (
                self.diffs, self.journal.seq, self.disk.read(PATH)
            )

    def assert_journal_is_leader(self):
        result = replay_records(self.disk.read(PATH), self.key)
        assert not result.truncated, result.reason
        assert result.last_seq == self.journal.seq
        assert result.state == snapshot_leader(self.leader)


@given(scripts, flush_plans, thresholds, st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_replay_equals_leader_at_every_flush_boundary(
    script, plan, threshold, seed
):
    tape, group = record_tape(script, seed)
    world = Journaled(group, seed, compact_threshold=threshold)
    follower = JournalFollower("standby", world.key)
    JournalShipper(world.journal).add_follower(follower, world.leader)
    world.feed(tape, plan)
    # Cutting the tape into flushes changed nothing but the journal's
    # record boundaries ...
    assert snapshot_leader(world.leader) == snapshot_leader(group.leader)
    # ... and a standby stitching the shipped records agrees.
    assert follower.state() == snapshot_leader(world.leader)


def test_log_reset_and_regrown_inside_one_flush():
    """close -> rejoin -> admin sends, all between two records: u3's
    log is emptied and then outgrows the length the journal last wrote
    for it, so only the generation counter can tell the record must
    carry the whole log, not a suffix."""
    script = [("join", i) for i in range(4)]
    churn = [("leave", 3), ("join", 3), ("leave", 0), ("join", 0)]
    tape, group = record_tape(script + churn, seed=5)
    joined = len(record_tape(script, seed=5)[0])
    world = Journaled(group, 5, compact_threshold=None)
    world.feed(tape[:joined], [1])
    session = world.leader._sessions["u3"]
    generation, journaled = session.log_generation, len(session.admin_log)
    seq = world.journal.seq

    world.leader.handle_many(tape[joined:])

    assert session.log_generation > generation
    assert len(session.admin_log) > journaled
    assert world.journal.seq == seq + 1  # one record for the flush
    world.assert_journal_is_leader()
    assert snapshot_leader(world.leader) == snapshot_leader(group.leader)


def test_relay_only_flush_appends_nothing_and_never_diffs():
    tape, group = record_tape(
        [("join", 0), ("join", 1), ("join", 2)]
        + [("app", 0), ("data", 1), ("app", 2), ("app", 2), ("data", 0)],
        seed=9,
    )
    relays = [item for item in tape
              if isinstance(item, Envelope) and is_relay(item)]
    assert len(relays) == 5 and tape[-5:] == relays
    world = Journaled(group, 9)
    world.feed(tape[:-5], [3])
    diffs, appends, data = (
        world.diffs, world.journal.appends, world.disk.read(PATH)
    )
    out, _ = world.leader.handle_many(relays)
    for envelope in relays:
        out.extend(world.leader.handle(envelope)[0])
    assert len(out) == 2 * 5 * 2  # every relay reached both other members
    assert (world.diffs, world.journal.appends) == (diffs, appends)
    assert world.disk.read(PATH) == data
