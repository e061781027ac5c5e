"""Property: every record boundary of the WAL is a flush of the leader.

A delta record holds only the session fields a flush moved, so a
replayer rebuilds each session from the record that first wrote it and
every record since.  That is only sound if the bytes on disk, cut after
*any* record, replay to exactly ``snapshot_leader(leader)`` as it was
when that record was written.

Method: a hypothesis script (join / leave / broadcast / rekey / expel /
close) drives a journaled group, with and without compaction.  A record
subscriber keeps, per base snapshot, the records written on top of it
and the leader's snapshot after each; each such run of records is what
the file held before the next compaction rewrote it.  Every prefix of
every run must replay, untruncated, to the snapshot taken when its last
record was written.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.leader_session import LeaderState
from repro.enclaves.itgm.member import MemberState
from repro.enclaves.itgm.persistence import snapshot_leader
from repro.storage.journal import Journal
from repro.storage.recovery import replay_records
from repro.storage.simdisk import SimDisk

from tests.conftest import ItgmGroup

USERS = ["u0", "u1", "u2", "u3"]
PATH = "leader.wal"

scripts = st.lists(
    st.tuples(
        st.sampled_from(
            ["join", "leave", "broadcast", "rekey", "expel", "close"]
        ),
        st.integers(0, len(USERS) - 1),
    ),
    min_size=1, max_size=16,
)
thresholds = st.sampled_from([None, 1, 2, 3, 5, 64])


def run_script(script, seed, threshold):
    """Run ``script`` on a journaled group; returns ``(runs, disk, key)``
    where each run is ``[(record, snapshot), ...]`` from one base on."""
    group = ItgmGroup(USERS, seed=seed)
    net, leader = group.net, group.leader
    rng = DeterministicRandom(seed)
    disk = SimDisk(rng=rng.fork("disk"))
    key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
    journal = Journal(disk, PATH, key, rng=rng.fork("seal"),
                      compact_threshold=threshold)
    runs: list[list] = []

    def keep(record, seq, kind):
        if kind == "snapshot":
            runs.append([])
        runs[-1].append((record, snapshot_leader(leader)))

    journal.subscribe_records(keep)
    journal.attach(leader)
    for op, index in script:
        uid = USERS[index]
        member = group.members[uid]
        session = leader._sessions.get(uid)
        if op == "join":
            if uid not in leader.members:
                # A member the leader closed still believes it is in.
                member._reset_session()
            if member.state is MemberState.NOT_CONNECTED:
                net.post(member.start_join())
        elif op == "leave" and member.state is MemberState.CONNECTED:
            net.post(member.start_leave())
        elif op == "broadcast":
            net.post_all(leader.broadcast_admin(TextPayload(f"t{index}")))
        elif op == "rekey" and leader.members:
            net.post_all(leader.rekey_now())
        elif op == "expel" and uid in leader.members:
            net.post_all(leader.expel(uid))
        elif op == "close" and session is not None and (
            session.state is not LeaderState.NOT_CONNECTED
        ):
            net.post_all(leader.abort_session(uid))
        net.run()
    return runs, disk, key


@given(scripts, thresholds, st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_every_record_boundary_replays_to_its_flush(script, threshold, seed):
    runs, disk, key = run_script(script, seed, threshold)
    # The last run is the file as it stands.
    assert b"".join(record for record, _ in runs[-1]) == disk.read(PATH)
    for run in runs:
        data = b""
        for count, (record, snapshot) in enumerate(run, start=1):
            data += record
            result = replay_records(data, key)
            assert not result.truncated, result.reason
            assert result.records == count
            assert result.state == snapshot


def test_a_session_dropped_from_the_leader_is_journaled_gone():
    # No protocol path forgets a session; the layout can still say so.
    group = ItgmGroup(USERS, seed=5)
    rng = DeterministicRandom(5)
    key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
    journal = Journal(SimDisk(rng=rng.fork("disk")), PATH, key,
                      rng=rng.fork("seal"), compact_threshold=None)
    journal.attach(group.leader)
    group.join_all()
    del group.leader._sessions["u2"], group.leader._outboxes["u2"]
    journal.record_mutation(group.leader)
    result = replay_records(journal.disk.read(PATH), key)
    assert not result.truncated
    assert result.state == snapshot_leader(group.leader)
    assert "u2" not in result.state["sessions"]
    assert "u2" not in result.state["outboxes"]
