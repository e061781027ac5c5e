"""PERF-A: authentication handshake — improved vs. legacy baseline.

The paper replaces the legacy 5-message join (2 pre-auth + 3 auth, group
key inside message 2) with a 3-message join (group key via the admin
channel).  This bench measures both, so the cost delta of the security
fix is visible: the improved join trades the pre-auth round-trip for
extra admin-channel exchanges after connecting.
"""

import pytest

from conftest import build_itgm_group, build_legacy_group
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.enclaves.legacy.leader import LegacyGroupLeader
from repro.enclaves.legacy.member import LegacyMemberProtocol, LegacyMemberState


def bench_join(benchmark, build, member_cls, leader_factory, connected_state):
    rng = DeterministicRandom(7)
    net = SyncNetwork()
    directory = UserDirectory()
    leader = leader_factory(directory, rng)
    wire(net, "leader", leader)
    counter = [0]

    def join_once():
        counter[0] += 1
        user_id = f"joiner-{counter[0]:05d}"
        creds = directory.register_password(user_id, "pw")
        member = member_cls(creds, "leader", rng.fork(user_id))
        wire(net, user_id, member)
        frames_before = len(net.wire_log)
        net.post(member.start_join())
        net.run()
        assert member.state is connected_state
        return len(net.wire_log) - frames_before

    # The first join is the wire shape the paper describes; every later
    # joiner also pays for notifying the members already in the group.
    first = join_once()
    frames = benchmark(join_once)
    benchmark.extra_info["wire_frames_first_join"] = first
    benchmark.extra_info["wire_frames_per_join"] = frames
    return first, frames


def test_itgm_join(benchmark):
    first, frames = bench_join(
        benchmark,
        build_itgm_group,
        MemberProtocol,
        lambda d, rng: GroupLeader("leader", d, rng=rng.fork("leader")),
        MemberState.CONNECTED,
    )
    # 3 handshake frames + 1 admin exchange (view and key batched into
    # one AdminMsg, and its Ack) = 5 for the first joiner; later joiners
    # trigger notifications too.
    assert first == 5
    assert frames >= 5


def test_legacy_join(benchmark):
    _first, frames = bench_join(
        benchmark,
        build_legacy_group,
        LegacyMemberProtocol,
        lambda d, rng: LegacyGroupLeader("leader", d, rng=rng.fork("leader")),
        LegacyMemberState.CONNECTED,
    )
    # req_open/ack_open + 3 auth frames + membership view = 6 minimum.
    assert frames >= 6


def test_itgm_rejoin_cycle(benchmark):
    """Leave + rejoin of an existing member (fresh session key each
    time, §3.1)."""
    net, leader, members = build_itgm_group(4)
    member = members["user-000"]

    def cycle():
        net.post(member.start_leave())
        net.run()
        net.post(member.start_join())
        net.run()
        assert member.state is MemberState.CONNECTED

    benchmark(cycle)
    session = leader._sessions["user-000"]
    # Every cycle discarded a key: none were reused.
    assert len(set(session.discarded_keys)) == len(session.discarded_keys)
