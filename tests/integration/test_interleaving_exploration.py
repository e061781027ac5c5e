"""Exhaustive delivery-order exploration of the concrete stack.

Where hypothesis samples schedules, these tests *enumerate* them: every
delivery order (and, where marked, duplication/drop choices) of real
protocol frames, with the §3.1 requirements checked in every explored
world.  This pins the concrete implementation against reordering bugs
the way the symbolic explorer pins the model.
"""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import Credentials
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.leader_session import LeaderSession, LeaderState
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.enclaves.modelcheck import World, explore_interleavings
from repro.exceptions import PropertyViolation


def build_pair(seed=0):
    creds = Credentials.from_password("alice", "pw")
    rng = DeterministicRandom(seed)
    member = MemberProtocol(creds, "leader", rng.fork("m"))
    session = LeaderSession("leader", "alice", creds.long_term_key,
                            rng.fork("l"))
    return member, session


def requirements(world: World) -> str | None:
    """The §3.1/§5.4 requirements as a World invariant."""
    member = world.endpoints["alice"]
    session = world.endpoints["leader"]
    rcv, snd = member.admin_log, session.admin_log
    if rcv != snd[: len(rcv)]:
        return f"prefix violated: {rcv} vs {snd}"
    if (
        member.state is MemberState.CONNECTED
        and session.state is LeaderState.CONNECTED
        and member._session_key is not None
        and session._session_key is not None
        and member._session_key != session._session_key
    ):
        return "agreement violated"
    return None


class TestHandshakeInterleavings:
    def test_plain_handshake_all_orders(self):
        def build():
            member, session = build_pair()
            world = World({"alice": member, "leader": session})
            world.post(member.start_join())
            return world

        result = explore_interleavings(build, requirements)
        assert result.ok, (result.violation, result.violating_schedule)
        assert (result.worlds_explored, result.max_depth_reached) == (4, 3)

    def test_handshake_with_duplication(self):
        def build():
            member, session = build_pair()
            world = World({"alice": member, "leader": session})
            world.post(member.start_join())
            return world

        result = explore_interleavings(
            build, requirements, with_duplicates=True, max_depth=10
        )
        assert result.ok, (result.violation, result.violating_schedule)
        assert (result.worlds_explored, result.max_depth_reached) == (
            4_744, 10)

    def test_handshake_with_drops(self):
        def build():
            member, session = build_pair()
            world = World({"alice": member, "leader": session})
            world.post(member.start_join())
            return world

        result = explore_interleavings(
            build, requirements, with_drops=True, max_depth=10
        )
        assert result.ok, (result.violation, result.violating_schedule)
        assert (result.worlds_explored, result.max_depth_reached) == (7, 3)


class TestAdminPhaseInterleavings:
    @staticmethod
    def connected_world(seed=0):
        member, session = build_pair(seed)
        out1, _ = session.handle(member.start_join())
        out2, _ = member.handle(out1[0])
        session.handle(out2[0])
        return member, session

    def test_two_admin_messages_all_orders(self):
        def build():
            member, session = self.connected_world()
            world = World({"alice": member, "leader": session})
            world.post(session.send_admin(TextPayload("first")))

            def second_phase(w: World) -> None:
                leader = w.endpoints["leader"]
                if leader.can_send_admin:
                    w.post(leader.send_admin(TextPayload("second")))

            world.on_quiescent.append(second_phase)
            return world

        result = explore_interleavings(build, requirements)
        assert result.ok, (result.violation, result.violating_schedule)
        assert (result.worlds_explored, result.max_depth_reached) == (5, 3)

    def test_admin_vs_close_race_all_orders(self):
        """The close/pending-ack race of §5.4, exhaustively: an AdminMsg
        and the member's ReqClose in flight simultaneously, delivered in
        every order (with duplicates)."""
        def build():
            member, session = self.connected_world()
            world = World({"alice": member, "leader": session})
            world.post(session.send_admin(TextPayload("racing")))
            world.post(member.start_leave())
            return world

        result = explore_interleavings(
            build, requirements, with_duplicates=True, max_depth=12
        )
        assert result.ok, (result.violation, result.violating_schedule)
        assert (result.worlds_explored, result.max_depth_reached) == (8, 3)

    def test_join_close_rejoin_all_orders(self):
        """Cross-session confusion, exhaustively: the old session's
        frames interleaved (and duplicated) into a fresh join."""
        def build():
            member, session = self.connected_world()
            world = World({"alice": member, "leader": session})
            world.post(member.start_leave())

            def rejoin(w: World) -> None:
                m = w.endpoints["alice"]
                if m.state is MemberState.NOT_CONNECTED:
                    w.post(m.start_join())

            world.on_quiescent.append(rejoin)
            return world

        result = explore_interleavings(
            build, requirements, with_duplicates=True, max_depth=12
        )
        assert result.ok, (result.violation, result.violating_schedule)
        assert (result.worlds_explored, result.max_depth_reached) == (
            9_023, 12)


class TestConcurrentJoins:
    """Group-level concurrency: two members joining at once, their
    handshakes, membership notices, and rekeys interleaving freely."""

    @staticmethod
    def build_world(seed=0):
        from repro.enclaves.common import UserDirectory
        from repro.enclaves.itgm.leader import GroupLeader

        rng = DeterministicRandom(seed)
        directory = UserDirectory()
        leader = GroupLeader("leader", directory, rng=rng.fork("l"))
        endpoints = {"leader": leader}
        members = {}
        for uid in ("alice", "bob"):
            creds = directory.register_password(uid, f"pw-{uid}")
            member = MemberProtocol(creds, "leader", rng.fork(uid))
            members[uid] = member
            endpoints[uid] = member
        world = World(endpoints)
        world.post(members["alice"].start_join())
        world.post(members["bob"].start_join())
        return world

    @staticmethod
    def group_requirements(world: World) -> str | None:
        leader = world.endpoints["leader"]
        for uid in ("alice", "bob"):
            member = world.endpoints[uid]
            rcv, snd = member.admin_log, leader.admin_send_log(uid)
            if rcv != snd[: len(rcv)]:
                return f"prefix violated for {uid}: {rcv} vs {snd}"
        return None

    def test_concurrent_joins_bounded(self):
        result = explore_interleavings(
            self.build_world, self.group_requirements,
            max_depth=16, max_worlds=15_000,
        )
        assert result.ok, (result.violation, result.violating_schedule)
        # Exhaustive: every schedule quiesced inside the depth bound.
        # Each session draws from its own stream, so schedules that
        # differ only in which handshake went first reach byte-identical
        # worlds and are explored once (72 distinct worlds).
        assert (result.worlds_explored, result.max_depth_reached) == (72, 12)

    @pytest.mark.slow
    def test_concurrent_joins_deeper(self):
        result = explore_interleavings(
            self.build_world, self.group_requirements,
            max_depth=18, max_worlds=15_000,
        )
        assert result.ok, (result.violation, result.violating_schedule)
        assert (result.worlds_explored, result.max_depth_reached) == (72, 12)


class TestExplorerMechanics:
    def test_violation_reported_with_schedule(self):
        """A deliberately wrong invariant is reported with the schedule
        that reaches it (mechanics check)."""
        def build():
            member, session = build_pair()
            world = World({"alice": member, "leader": session})
            world.post(member.start_join())
            return world

        def impossible(world: World) -> str | None:
            member = world.endpoints["alice"]
            if member.state is MemberState.CONNECTED:
                return "reached Connected (expected by this test)"
            return None

        result = explore_interleavings(build, impossible)
        assert not result.ok
        assert any("AUTH_KEY_DIST" in step
                   for step in result.violating_schedule)

    def test_world_budget(self):
        def build():
            member, session = build_pair()
            world = World({"alice": member, "leader": session})
            world.post(member.start_join())
            return world

        with pytest.raises(PropertyViolation):
            explore_interleavings(
                build, requirements, with_duplicates=True,
                max_depth=20, max_worlds=5,
            )
