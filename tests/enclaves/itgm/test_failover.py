"""Tests for the group-manager failover extension (paper §7 future work).

:class:`ManagerSet` is exercised on plain :class:`MemberProtocol`\\ s
over the sync harness; the cases about a member *following* the primary
run the pair production runs — :class:`LeaderOrchestrator` +
:class:`ResilientMemberClient` on the virtual-time loop (fixtures shared
with ``test_supervisor``).
"""

import asyncio

import pytest

from repro.chaos.loop import run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm import Follower, ResilientMemberClient
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.failover import ManagerSet
from repro.enclaves.itgm.member import MemberProtocol
from repro.exceptions import StateError
from repro.net import MemoryNetwork
from repro.net.adversary import Adversary
from tests.enclaves.itgm.test_supervisor import (
    build as build_async,
    events_of,
    start_all,
    stop_all,
    wait_until,
)

MEMBER_IDS = ("alice", "bob")


class World:
    """A ManagerSet and plain member protocols on the sync harness."""

    def __init__(self, n_managers=3, seed=0):
        self.rng = DeterministicRandom(seed)
        self.net = SyncNetwork()
        directory = UserDirectory()
        self.creds = {uid: directory.register_password(uid, f"pw-{uid}")
                      for uid in MEMBER_IDS}
        self.managers = ManagerSet.create(
            n_managers, directory, rng=self.rng.fork("m")
        )
        for manager_id, manager in self.managers.managers.items():
            wire(self.net, manager_id, manager)
        self.members: dict[str, MemberProtocol] = {}

    def follow(self, manager_id):
        """Every member abandons its session and joins ``manager_id``
        with a fresh protocol (the dead manager's keys are gone)."""
        for uid in MEMBER_IDS:
            member = MemberProtocol(
                self.creds[uid], manager_id,
                self.rng.fork(f"{uid}-toward-{manager_id}"),
            )
            self.members[uid] = member
            wire(self.net, uid, member)
            self.net.post(member.start_join())
            self.net.run()


class TestManagerSet:
    def test_initial_primary(self):
        managers = World().managers
        assert managers.primary_id == "mgr-0"
        assert managers.failed == set()

    def test_fail_primary_promotes_next(self):
        managers = World().managers
        assert managers.fail_primary() == "mgr-1"
        assert managers.primary_id == "mgr-1"
        assert managers.failed == {"mgr-0"}

    def test_cascading_failures(self):
        managers = World().managers
        managers.fail_primary()
        assert managers.fail_primary() == "mgr-2"
        with pytest.raises(StateError):
            managers.fail_primary()

    def test_recover_rejoins_pool(self):
        managers = World().managers
        managers.fail_primary()
        managers.recover("mgr-0")
        assert "mgr-0" not in managers.failed
        # Recovered manager is cold: no members.
        assert managers.managers["mgr-0"].members == []

    def test_recover_unknown_manager(self):
        managers = World().managers
        with pytest.raises(StateError):
            managers.recover("mgr-99")


class TestFailover:
    def test_members_rejoin_new_primary(self):
        world = World()
        managers = world.managers
        world.follow(managers.primary_id)
        assert managers.primary.members == ["alice", "bob"]

        new_primary = managers.fail_primary()
        world.follow(new_primary)
        assert managers.managers[new_primary].members == ["alice", "bob"]
        for member in world.members.values():
            assert member.membership == {"alice", "bob"}

    def test_traffic_resumes_after_failover(self):
        """The drill: join at mgr-0 → crash it → mgr-1 promoted →
        everyone rejoins by themselves → traffic flows again."""
        async def scenario():
            _, orchestrator, members = build_async()
            await start_all(orchestrator, members)
            try:
                first, second = (members[uid] for uid in sorted(members))
                assert orchestrator.current_leader.members == sorted(members)
                assert await orchestrator.failover() == "mgr-1"
                assert await wait_until(lambda: all(
                    s.connected and s.active == "mgr-1"
                    for s in members.values()
                ))
                assert orchestrator.current_leader.members == sorted(members)
                await first.send_app(b"we survived")
                assert await wait_until(lambda: b"we survived" in [
                    e.payload for e in events_of(second, AppMessage)
                ])
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_fresh_keys_on_new_primary(self):
        async def scenario():
            _, orchestrator, members = build_async(n_members=1)
            await start_all(orchestrator, members)
            supervisor = next(iter(members.values()))
            try:
                old_key = supervisor.follower.protocol._session_key
                assert old_key is not None
                await orchestrator.failover()
                assert await wait_until(
                    lambda: supervisor.connected
                    and supervisor.active == "mgr-1"
                )
                assert supervisor.follower.protocol._session_key != old_key
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_stale_frames_from_dead_manager_rejected(self):
        async def scenario():
            net, orchestrator, members = build_async(n_members=1)
            adversary = Adversary()
            net.attach_adversary(adversary)
            await start_all(orchestrator, members)
            supervisor = next(iter(members.values()))
            try:
                # The dead primary's AuthKeyDist, admin and heartbeat frames.
                stale = [f.envelope for f in adversary.log
                         if f.envelope.sender == "mgr-0"
                         and f.envelope.recipient == supervisor.user_id]
                assert stale
                await orchestrator.failover()
                assert await wait_until(
                    lambda: supervisor.connected
                    and supervisor.active == "mgr-1"
                )
                protocol = supervisor.follower.protocol
                rejected_before = protocol.stats.rejected
                log_before = list(protocol.admin_log)
                for envelope in stale:
                    await adversary.inject(envelope)
                await asyncio.sleep(0.2)
                assert protocol.admin_log == log_before
                assert protocol.stats.rejected > rejected_before
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_partitioned_primary_cannot_split_the_group(self):
        """Satellite: a primary that is partitioned away (still running,
        never crashed) must not leave the group with two live primaries.
        After members fail over, the old primary's broadcasts are
        rejected -- only the new primary's traffic is accepted."""
        world = World()
        net, managers, members = world.net, world.managers, world.members
        old_primary = managers.managers["mgr-0"]
        world.follow("mgr-0")
        assert old_primary.members == ["alice", "bob"]

        # Operators declare mgr-0 unreachable and move the group, but
        # mgr-0 itself keeps running on its side of the partition: it
        # is NOT torn down and stays wired to the network.
        managers.fail_primary()
        world.follow("mgr-1")

        logs_before = {uid: list(m.admin_log) for uid, m in members.items()}
        rejected_before = {uid: m.stats.rejected
                           for uid, m in members.items()}

        # The partition heals: the stale primary floods its (locally
        # still valid) session state at the members.
        net.post_all(old_primary.broadcast_admin(TextPayload("stale")))
        net.run()
        net.post_all(old_primary.rekey_now())
        net.run()

        for uid, member in members.items():
            assert member.admin_log == logs_before[uid], \
                f"{uid} accepted traffic from the partitioned primary"
            assert member.stats.rejected > rejected_before[uid]

        # Exactly one primary's traffic is accepted by every member.
        new_primary = managers.managers["mgr-1"]
        net.post_all(new_primary.broadcast_admin(TextPayload("live")))
        net.run()
        for uid, member in members.items():
            texts = [p.text for p in member.admin_log
                     if isinstance(p, TextPayload)]
            assert "stale" not in texts
            assert texts[-1] == "live"
            assert member.group_epoch == new_primary.group_epoch
        accepted_by_all = [
            mid for mid, mgr in managers.managers.items()
            if all(m.admin_log == mgr.admin_send_log(uid)
                   for uid, m in members.items())
        ]
        assert accepted_by_all == ["mgr-1"]

    def test_follow_without_credentials_fails(self):
        """A member needs a follower — credentials toward a leader — for
        every leader it follows, filed under that leader."""
        world = World()
        with pytest.raises(ValueError, match="at least one leader"):
            ResilientMemberClient({}, MemoryNetwork())
        with pytest.raises(ValueError, match="follows 'mgr-0'"):
            ResilientMemberClient(
                {"mgr-unknown": Follower(world.creds["alice"], "mgr-0")},
                MemoryNetwork(),
            )

    def test_members_can_return_to_recovered_manager(self):
        """A crashed manager recovers cold; after another failover the
        group can land back on it with fresh sessions."""
        world = World(n_managers=2)
        managers = world.managers
        world.follow(managers.primary_id)
        managers.fail_primary()          # mgr-0 dies -> mgr-1
        world.follow("mgr-1")
        managers.recover("mgr-0")        # mgr-0 rejoins the pool, cold
        # recover() builds a fresh GroupLeader: rebind it to the wire.
        wire(world.net, "mgr-0", managers.managers["mgr-0"])
        managers.fail_primary()          # mgr-1 dies -> back to mgr-0
        assert managers.primary_id == "mgr-0"
        world.follow("mgr-0")
        assert managers.primary.members == ["alice", "bob"]

    def test_survives_two_failovers(self):
        async def scenario():
            _, orchestrator, members = build_async(
                manager_ids=["mgr-0", "mgr-1", "mgr-2"]
            )
            await start_all(orchestrator, members)
            try:
                for _ in range(2):
                    new_primary = await orchestrator.failover()
                    assert await wait_until(lambda: all(
                        s.connected and s.active == new_primary
                        for s in members.values()
                    ))
                assert orchestrator.current_id == "mgr-2"
                assert orchestrator.current_leader.members == sorted(members)
                first, second = (members[uid] for uid in sorted(members))
                await first.send_app(b"third leader")
                assert await wait_until(lambda: b"third leader" in [
                    e.payload for e in events_of(second, AppMessage)
                ])
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())
