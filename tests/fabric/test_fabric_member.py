"""Tests for the directory-following member wrapper."""

import asyncio

import pytest

from repro.chaos.loop import run_virtual
from repro.crypto.rng import DeterministicRandom, SystemRandom
from repro.enclaves.common import AppMessage, Rejected, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.member import MemberState
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.enclaves.itgm.supervisor import ResilientMemberClient
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.migration import migrate_group
from repro.fabric.shard import ShardHost, redirect_envelope
from repro.net import MemoryNetwork
from repro.storage.simdisk import SimDisk
from repro.wire.labels import Label
from repro.wire.message import Envelope, unwrap_group


class Fixture:
    """Two shards, one group, two fabric members."""

    def __init__(self, seed=2, rng=None):
        self.rng = rng if rng is not None else DeterministicRandom(seed)
        self.net = SyncNetwork()
        self.fabric = GroupDirectory(
            ["shard-0", "shard-1"], rng=self.rng.fork("directory"),
        )
        self.hosts = {}
        for shard_id in ("shard-0", "shard-1"):
            host = ShardHost(
                shard_id, SimDisk(rng=self.rng.fork(f"disk-{shard_id}")),
                rng=self.rng.fork(shard_id),
            )
            self.hosts[shard_id] = host
            wire(self.net, shard_id, host)
        self.group_id = "grp-m"
        self.record = self.fabric.create_group(self.group_id)
        self.users = UserDirectory()
        self.source = self.hosts[self.record.shard_id]
        self.target = next(
            h for h in self.hosts.values() if h is not self.source
        )
        self.source.host_group(
            self.group_id, self.users, storage_key=self.record.storage_key,
        )
        self.members = {}
        for uid in ("alice", "bob"):
            creds = self.users.register_password(uid, f"pw-{uid}")
            fm = FabricMember(
                creds, self.group_id, self.fabric, rng=self.rng.fork(uid),
            )
            self.members[uid] = fm
            wire(self.net, uid, fm)

    def join(self, uid):
        self.net.post_all(self.members[uid].start_join())
        self.net.run()

    def join_all(self):
        for uid in self.members:
            self.join(uid)


class TestRouting:
    def test_outbound_frames_are_wrapped_at_the_hosting_shard(self):
        fx = Fixture()
        frames = fx.members["alice"].start_join()
        assert len(frames) == 1  # no stale session: just the init
        wrapped = frames[0]
        assert wrapped.label is Label.GROUP_WRAP
        assert wrapped.recipient == fx.record.shard_id
        group_id, inner = unwrap_group(wrapped)
        assert group_id == fx.group_id
        assert inner.label is Label.AUTH_INIT_REQ

    def test_non_deterministic_source_places_and_joins(self):
        """On a source without forkable streams the directory still
        mints storage keys and members still join."""
        fx = Fixture(rng=SystemRandom())
        assert fx.record.storage_key is not None
        fx.join_all()
        assert all(fm.connected for fm in fx.members.values())

    def test_join_and_app_round_trip_through_the_shard(self):
        fx = Fixture()
        fx.join_all()
        assert all(fm.connected for fm in fx.members.values())
        fx.net.post(fx.members["alice"].seal_app(b"hi"))
        fx.net.run()
        received = fx.net.events_of("bob", AppMessage)
        assert [e.payload for e in received] == [b"hi"]

    def test_retransmit_follows_a_mid_handshake_move(self):
        """A half-open join chases the group: retransmit_last re-consults
        the directory and re-addresses the byte-identical frame."""
        fx = Fixture()
        fm = fx.members["alice"]
        first = fm.start_join()[0]
        _, inner_first = unwrap_group(first)
        assert fm.state is MemberState.WAITING_FOR_KEY

        # The directory flips before the init is ever delivered.
        fx.fabric.move(fx.group_id, fx.target.shard_id)
        again = fm.retransmit_last()
        assert len(again) == 1
        assert again[0].recipient == fx.target.shard_id
        _, inner_again = unwrap_group(again[0])
        assert inner_again.body == inner_first.body  # byte-identical
        assert fm.redirects == 1


class TestRejoinDiscipline:
    def test_lost_leave_is_resent_ahead_of_the_next_join(self):
        """start_leave resets the member at once; if the sealed close is
        lost, the leader keeps the session and would reject fresh joins
        forever.  The cached close ahead of the next join breaks that."""
        fx = Fixture()
        fx.join_all()
        fm = fx.members["alice"]
        fm.start_leave()  # never posted: the one close frame is "lost"
        assert fm.state is MemberState.NOT_CONNECTED
        leader = fx.source.leader(fx.group_id)
        assert "alice" in leader.members  # leader still holds the session

        frames = fm.start_join()
        labels = [unwrap_group(f)[1].label for f in frames]
        assert labels == [Label.REQ_CLOSE, Label.AUTH_INIT_REQ]
        fx.net.post_all(frames)
        fx.net.run()
        assert fm.connected
        assert fm._pending_close is None  # cleared once the join lands
        assert "alice" in leader.members

    def test_reset_for_rejoin_caches_the_close_for_live_sessions(self):
        fx = Fixture()
        fx.join_all()
        fm = fx.members["alice"]
        fm.reset_for_rejoin()
        assert fm.rejoins == 1
        assert fm._pending_close is not None
        frames = fm.start_join()
        assert [unwrap_group(f)[1].label for f in frames] == [
            Label.REQ_CLOSE, Label.AUTH_INIT_REQ,
        ]
        fx.net.post_all(frames)
        fx.net.run()
        assert fm.connected

    def test_redirect_while_connected_triggers_full_rejoin(self):
        fx = Fixture()
        fx.join_all()
        fm = fx.members["alice"]
        epoch_before = fx.source.leader(fx.group_id).group_epoch

        migrate_group(
            fx.fabric, fx.source, fx.target, fx.group_id, fx.users,
            rng=fx.rng.fork("rehost"),
        )
        # Next frame hits the source's breadcrumb -> redirect -> rejoin.
        fx.net.post(fm.seal_app(b"stale"))
        fx.net.run()
        assert fm.redirects >= 1
        assert fm.rejoins >= 1
        assert fm.connected
        new_leader = fx.target.leader(fx.group_id)
        assert "alice" in new_leader.members
        assert new_leader.group_epoch > epoch_before

    def test_deterministic_per_seed(self):
        def transcript(seed):
            fx = Fixture(seed=seed)
            fx.join_all()
            fx.net.post(fx.members["alice"].seal_app(b"ping"))
            fx.net.run()
            return [
                (e.label.name, e.sender, e.recipient, e.body)
                for e in fx.net.wire_log
            ]

        assert transcript(4) == transcript(4)
        assert transcript(4) != transcript(5)


class TestRedirectFromAnOutsider:
    """GROUP_REDIRECT is plaintext any Dolev–Yao outsider can send:
    ``handle`` must not raise on one, nor follow one it should not."""

    FORGED = {
        "malformed": Envelope(
            Label.GROUP_REDIRECT, "mallory", "alice", b"\xff\xff\xff"
        ),
        "foreign group": redirect_envelope(
            "mallory", "alice", "grp-other", "shard-1"
        ),
        "own group, no move": redirect_envelope(
            "mallory", "alice", "grp-m", "shard-1"
        ),
    }

    @pytest.mark.parametrize("kind", FORGED)
    def test_forged_redirect_is_rejected_and_changes_nothing(self, kind):
        fx = Fixture()
        fm = FabricMember(
            fx.users.register_password("carol", "pw-carol"), fx.group_id,
            fx.fabric, rng=fx.rng.fork("carol"),
        )
        wire(fx.net, "carol", fm)
        fx.net.post_all(fm.start_join())
        fx.net.run()
        assert fm.connected
        before = (fm.state, fm.route, fm.redirects, fm.rejoins)

        out, events = fm.handle(self.FORGED[kind])

        assert out == []
        assert [type(e) for e in events] == [Rejected]
        assert events[0].label is Label.GROUP_REDIRECT
        assert before == (fm.state, fm.route, fm.redirects, fm.rejoins)

    @pytest.mark.parametrize("kind", FORGED)
    def test_member_runtime_keeps_receiving_after_one(self, kind):
        """The member shell's receive loop survives the frame: the
        member still hears the group afterwards, on the same session."""
        async def scenario():
            rng = DeterministicRandom(6)
            net = MemoryNetwork()
            fabric = GroupDirectory(["shard-0"], rng=rng.fork("directory"))
            record = fabric.create_group("grp-m")
            users = UserDirectory()
            host = ShardHost(
                "shard-0", SimDisk(rng=rng.fork("disk")),
                rng=rng.fork("shard-0"),
            )
            host.host_group(
                "grp-m", users, storage_key=record.storage_key,
            )
            shard = LeaderRuntime(host, await net.attach("shard-0"))
            shard.start()
            members = {}
            for uid in ("alice", "bob"):
                fm = FabricMember(
                    users.register_password(uid, f"pw-{uid}"), "grp-m",
                    fabric, rng=rng.fork(uid),
                )
                members[uid] = ResilientMemberClient(
                    {"grp-m": fm}, net, rng=rng.fork(uid),
                )
                await members[uid].join()
                await asyncio.sleep(1.0)
                assert fm.connected
            mallory = await net.attach("mallory")
            await mallory.send(self.FORGED[kind])
            await asyncio.sleep(1.0)
            await members["bob"].send_app(b"still there?")
            await asyncio.sleep(1.0)
            alice = members["alice"]
            for member in members.values():
                await member.stop()
            await shard.stop()
            received = []
            while not alice.events.empty():
                event = alice.events.get_nowait()
                if isinstance(event, AppMessage):
                    received.append(event.payload)
            return received, alice.follower.rejoins

        assert run_virtual(scenario()) == ([b"still there?"], 0)
