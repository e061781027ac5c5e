"""Tests for the shard host: demux, redirects, loud foreign rejection."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import AppMessage, Rejected, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.exceptions import StateError
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.shard import ShardHost, parse_redirect
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import (
    EventBus,
    ForeignGroupRejected,
    FrameRejected,
    GroupHosted,
    GroupRedirected,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope, wrap_group


class Fixture:
    """One shard hosting two groups with one joined member each."""

    def __init__(self, seed=5, telemetry=None):
        self.rng = DeterministicRandom(seed)
        self.net = SyncNetwork()
        self.fabric = GroupDirectory(
            ["shard-0", "shard-1"],
            rng=self.rng.fork("directory"), telemetry=telemetry,
        )
        self.hosts = {}
        for shard_id in ("shard-0", "shard-1"):
            host = ShardHost(
                shard_id, SimDisk(rng=self.rng.fork(f"disk-{shard_id}")),
                rng=self.rng.fork(shard_id), telemetry=telemetry,
            )
            self.hosts[shard_id] = host
            wire(self.net, shard_id, host)
        self.members = {}
        self.users = {}
        for group_id in ("grp-a", "grp-b"):
            record = self.fabric.create_group(group_id)
            users = UserDirectory()
            self.users[group_id] = users
            uid = f"{group_id}.u0"
            creds = users.register_password(uid, f"pw-{uid}")
            self.hosts[record.shard_id].host_group(
                group_id, users, storage_key=record.storage_key,
            )
            fm = FabricMember(
                creds, group_id, self.fabric,
                rng=self.rng.fork(uid), telemetry=telemetry,
            )
            self.members[group_id] = fm
            wire(self.net, uid, fm)
            self.net.post_all(fm.start_join())
            self.net.run()

    def host_of(self, group_id):
        return self.hosts[self.fabric.record(group_id).shard_id]


class TestDemux:
    def test_wrapped_frames_reach_their_own_leader_only(self):
        fx = Fixture()
        for group_id, fm in fx.members.items():
            host = fx.host_of(group_id)
            assert host.hosts(group_id)
            assert fm.connected
            leader = host.leader(group_id)
            assert leader.members == [fm.user_id]

    def test_non_wrap_frame_is_rejected_loudly(self):
        bus = EventBus()
        fx = Fixture(telemetry=bus)
        host = next(iter(fx.hosts.values()))
        naked = Envelope(Label.AUTH_INIT_REQ, "mallory", host.shard_id, b"x")
        with bus.capture() as records:
            out, events = host.handle(naked)
        assert out == []
        assert any(isinstance(e, Rejected) for e in events)
        assert host.stats.malformed == 1
        assert any(isinstance(r.event, FrameRejected) for r in records)

    def test_foreign_group_id_is_rejected_with_telemetry(self):
        bus = EventBus()
        fx = Fixture(telemetry=bus)
        host = next(iter(fx.hosts.values()))
        inner = Envelope(Label.APP_DATA, "mallory", "grp-phantom", b"x")
        forged = wrap_group("grp-phantom", inner, host.shard_id)
        with bus.capture() as records:
            out, events = host.handle(forged)
        assert out == []
        assert any(isinstance(e, Rejected) for e in events)
        assert host.stats.foreign_rejected == 1
        rejections = [r.event for r in records
                      if isinstance(r.event, ForeignGroupRejected)]
        assert len(rejections) == 1
        assert rejections[0].group == "grp-phantom"

    def test_cross_posted_frame_dies_on_the_foreign_groups_key(self):
        """A sealed frame rewrapped under another hosted group's id is
        routed to that group's leader and rejected by its seals — the
        wrapper is routing metadata, not authentication."""
        fx = Fixture()
        legit = fx.members["grp-a"].protocol.seal_app(b"LEAK")
        victim_host = fx.host_of("grp-b")
        forged = Envelope(legit.label, legit.sender, "grp-b", legit.body)
        out, events = victim_host.handle(
            wrap_group("grp-b", forged, victim_host.shard_id)
        )
        assert out == []
        assert any(isinstance(e, Rejected) for e in events)
        # And nothing leaked to grp-b's member.
        uid_b = fx.members["grp-b"].user_id
        assert all(
            e.payload != b"LEAK"
            for e in fx.net.events_of(uid_b, AppMessage)
        )


class TestRedirects:
    def test_quiesced_group_answers_with_directionless_redirect(self):
        bus = EventBus()
        fx = Fixture(telemetry=bus)
        host = fx.host_of("grp-a")
        host.quiesce("grp-a")
        frame = fx.members["grp-a"].seal_app(b"mid-migration")
        with bus.capture() as records:
            out, _ = host.handle(frame)
        assert len(out) == 1
        group_id, target = parse_redirect(out[0])
        assert group_id == "grp-a"
        assert target is None  # mid-quiesce: re-consult the directory
        assert any(isinstance(r.event, GroupRedirected) for r in records)

        host.resume("grp-a")
        out, _ = host.handle(fx.members["grp-a"].seal_app(b"resumed"))
        assert all(e.label is not Label.GROUP_REDIRECT for e in out)

    def test_departed_group_redirect_names_the_new_shard(self):
        fx = Fixture()
        host = fx.host_of("grp-a")
        other = next(h for h in fx.hosts.values() if h is not host)
        host.evict_group("grp-a", other.shard_id)
        frame = fx.members["grp-a"].seal_app(b"stale route")
        out, _ = host.handle(frame)
        group_id, target = parse_redirect(out[0])
        assert (group_id, target) == ("grp-a", other.shard_id)
        assert host.stats.redirected == 1


class TestHosting:
    def test_double_host_and_unknown_evict_are_loud(self):
        fx = Fixture()
        host = fx.host_of("grp-a")
        with pytest.raises(StateError):
            host.host_group(
                "grp-a", fx.users["grp-a"],
                storage_key=fx.fabric.storage_key("grp-a"),
            )
        with pytest.raises(StateError):
            host.evict_group("grp-nope", None)
        with pytest.raises(StateError):
            host.leader("grp-nope")

    def test_mismatched_snapshot_is_refused(self):
        fx = Fixture()
        host = fx.host_of("grp-a")
        from repro.enclaves.itgm.persistence import snapshot_leader
        state = snapshot_leader(host.leader("grp-a"))
        with pytest.raises(StateError):
            host.host_group(
                "grp-c", fx.users["grp-a"],
                storage_key=fx.fabric.storage_key("grp-a"),
                state=state,  # snapshot says grp-a, not grp-c
            )

    def test_each_group_gets_its_own_journal(self):
        bus = EventBus()
        with bus.capture() as records:
            fx = Fixture(telemetry=bus)
        hosted = [r.event for r in records
                  if isinstance(r.event, GroupHosted)]
        assert {e.group for e in hosted} == {"grp-a", "grp-b"}
        for group_id in ("grp-a", "grp-b"):
            host = fx.host_of(group_id)
            journal = host.journal(group_id)
            assert host.journal_path(group_id) == f"{group_id}.wal"
            assert journal.seq > 0  # the join was journaled
            assert host.disk.read(host.journal_path(group_id))

    def test_tick_and_heartbeat_skip_quiesced_groups(self):
        fx = Fixture(seed=9)
        # Co-host both groups on one shard so the skip is observable.
        a_host = fx.host_of("grp-a")
        b_host = fx.host_of("grp-b")
        if a_host is not b_host:
            from repro.enclaves.itgm.persistence import snapshot_leader
            state = snapshot_leader(b_host.leader("grp-b"))
            b_host.evict_group("grp-b", a_host.shard_id)
            a_host.host_group(
                "grp-b", fx.users["grp-b"],
                storage_key=fx.fabric.storage_key("grp-b"),
                state=state, rng=fx.rng.fork("cohost"),
            )
        a_host.quiesce("grp-a")
        beats = a_host.heartbeat()
        assert beats, "the live group still beats"
        assert all(e.recipient != fx.members["grp-a"].user_id
                   for e in beats)
        assert all(e.recipient == fx.members["grp-b"].user_id
                   for e in beats)
