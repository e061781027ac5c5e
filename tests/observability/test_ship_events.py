"""Telemetry in the dark corners: shipping lag, migration, probe echo.

Satellite coverage for emission sites that previously had none:
``FollowerLagged`` from the journal shipper, ``MigrationStarted`` /
``MigrationAborted`` from live migration, ``ProbeViolation`` echoed
onto the watched bus (and triggering a flight recorder), and the
``member`` field on ``ShardDelivered`` that anchors mid-handshake
frames to their session.
"""

import pytest

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.failover import ManagerSet
from repro.enclaves.itgm.member import MemberProtocol
from repro.exceptions import RecoveryError
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.migration import migrate_group
from repro.fabric.shard import ShardHost
from repro.observability.flightrec import FlightRecorder
from repro.storage.journal import Journal
from repro.storage.shipping import JournalFollower, JournalShipper
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import (
    EventBus,
    FollowerLagged,
    GroupMigrated,
    MigrationAborted,
    MigrationStarted,
    ProbeViolation,
    RekeyInstalled,
    ShardDelivered,
)
from repro.telemetry.health import HealthProbe
from repro.util.clock import TickClock


def events_of(records, event_type):
    return [r.event for r in records if isinstance(r.event, event_type)]


class TestFollowerLagged:
    def test_unprimed_follower_lag_is_surfaced(self):
        """A follower joining mid-stream without a base discards deltas
        (offered > applied) — each shipped record now announces the lag
        promote() would refuse on."""
        rng = DeterministicRandom(31)
        net = SyncNetwork()
        directory = UserDirectory()
        managers = ManagerSet.create(2, directory, rng=rng.fork("mgrs"))
        for manager_id, manager in managers.managers.items():
            wire(net, manager_id, manager)
        storage_key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
        journal = Journal(
            SimDisk(rng=rng.fork("disk")), "mgr-0.wal", storage_key,
            rng=rng.fork("seal"), node="mgr-0",
        )
        journal.attach(managers.primary)

        creds = directory.register_password("alice", "pw-alice")
        member = MemberProtocol(creds, "mgr-0", rng.fork("alice"))
        wire(net, "alice", member)
        net.post(member.start_join())
        net.run()

        bus = EventBus(clock=TickClock())
        shipper = JournalShipper(journal, telemetry=bus)
        follower = JournalFollower("mgr-1", storage_key)
        shipper.followers.append(follower)  # mid-stream: NOT primed

        with bus.capture() as records:
            net.post_all(managers.primary.rekey_now())
            net.run()
        lags = events_of(records, FollowerLagged)
        assert lags, "shipping to a lagging follower emitted no event"
        assert lags[-1].node == "mgr-0"
        assert lags[-1].peer == "mgr-1"
        assert lags[-1].applied_seq < lags[-1].offered_seq
        assert follower.offered_seq == lags[-1].offered_seq

    def test_primed_follower_ships_without_lag_events(self):
        rng = DeterministicRandom(32)
        directory = UserDirectory()
        managers = ManagerSet.create(2, directory, rng=rng.fork("mgrs"))
        storage_key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
        journal = Journal(
            SimDisk(rng=rng.fork("disk")), "mgr-0.wal", storage_key,
            rng=rng.fork("seal"), node="mgr-0",
        )
        journal.attach(managers.primary)
        bus = EventBus(clock=TickClock())
        shipper = JournalShipper(journal, telemetry=bus)
        with bus.capture() as records:
            shipper.add_follower(
                JournalFollower("mgr-1", storage_key),
                leader=managers.primary,
            )
        assert events_of(records, FollowerLagged) == []


class FabricFixture:
    """Two shards, one group, fabric members — all on one bus."""

    def __init__(self, seed=5):
        self.rng = DeterministicRandom(seed)
        self.bus = EventBus(clock=TickClock())
        self.net = SyncNetwork(telemetry=self.bus)
        self.fabric = GroupDirectory(
            ["shard-0", "shard-1"], rng=self.rng.fork("directory"),
            telemetry=self.bus,
        )
        self.hosts = {}
        for shard_id in ("shard-0", "shard-1"):
            host = ShardHost(
                shard_id, SimDisk(rng=self.rng.fork(f"disk-{shard_id}")),
                rng=self.rng.fork(shard_id), telemetry=self.bus,
            )
            self.hosts[shard_id] = host
            wire(self.net, shard_id, host)
        self.group_id = "grp-obs"
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

    def join_all(self):
        for fm in self.members.values():
            self.net.post_all(fm.start_join())
            self.net.run()
        return self


class TestMigrationEvents:
    def test_migration_brackets_with_started_and_migrated(self):
        fx = FabricFixture().join_all()
        with fx.bus.capture() as records:
            migrate_group(
                fx.fabric, fx.source, fx.target, fx.group_id, fx.users,
                rng=fx.rng.fork("rehost"), telemetry=fx.bus,
            )
        started = events_of(records, MigrationStarted)
        migrated = events_of(records, GroupMigrated)
        assert len(started) == len(migrated) == 1
        assert started[0].group == fx.group_id
        assert started[0].source == fx.source.shard_id
        assert started[0].target == fx.target.shard_id
        assert events_of(records, MigrationAborted) == []
        # Started strictly precedes the flip.
        seqs = {type(r.event).__name__: r.seq for r in records
                if isinstance(r.event, (MigrationStarted, GroupMigrated))}
        assert seqs["MigrationStarted"] < seqs["GroupMigrated"]

    def test_aborted_migration_says_why(self, monkeypatch):
        import repro.fabric.migration as migration_mod

        fx = FabricFixture().join_all()

        def broken_replay(self):
            raise RecoveryError("simulated corrupt replica")

        monkeypatch.setattr(
            migration_mod.JournalFollower, "replay", broken_replay
        )
        with fx.bus.capture() as records:
            with pytest.raises(RecoveryError):
                migrate_group(
                    fx.fabric, fx.source, fx.target, fx.group_id,
                    fx.users, rng=fx.rng.fork("rehost"), telemetry=fx.bus,
                )
        monkeypatch.undo()
        aborted = events_of(records, MigrationAborted)
        assert len(aborted) == 1
        assert aborted[0].group == fx.group_id
        assert "simulated corrupt replica" in aborted[0].reason
        assert events_of(records, GroupMigrated) == []
        assert fx.source.hosts(fx.group_id)  # source resumed serving


class TestShardDeliveredMember:
    def test_delivery_names_the_inner_frame_origin(self):
        fx = FabricFixture()
        with fx.bus.capture() as records:
            fx.join_all()
        deliveries = events_of(records, ShardDelivered)
        assert deliveries, "join produced no ShardDelivered events"
        assert {d.member for d in deliveries} == {"alice", "bob"}
        for d in deliveries:
            assert d.group == fx.group_id
            assert d.frame and d.inner and d.frame != d.inner


class TestProbeViolationEcho:
    def test_violation_is_echoed_and_triggers_the_recorder(self):
        bus = EventBus(clock=TickClock())
        probe = HealthProbe().subscribe_to(bus)
        recorder = FlightRecorder()
        bus.subscribe(recorder)
        with bus.capture() as records:
            bus.emit(RekeyInstalled("alice", "leader", 3, "cafe"))
            bus.emit(RekeyInstalled("alice", "leader", 3, "cafe"))
        assert probe.violations
        violations = events_of(records, ProbeViolation)
        assert len(violations) == 1
        assert "duplicate" in violations[0].message
        assert recorder.bundles
        bundle = recorder.bundles[0]
        assert bundle["trigger"]["event"] == "ProbeViolation"
        # The trace reaches the offending install via the probe edge.
        assert "RekeyInstalled" in [e["event"] for e in bundle["trace"]]
