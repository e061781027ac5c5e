"""Tests for live migration: quiesce, ship, flip, rejoin, key hygiene."""

import dataclasses

import pytest

from repro.exceptions import RecoveryError, StateError
from repro.fabric.migration import (
    migrate_group,
    rehost_cold,
    run_migration_demo,
)
from repro.storage.recovery import replay_records
from repro.storage.shipping import JournalFollower
from repro.telemetry.events import EventBus, GroupMigrated, MigrationAborted

from test_fabric_member import Fixture


class TestMigrateGroup:
    def test_moves_the_group_with_fresh_key_and_higher_epoch(self):
        fx = Fixture()
        fx.join_all()
        old_leader = fx.source.leader(fx.group_id)
        old_fingerprint = old_leader.group_key_fingerprint
        old_epoch = old_leader.group_epoch
        old_seq = fx.source.journal(fx.group_id).seq

        bus = EventBus()
        with bus.capture() as records:
            leader, report = migrate_group(
                fx.fabric, fx.source, fx.target, fx.group_id, fx.users,
                rng=fx.rng.fork("rehost"), telemetry=bus,
            )
        assert report.source == fx.source.shard_id
        assert report.target == fx.target.shard_id
        assert report.old_fingerprint == old_fingerprint
        assert report.record_seq == old_seq
        # Cold on arrival: no key, no members, epoch preserved.
        assert leader.group_key_fingerprint is None
        assert leader.members == []
        assert leader.group_epoch == old_epoch
        assert not fx.source.hosts(fx.group_id)
        assert fx.fabric.record(fx.group_id).shard_id == fx.target.shard_id
        moved = [r.event for r in records
                 if isinstance(r.event, GroupMigrated)]
        assert len(moved) == 1 and moved[0].group == fx.group_id

        # Rejoin rotates to a *fresh* key at a higher epoch — the
        # pre-move fingerprint never reappears.
        for uid in fx.members:
            fx.net.post(fx.members[uid].seal_app(b"poke"))
            fx.net.run()
        assert leader.group_key_fingerprint is not None
        assert leader.group_key_fingerprint != old_fingerprint
        assert leader.group_epoch > old_epoch

    def test_combined_journal_history_is_gap_free(self):
        fx = Fixture()
        fx.join_all()
        report = migrate_group(
            fx.fabric, fx.source, fx.target, fx.group_id, fx.users,
            rng=fx.rng.fork("rehost"),
        )[1]
        for uid in fx.members:
            fx.net.post(fx.members[uid].seal_app(b"poke"))
            fx.net.run()
        journal = fx.target.journal(fx.group_id)
        assert journal.seq > report.record_seq
        # The target's on-disk log replays clean on its own.
        data = fx.target.disk.read(
            fx.target.journal_path(fx.group_id)
        )
        result = replay_records(data, fx.record.storage_key)
        assert not result.truncated
        assert result.last_seq == journal.seq

    def test_topology_errors_are_loud_and_change_nothing(self):
        fx = Fixture()
        fx.join_all()
        version = fx.fabric.version
        with pytest.raises(StateError):
            migrate_group(  # group not hosted on the claimed source
                fx.fabric, fx.target, fx.source, fx.group_id, fx.users,
            )
        fx.target.host_group(
            "grp-other", fx.users,
            storage_key=fx.fabric.create_group("grp-other").storage_key,
        )
        with pytest.raises(StateError):
            migrate_group(  # already hosted on the target
                fx.fabric, fx.source, fx.target, "grp-other", fx.users,
            )
        assert fx.fabric.record(fx.group_id).shard_id == fx.source.shard_id
        assert fx.fabric.version == version + 1  # only the create bumped

    def test_failed_ship_resumes_the_source(self, monkeypatch):
        """A lossy checkpoint aborts the move with nothing flipped: the
        source resumes serving and members never saw a redirect."""
        import repro.fabric.migration as migration_mod

        fx = Fixture()
        fx.join_all()

        def broken_replay(self):
            raise RecoveryError("simulated corrupt replica")

        monkeypatch.setattr(
            migration_mod.JournalFollower, "replay", broken_replay
        )
        with pytest.raises(RecoveryError):
            migrate_group(
                fx.fabric, fx.source, fx.target, fx.group_id, fx.users,
            )
        monkeypatch.undo()
        assert fx.source.hosts(fx.group_id)
        assert not fx.target.hosts(fx.group_id)
        assert fx.fabric.record(fx.group_id).shard_id == fx.source.shard_id
        # The group serves traffic again (not quiesced).
        fx.net.post(fx.members["alice"].seal_app(b"still here"))
        fx.net.run()
        assert fx.members["alice"].redirects == 0

    def test_truncated_replica_aborts_and_resumes_the_source(
        self, monkeypatch
    ):
        """A replica that reaches the head seq but discarded a tail is
        still a lossy checkpoint: refused, source resumed, abort said."""
        fx = Fixture()
        fx.join_all()
        real_replay = JournalFollower.replay
        monkeypatch.setattr(
            JournalFollower, "replay",
            lambda self: dataclasses.replace(
                real_replay(self), truncated=True
            ),
        )
        bus = EventBus()
        with bus.capture() as records:
            with pytest.raises(RecoveryError, match="lossy checkpoint"):
                migrate_group(
                    fx.fabric, fx.source, fx.target, fx.group_id, fx.users,
                    telemetry=bus,
                )
        monkeypatch.undo()
        aborted = [r.event for r in records
                   if isinstance(r.event, MigrationAborted)]
        assert len(aborted) == 1 and aborted[0].group == fx.group_id
        assert fx.source.hosts(fx.group_id)
        assert not fx.target.hosts(fx.group_id)
        assert fx.fabric.record(fx.group_id).shard_id == fx.source.shard_id
        fx.net.post(fx.members["alice"].seal_app(b"still here"))
        fx.net.run()
        assert fx.members["alice"].redirects == 0


class TestRehostCold:
    def test_strips_keys_and_sessions_keeps_identity_and_epoch(self):
        fx = Fixture()
        fx.join_all()
        from repro.enclaves.itgm.persistence import snapshot_leader

        state = snapshot_leader(fx.source.leader(fx.group_id))
        assert state["group_key"] is not None
        assert state["sessions"]

        cold = rehost_cold(state)
        assert cold["group_key"] is None
        assert cold["sessions"] == {}
        assert cold["outboxes"] == {}
        assert cold["leader_id"] == state["leader_id"]
        assert cold["group_epoch"] == state["group_epoch"]
        # The input snapshot is not mutated.
        assert state["group_key"] is not None


class TestDemo:
    def test_demo_completes_ok(self):
        demo = run_migration_demo(seed=0)
        assert demo.ok
        assert demo.epoch_after > demo.epoch_before
        assert demo.fingerprint_after != demo.fingerprint_before
        assert demo.redirects >= len(demo.members)
        assert demo.rejoins >= len(demo.members)
        assert demo.app_delivered_after > 0
        assert demo.target_journal_seq > demo.report.record_seq
        assert "verdict" in demo.format_report()

    def test_demo_is_deterministic_per_seed(self):
        a = dataclasses.asdict(run_migration_demo(seed=3))
        b = dataclasses.asdict(run_migration_demo(seed=3))
        assert a == b
