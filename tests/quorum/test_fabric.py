"""Quorum replica sets on the shard fabric: hosting, rebinding, warm
migration with certificate preservation.

The load-bearing claim (argued in :mod:`repro.quorum.fabric` and
checked end to end here): the attested statement names no shard and
the attestation keys travel with the set, so a move never resets the
members' verifiers — pre-move certificates still verify, pre-move
forks still convict, and the sessions never tear down.
"""

import dataclasses

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.exceptions import RecoveryError, StateError
from repro.fabric.directory import GroupDirectory
from repro.fabric.shard import ShardHost
from repro.quorum.fabric import (
    host_quorum_group,
    migrate_quorum_group,
    quorum_fabric_member,
    rebind_after_view_change,
)
from repro.quorum.member import QuorumMemberProtocol
from repro.storage.recovery import replay_records
from repro.storage.shipping import JournalFollower
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus, GroupMigrated, MigrationAborted


class QuorumFixture:
    """Two shards, one quorum-managed group, two fabric members."""

    def __init__(self, seed=13):
        self.rng = DeterministicRandom(seed)
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
        self.group_id = "grp-q"
        self.record = self.fabric.create_group(self.group_id)
        self.users = UserDirectory()
        self.source = self.hosts[self.record.shard_id]
        self.target = next(
            h for h in self.hosts.values() if h is not self.source
        )
        self.qs = host_quorum_group(
            self.source, self.users, self.group_id,
            rng=self.rng.fork("quorum"),
        )
        self.members = {}
        for uid in ("alice", "bob"):
            creds = self.users.register_password(uid, f"pw-{uid}")
            fm = quorum_fabric_member(
                creds, self.group_id, self.fabric, self.qs,
                rng=self.rng.fork(uid),
            )
            self.members[uid] = fm
            wire(self.net, uid, fm)

    def join_all(self):
        for fm in self.members.values():
            self.net.post_all(fm.start_join())
            self.net.run()

    def migrate(self, telemetry=None, push_route=True):
        report, envelopes = migrate_quorum_group(
            self.fabric, self.source, self.target, self.group_id,
            self.qs, telemetry=telemetry,
        )
        if push_route:
            for fm in self.members.values():
                fm.refresh_route()
        self.net.post_all(envelopes)
        self.net.run()
        return report


class TestHosting:
    def test_joins_route_through_the_shard_and_are_certified(self):
        fx = QuorumFixture()
        fx.join_all()
        for fm in fx.members.values():
            assert fm.connected
            assert isinstance(fm.protocol, QuorumMemberProtocol)
            assert fm.protocol.accepted_certificates
        assert fx.qs.journal.path == fx.source.journal_path(fx.group_id)

    def test_app_traffic_flows(self):
        fx = QuorumFixture()
        fx.join_all()
        fx.net.post(fx.members["alice"].seal_app(b"through the shard"))
        fx.net.run()
        received = fx.net.events_of("bob", AppMessage)
        assert [e.payload for e in received] == [b"through the shard"]

    def test_double_host_refused(self):
        fx = QuorumFixture()
        with pytest.raises(StateError):
            host_quorum_group(fx.source, fx.users, fx.group_id)


class TestViewChangeOnFabric:
    def test_rebind_keeps_frames_flowing_to_the_new_primary(self):
        fx = QuorumFixture()
        fx.join_all()
        envelopes = fx.qs.view_change("rep-0", "operator: compromised")
        rebind_after_view_change(fx.source, fx.qs)
        for fm in fx.members.values():
            fm.protocol.verifier.evict("rep-0")
            fm.protocol.verifier.set_primary(fx.qs.primary_id)
        fx.net.post_all(envelopes)
        fx.net.run()
        for fm in fx.members.values():
            assert fm.connected
            assert fm.rejoins == 0  # sessions survived the promotion
            assert fm.protocol.group_epoch == fx.qs.leader.group_epoch
        # The shard demux reaches the promoted core: app traffic works.
        fx.net.post(fx.members["alice"].seal_app(b"new primary"))
        fx.net.run()
        assert fx.net.events_of("bob", AppMessage)

    def test_rejoin_after_view_change_distrusts_the_evicted(self):
        """A fresh protocol epoch gets a verifier provisioned from the
        set's *current* eviction state."""
        fx = QuorumFixture()
        fx.join_all()
        fx.net.post_all(fx.qs.view_change("rep-2", "operator"))
        rebind_after_view_change(fx.source, fx.qs)
        fm = fx.members["alice"]
        fm.reset_for_rejoin()
        assert "rep-2" in fm.protocol.verifier.evicted


class TestWarmMigration:
    def test_sessions_and_certificates_survive_the_move(self):
        fx = QuorumFixture()
        fx.join_all()
        pre_move_certs = {
            uid: list(fm.protocol.accepted_certificates)
            for uid, fm in fx.members.items()
        }
        epoch_before = fx.qs.leader.group_epoch

        bus = EventBus()
        with bus.capture() as records:
            report = fx.migrate(telemetry=bus)

        assert report.sessions_carried == 2
        assert report.epoch_before == epoch_before
        assert report.epoch_after == epoch_before + 1  # the closing rekey
        assert not fx.source.hosts(fx.group_id)
        assert fx.target.hosts(fx.group_id)
        assert fx.fabric.record(fx.group_id).shard_id == fx.target.shard_id
        assert any(isinstance(r.event, GroupMigrated) for r in records)

        for uid, fm in fx.members.items():
            assert fm.connected
            assert fm.rejoins == 0  # warm: no session teardown
            assert fm.protocol.group_epoch == fx.qs.leader.group_epoch
            # The closing rekey arrived *certified* from the new shard.
            closing = fm.protocol.accepted_certificates[-1]
            assert closing.statement.epoch == report.epoch_after
            # Certificate preservation: everything accepted before the
            # move still verifies against the member's live verifier.
            for cert in pre_move_certs[uid]:
                cert.verify(
                    fm.protocol.verifier.keys,
                    fm.protocol.verifier.threshold,
                    frozenset(fm.protocol.verifier.evicted),
                )

    def test_post_move_mutations_certify_and_journal_gap_free(self):
        fx = QuorumFixture()
        fx.join_all()
        report = fx.migrate()
        fx.net.post_all(fx.qs.leader.rekey_now())
        fx.net.run()
        for fm in fx.members.values():
            assert fm.protocol.group_epoch == fx.qs.leader.group_epoch
        # Target-side journal: continues the shipped seq and replays
        # clean on its own disk.
        assert fx.qs.journal.seq > report.record_seq
        data = fx.target.disk.read(fx.target.journal_path(fx.group_id))
        result = replay_records(data, fx.qs.storage_key)
        assert not result.truncated
        assert result.last_seq == fx.qs.journal.seq

    def test_missed_directory_push_falls_back_to_loud_rejoin(self):
        fx = QuorumFixture()
        fx.join_all()
        report, envelopes = migrate_quorum_group(
            fx.fabric, fx.source, fx.target, fx.group_id, fx.qs,
        )
        fx.members["alice"].refresh_route()  # bob misses the push
        fx.net.post_all(envelopes)
        fx.net.run()
        # Bob's next frame hits the source's redirect breadcrumb and
        # triggers the standard convergent rejoin.
        fx.net.post(fx.members["bob"].seal_app(b"where did you go"))
        fx.net.run()
        bob = fx.members["bob"]
        assert bob.connected
        assert bob.redirects >= 1
        assert bob.rejoins >= 1
        assert bob.protocol.group_epoch == fx.qs.leader.group_epoch

    def test_pre_move_fork_still_convicts_after_the_move(self):
        """The equivocation memory crosses the move: a conflicting
        certificate minted before migration is convicted after it."""
        from repro.crypto.keys import KEY_LEN, GroupKey
        from repro.quorum.attestation import (
            Attestation,
            MutationStatement,
            QuorumCertificate,
            member_set_digest,
        )

        fx = QuorumFixture()
        fx.join_all()
        qs = fx.qs
        alice = fx.members["alice"].protocol
        anchor = alice.accepted_certificates[-1].statement
        forked = MutationStatement(
            session_id=anchor.session_id,
            seq=anchor.seq,
            epoch=anchor.epoch,
            member_digest=member_set_digest(qs.leader.members),
            key_fingerprint=GroupKey(b"\x0f" * KEY_LEN).fingerprint(),
        )
        fork_cert = QuorumCertificate(tuple(
            Attestation.sign(rid, forked, qs.keys[rid])
            for rid in ("rep-0", "rep-1")
        ))
        fx.migrate()
        assert fx.members["alice"].protocol is alice  # verifier intact
        evidence = alice.verifier.observe(fork_cert)
        assert evidence is not None
        assert evidence.accused == "rep-0"
        evidence.verify(qs.keys, qs.config.threshold, qs.primary_id)

    def test_topology_errors_change_nothing(self):
        fx = QuorumFixture()
        fx.join_all()
        with pytest.raises(StateError, match="not hosted"):
            migrate_quorum_group(
                fx.fabric, fx.target, fx.source, fx.group_id, fx.qs,
            )
        with pytest.raises(StateError, match="serves"):
            other = fx.fabric.create_group("grp-other")
            fx.hosts[other.shard_id].host_group(
                "grp-other", fx.users, storage_key=other.storage_key,
            )
            migrate_quorum_group(
                fx.fabric,
                fx.hosts[other.shard_id],
                next(h for h in fx.hosts.values()
                     if h.shard_id != other.shard_id),
                "grp-other", fx.qs,
            )
        assert fx.source.hosts(fx.group_id)

    def test_failed_ship_resumes_the_source(self, monkeypatch):
        fx = QuorumFixture()
        fx.join_all()

        def broken_replay(self):
            raise RecoveryError("simulated corrupt replica")

        monkeypatch.setattr(JournalFollower, "replay", broken_replay)
        with pytest.raises(RecoveryError):
            migrate_quorum_group(
                fx.fabric, fx.source, fx.target, fx.group_id, fx.qs,
            )
        monkeypatch.undo()
        assert fx.source.hosts(fx.group_id)
        assert not fx.target.hosts(fx.group_id)
        assert fx.fabric.record(fx.group_id).shard_id == fx.source.shard_id
        # Not quiesced: the group serves certified mutations again.
        fx.net.post_all(fx.qs.leader.rekey_now())
        fx.net.run()
        for fm in fx.members.values():
            assert fm.protocol.group_epoch == fx.qs.leader.group_epoch
        assert all(fm.redirects == 0 for fm in fx.members.values())

    def test_truncated_replica_aborts_and_resumes_the_source(
        self, monkeypatch
    ):
        """Same refusal as the cold move: a replica that reaches the
        head seq but discarded a tail never gets re-hosted."""
        fx = QuorumFixture()
        fx.join_all()
        leader_before = fx.qs.leader
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
                migrate_quorum_group(
                    fx.fabric, fx.source, fx.target, fx.group_id, fx.qs,
                    telemetry=bus,
                )
        monkeypatch.undo()
        aborted = [r.event for r in records
                   if isinstance(r.event, MigrationAborted)]
        assert len(aborted) == 1 and aborted[0].group == fx.group_id
        assert fx.qs.leader is leader_before
        assert fx.source.hosts(fx.group_id)
        assert not fx.target.hosts(fx.group_id)
        assert fx.fabric.record(fx.group_id).shard_id == fx.source.shard_id
        fx.net.post_all(fx.qs.leader.rekey_now())
        fx.net.run()
        for fm in fx.members.values():
            assert fm.protocol.group_epoch == fx.qs.leader.group_epoch
        assert all(fm.redirects == 0 for fm in fx.members.values())
