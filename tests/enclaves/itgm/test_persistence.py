"""Tests for leader warm-restart persistence."""

import pytest

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import GroupKey
from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.harness import wire
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.leader_session import LeaderState
from repro.enclaves.itgm.persistence import (
    SNAPSHOT_VERSION,
    restore_leader,
    snapshot_leader,
)
from repro.exceptions import ProtocolError, RecoveryError
from repro.storage.journal import frame_record, seal_record
from repro.storage.recovery import replay_records

from tests.conftest import ItgmGroup


def warm_restart(group):
    """Snapshot the live leader, build a fresh one from it, rewire."""
    snapshot = snapshot_leader(group.leader)
    restored = restore_leader(
        snapshot, group.directory, config=group.leader.config,
        rng=group.rng.fork("restored"),
    )
    group.net.register("leader", restored.handle)
    group.leader = restored
    return restored


class TestWarmRestart:
    def test_members_survive_restart(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        warm_restart(group)
        assert group.leader.members == ["alice", "bob"]

    def test_sessions_continue_after_restart(self):
        """The nonce chain spans the restart: admin messages sent by
        the restored leader are accepted seamlessly."""
        group = ItgmGroup(["alice", "bob"]).join_all()
        group.net.post_all(group.leader.broadcast_admin(TextPayload("pre")))
        group.net.run()
        warm_restart(group)
        group.net.post_all(group.leader.broadcast_admin(TextPayload("post")))
        group.net.run()
        for user_id, member in group.members.items():
            texts = [p.text for p in member.admin_log
                     if isinstance(p, TextPayload)]
            assert texts == ["pre", "post"]
            assert member.admin_log == group.leader.admin_send_log(user_id)

    def test_group_key_survives(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        epoch = group.leader.group_epoch
        warm_restart(group)
        assert group.leader.group_epoch == epoch
        # Existing members' app traffic still relays (same K_g).
        group.net.post(group.members["alice"].seal_app(b"post-restart"))
        group.net.run()
        assert any(e.payload == b"post-restart"
                   for e in group.net.events_of("bob", AppMessage))

    def test_pending_outbox_survives(self):
        group = ItgmGroup(["alice"]).join_all()
        # Queue two payloads; only one is in flight (stop-and-wait), the
        # other sits in the outbox — and must survive the restart.
        in_flight = group.leader.broadcast_admin(TextPayload("one"))
        group.leader.broadcast_admin(TextPayload("two"))
        assert group.leader.outbox_depth("alice") == 1
        restored = warm_restart(group)
        assert restored.outbox_depth("alice") == 1
        # Deliver the in-flight frame; the restored leader consumes the
        # ack and pumps the queued payload.
        group.net.post_all(in_flight)
        group.net.run()
        texts = [p.text for p in group.members["alice"].admin_log
                 if isinstance(p, TextPayload)]
        assert texts == ["one", "two"]

    def test_retransmission_cache_survives(self):
        group = ItgmGroup(["alice"]).join_all()
        envelope = group.leader.broadcast_admin(TextPayload("fragile"))[0]
        # The frame is "lost"; restart; the restored leader retransmits.
        restored = warm_restart(group)
        resends = restored.retransmit_stalled()
        assert resends == [envelope]
        group.net.post_all(resends)
        group.net.run()
        assert TextPayload("fragile") in group.members["alice"].admin_log

    def test_mid_handshake_session_survives(self):
        group = ItgmGroup(["alice"]).join_all()
        newbie = group.add_member("bob")
        req = newbie.start_join()
        out, _ = group.leader.handle(req)  # AuthKeyDist produced
        restored = warm_restart(group)
        assert restored.session_state("bob") is LeaderState.WAITING_FOR_KEY_ACK
        # Deliver the key dist; bob acks to the restored leader.
        group.net.post_all(out)
        group.net.run()
        assert "bob" in restored.members

    def test_restart_under_load_drains_cache_and_outboxes(self):
        """Restart with BOTH a non-empty retransmission cache (one
        in-flight frame per member, 'lost' at crash time) and queued
        outboxes: the restored leader retransmits the in-flight frame
        and then pumps the queue, and every member accepts everything
        exactly once, in order."""
        group = ItgmGroup(["alice", "bob", "carol"]).join_all()
        group.leader.broadcast_admin(TextPayload("one"))  # in flight, lost
        group.leader.broadcast_admin(TextPayload("two"))
        group.leader.broadcast_admin(TextPayload("three"))
        for user_id in group.members:
            assert group.leader.outbox_depth(user_id) == 2
        restored = warm_restart(group)
        for user_id in group.members:
            assert restored.outbox_depth(user_id) == 2
        # Drive retransmission until the channels drain.
        for _ in range(4):
            group.net.post_all(restored.retransmit_stalled())
            group.net.run()
        for user_id, member in group.members.items():
            texts = [p.text for p in member.admin_log
                     if isinstance(p, TextPayload)]
            assert texts == ["one", "two", "three"]
            assert restored.outbox_depth(user_id) == 0

    def test_rejoin_after_restart_rejected_replays(self):
        """Old session artifacts still die after a restart (the
        discarded-keys list and nonce state made the trip)."""
        group = ItgmGroup(["alice"]).join_all()
        session = group.leader._sessions["alice"]
        old_close = group.members["alice"].start_leave()
        group.net.post(old_close)
        group.net.run()
        group.net.post(group.members["alice"].start_join())
        group.net.run()
        restored = warm_restart(group)
        rejected_before = restored._sessions["alice"].stats.rejected
        group.net.inject(old_close)  # replay the old close
        group.net.run()
        assert "alice" in restored.members
        assert restored._sessions["alice"].stats.rejected > rejected_before


class TestSnapshotFormat:
    def test_version_checked(self):
        group = ItgmGroup(["alice"]).join_all()
        snapshot = snapshot_leader(group.leader)
        snapshot["version"] = 99
        with pytest.raises(ProtocolError):
            restore_leader(snapshot, group.directory)

    def test_unknown_user_rejected(self):
        group = ItgmGroup(["alice"]).join_all()
        snapshot = snapshot_leader(group.leader)
        with pytest.raises(ProtocolError):
            restore_leader(snapshot, UserDirectory())

    def test_snapshot_is_json_serializable(self):
        import json

        group = ItgmGroup(["alice", "bob"]).join_all()
        group.leader.broadcast_admin(TextPayload("queued"))
        text = json.dumps(snapshot_leader(group.leader))
        assert "alice" in text


class TestSealedStorage:
    """A snapshot at rest is a journal record: sealed by ``seal_record``
    under the operator's storage key, opened and version-checked by
    ``replay_records``."""

    STORAGE_KEY = GroupKey(b"\x55" * 32)

    def seal(self, snapshot) -> bytes:
        return seal_record(
            AuthenticatedCipher(self.STORAGE_KEY), 0, "snapshot", snapshot
        )

    def test_roundtrip(self):
        group = ItgmGroup(["alice"]).join_all()
        snapshot = snapshot_leader(group.leader)
        blob = self.seal(snapshot)
        assert replay_records(blob, self.STORAGE_KEY).state == snapshot

    def test_wrong_key_rejected(self):
        group = ItgmGroup(["alice"]).join_all()
        blob = self.seal(snapshot_leader(group.leader))
        with pytest.raises(RecoveryError, match="unreadable"):
            replay_records(blob, GroupKey(b"\x56" * 32))

    def test_tampered_blob_rejected(self):
        """The seal's MAC is the authoritative check: a flipped bit
        under a *valid* CRC frame still fails to open."""
        group = ItgmGroup(["alice"]).join_all()
        body = bytearray(self.seal(snapshot_leader(group.leader))[8:])
        body[-1] ^= 0x01
        with pytest.raises(RecoveryError, match="unreadable"):
            replay_records(frame_record(bytes(body)), self.STORAGE_KEY)

    def test_keys_not_visible_in_blob(self):
        group = ItgmGroup(["alice"]).join_all()
        snapshot = snapshot_leader(group.leader)
        blob = self.seal(snapshot)
        group_key_hex = snapshot["group_key"]
        assert bytes.fromhex(group_key_hex) not in blob

    def test_load_snapshot_rejects_unknown_version(self):
        """A record from a future (or corrupted) format version must
        fail loudly at load time, not halfway through a restore."""
        group = ItgmGroup(["alice"]).join_all()
        snapshot = snapshot_leader(group.leader)
        snapshot["version"] = SNAPSHOT_VERSION + 1
        # The seal itself is fine -- only the version gate trips.
        with pytest.raises(RecoveryError) as err:
            replay_records(self.seal(snapshot), self.STORAGE_KEY)
        message = str(err.value)
        assert str(SNAPSHOT_VERSION + 1) in message
        assert str(SNAPSHOT_VERSION) in message

    def test_load_snapshot_accepts_current_version(self):
        group = ItgmGroup(["alice"]).join_all()
        snapshot = snapshot_leader(group.leader)
        result = replay_records(self.seal(snapshot), self.STORAGE_KEY)
        assert result.state["version"] == SNAPSHOT_VERSION
        assert not result.truncated

    def test_full_cycle_restart_from_sealed_blob(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        blob = self.seal(snapshot_leader(group.leader))
        snapshot = replay_records(blob, self.STORAGE_KEY).state
        restored = restore_leader(snapshot, group.directory)
        assert restored.members == ["alice", "bob"]
