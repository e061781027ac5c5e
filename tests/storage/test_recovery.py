"""Tests for journal replay: valid-prefix recovery, loud failure."""

import json
from pathlib import Path

import pytest

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.persistence import (
    SNAPSHOT_VERSION,
    snapshot_leader,
)
from repro.exceptions import RecoveryError
from repro.storage.journal import (
    RECORD_AD,
    Journal,
    decode_record,
    frame_record,
    seal_record,
)
from repro.storage.recovery import (
    recover_leader,
    replay_records,
    scan_frames,
)
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus, JournalReplayed

from tests.conftest import ItgmGroup


def build(seed=8, **journal_kw):
    rng = DeterministicRandom(seed)
    disk = SimDisk(rng=rng.fork("disk"))
    key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
    group = ItgmGroup(["alice", "bob"], seed=seed)
    journal = Journal(
        disk, "leader.wal", key, rng=rng.fork("seal"), **journal_kw
    )
    journal.attach(group.leader)
    group.join_all()
    group.net.post_all(group.leader.broadcast_admin(TextPayload("one")))
    group.net.run()
    group.net.post_all(group.leader.rekey_now())
    group.net.run()
    return group, journal, disk, key


def canon(leader):
    return json.dumps(snapshot_leader(leader), sort_keys=True)


class TestCleanReplay:
    def test_recovered_leader_equals_live_leader(self):
        group, _, disk, key = build()
        disk.crash("none")
        disk.restart()
        leader, result = recover_leader(
            disk, "leader.wal", key, group.directory,
            config=group.leader.config,
            rng=DeterministicRandom(0),
        )
        assert canon(leader) == canon(group.leader)
        assert not result.truncated

    def test_sessions_continue_after_recovery(self):
        group, _, disk, key = build()
        disk.crash("none")
        disk.restart()
        leader, _ = recover_leader(
            disk, "leader.wal", key, group.directory,
            config=group.leader.config,
            rng=DeterministicRandom(0),
        )
        group.net.register("leader", leader.handle)
        group.net.post_all(leader.broadcast_admin(TextPayload("two")))
        group.net.run()
        for uid, member in group.members.items():
            texts = [p.text for p in member.admin_log
                     if isinstance(p, TextPayload)]
            assert texts == ["one", "two"]
            assert member.admin_log == leader.admin_send_log(uid)

    def test_replay_emits_telemetry(self):
        group, _, disk, key = build()
        bus = EventBus()
        with bus.capture() as records:
            recover_leader(
                disk, "leader.wal", key, group.directory,
                config=group.leader.config,
                rng=DeterministicRandom(0), telemetry=bus,
            )
        replayed = [r.event for r in records
                    if isinstance(r.event, JournalReplayed)]
        assert len(replayed) == 1
        assert replayed[0].records >= 1
        assert not replayed[0].truncated


class TestTruncation:
    def test_torn_tail_truncates_to_last_good_record(self):
        group, _, disk, key = build()
        data = disk.read("leader.wal")
        result_full = replay_records(data, key)
        result_torn = replay_records(data[:-3], key)
        assert result_torn.truncated
        assert result_torn.records == result_full.records - 1

    def test_bitrot_mid_log_truncates_not_crashes(self):
        group, _, disk, key = build()
        data = bytearray(disk.read("leader.wal"))
        data[len(data) // 2] ^= 0xFF
        result = replay_records(bytes(data), key)
        assert result.truncated
        assert "checksum" in result.reason or "unreadable" in result.reason

    def test_crc_valid_but_mac_invalid_truncates(self):
        """A re-CRCed forgery passes the frame scan but not the seal."""
        import zlib

        group, journal, disk, key = build()
        data = disk.read("leader.wal")
        # Corrupt the last record's body, then fix up its CRC.
        result = replay_records(data, key)
        # Find the final frame by re-scanning offsets.
        offsets = []
        frames = scan_frames(data)
        while True:
            try:
                offsets.append(next(frames))
            except StopIteration:
                break
        offset, body = offsets[-1]
        body = bytearray(body)
        body[len(body) // 2] ^= 0xFF
        forged = (
            data[:offset]
            + len(body).to_bytes(4, "big")
            + zlib.crc32(bytes(body)).to_bytes(4, "big")
            + bytes(body)
        )
        reresult = replay_records(forged, key)
        assert reresult.truncated
        assert reresult.records == result.records - 1
        assert "unreadable" in reresult.reason

    def test_sequence_gap_truncates(self):
        group, journal, disk, key = build()
        data = disk.read("leader.wal")
        # Append a record whose seq skips ahead: must not be applied.
        gap = seal_record(
            journal._cipher, journal.seq + 5, "delta", {"leader": {}}
        )
        result = replay_records(data + gap, key)
        assert result.truncated
        assert "gap" in result.reason
        assert result.last_seq == journal.seq

    @pytest.mark.parametrize("name", ["admin_log", "discarded_keys"])
    def test_suffix_base_mismatch_truncates(self, name):
        """A delta with the right seq whose suffix does not extend what
        replay holds (a record was dropped and the stream renumbered —
        nothing the seq check can see) ends replay at the previous
        record: never stitched, never raised."""
        group, journal, disk, key = build()
        data = disk.read("leader.wal")
        held = len(snapshot_leader(group.leader)["sessions"]["alice"][name])
        session = dict(
            snapshot_leader(group.leader)["sessions"]["alice"], **{
                name: ["00"], name + "_base": held + 1,
            })
        spliced = seal_record(journal._cipher, journal.seq + 1, "delta", {
            "leader": {"group_epoch": 99},
            "sessions": {"alice": session},
        })
        result = replay_records(data + spliced, key)
        assert result.truncated
        assert "suffix base mismatch" in result.reason
        assert name in result.reason
        assert result.last_seq == journal.seq
        # Nothing of the refused record was applied.
        assert json.dumps(result.state, sort_keys=True) == canon(group.leader)

    def test_suffix_for_a_session_replay_never_saw_truncates(self):
        group, journal, disk, key = build()
        session = dict(
            snapshot_leader(group.leader)["sessions"]["alice"],
            admin_log=[], admin_log_base=0,
        )
        stray = seal_record(journal._cipher, journal.seq + 1, "delta", {
            "sessions": {"mallory": session},
        })
        result = replay_records(disk.read("leader.wal") + stray, key)
        assert result.truncated
        assert "suffix base mismatch" in result.reason
        assert "mallory" not in result.state["sessions"]

    def test_partial_entry_for_a_session_replay_never_saw_truncates(self):
        """A delta session entry holds only the fields that moved; with
        no prior session to take the rest from, a record is missing."""
        group, journal, disk, key = build()
        stray = seal_record(journal._cipher, journal.seq + 1, "delta", {
            "leader": {"group_epoch": 99},
            "sessions": {"mallory": {"nonce": "00" * 16}},
        })
        result = replay_records(disk.read("leader.wal") + stray, key)
        assert result.truncated
        assert "lost record" in result.reason
        assert "mallory" in result.reason
        assert result.last_seq == journal.seq
        assert json.dumps(result.state, sort_keys=True) == canon(group.leader)

    def _sealed(self, journal, plain):
        return frame_record(journal._cipher.seal(plain, RECORD_AD).to_bytes())

    def test_unknown_field_tag_in_a_delta_truncates(self):
        group, journal, disk, key = build()
        head = bytes([0x02]) + (journal.seq + 1).to_bytes(8, "big")
        stray = self._sealed(journal, head + b"\xee\x00\x00")
        result = replay_records(disk.read("leader.wal") + stray, key)
        assert result.truncated
        assert "unknown journal field tag 0xee" in result.reason
        assert result.last_seq == journal.seq

    @pytest.mark.parametrize("tail,why", [
        (b"\x10\x00\x05ali", "ends inside a field"),  # uid cut short
        (b"\x10\x00\x05alice\x13", "ends inside a field"),  # no length
        (b"\x13\x00\x00\x00\x00", "outside a session"),
        (b"\x10\x00\x05alice\x12\x09", "unknown session state 9"),
    ])
    def test_malformed_delta_truncates_with_its_reason(self, tail, why):
        group, journal, disk, key = build()
        head = bytes([0x02]) + (journal.seq + 1).to_bytes(8, "big")
        stray = self._sealed(journal, head + tail)
        result = replay_records(disk.read("leader.wal") + stray, key)
        assert result.truncated
        assert result.reason.startswith("unreadable record: ")
        assert why in result.reason
        assert result.last_seq == journal.seq


class TestFormats:
    def _records(self, data, key):
        cipher = AuthenticatedCipher(key)
        for _, body in scan_frames(data):
            yield decode_record(
                cipher.open(SealedBox.from_bytes(body), RECORD_AD))

    def test_deltas_carry_suffixes_not_histories(self):
        group, journal, disk, key = build(compact_threshold=None)
        for i in range(6):
            group.net.post_all(
                group.leader.broadcast_admin(TextPayload(f"m{i}")))
            group.net.run()
        sessions = [
            snap
            for record in self._records(disk.read("leader.wal"), key)
            if record["kind"] == "delta"
            for snap in record["data"].get("sessions", {}).values()
        ]
        # Once a session is journaled, only what it appended is written:
        # one broadcast per flush is one entry.  The 2 is the join, whose
        # membership view and group key now leave in one batched AdminMsg
        # and so reach the log — still flat, item by item — in one flush.
        assert sorted({len(snap.get("admin_log", [])) for snap in sessions}) \
            == [0, 1, 2]
        assert any(snap.get("admin_log_base", 0) >= 6 for snap in sessions)

    def _replay_fixture(self, name):
        fixture = json.loads(
            (Path(__file__).parent / "data" / name).read_text())
        data = bytes.fromhex(fixture["journal_hex"])
        key = KeyMaterial(
            DeterministicRandom(fixture["seed"]).fork("storage")
            .key_material(KEY_LEN))
        records = list(self._records(data, key))
        assert len(records) == fixture["records"]
        result = replay_records(data, key)
        assert not result.truncated
        assert result.records == fixture["records"]
        assert result.state == fixture["state"]
        return [
            snap
            for record in records if record["kind"] == "delta"
            for snap in record["data"].get("sessions", {}).values()
            if snap is not None
        ]

    def test_journal_written_before_the_suffix_form_still_replays(self):
        """Bytes produced by commit 80bdba8's writer (every session
        delta holds the whole admin log, no ``_base`` field): same
        state out, no truncation."""
        sessions = self._replay_fixture("journal_full_log_format.json")
        assert not any(
            field.endswith("_base") for snap in sessions for field in snap)

    def test_journal_written_one_payload_per_admin_msg_still_replays(self):
        """Bytes produced by commit a2d2f79's leader, which sent every
        payload in its own AdminMsg (so no flush ever appended two log
        entries to one session): the record format did not change with
        batching, so the same state comes out, no truncation."""
        sessions = self._replay_fixture("journal_suffix_format.json")
        assert any("admin_log_base" in snap for snap in sessions)
        assert max(len(snap["admin_log"]) for snap in sessions) == 1

    def test_journal_written_as_json_records_still_replays(self):
        """Bytes produced by commit 06e4a94's writer, the last to seal
        JSON records: a compaction base, suffix deltas, a session
        removed and outboxes that hold payloads.  The binary layout's
        reader replays them to the same state, no truncation."""
        fixture = json.loads((Path(__file__).parent / "data"
                              / "journal_json_format.json").read_text())
        sessions = self._replay_fixture("journal_json_format.json")
        assert any("admin_log_base" in snap for snap in sessions)
        data = bytes.fromhex(fixture["journal_hex"])
        key = KeyMaterial(
            DeterministicRandom(fixture["seed"]).fork("storage")
            .key_material(KEY_LEN))
        records = list(self._records(data, key))
        assert records[0]["kind"] == "snapshot" and records[0]["seq"] > 0
        deltas = [r["data"] for r in records[1:]]
        assert any(None in d.get("sessions", {}).values() for d in deltas)
        assert any(any(d.get("outboxes", {}).values()) for d in deltas)
        assert any(fixture["state"]["outboxes"].values())


class TestLoudFailure:
    def test_missing_journal_is_loud(self):
        group, _, disk, key = build()
        with pytest.raises(RecoveryError):
            recover_leader(
                disk, "no-such.wal", key, group.directory,
            )

    def test_empty_journal_is_loud(self):
        _, _, _, key = build()
        with pytest.raises(RecoveryError):
            replay_records(b"", key)

    def test_corrupt_base_is_loud_not_silent(self):
        group, _, disk, key = build()
        data = bytearray(disk.read("leader.wal"))
        data[10] ^= 0xFF  # inside the base record's body
        with pytest.raises(RecoveryError):
            replay_records(bytes(data), key)

    def test_wrong_storage_key_is_loud(self):
        group, _, disk, _ = build()
        wrong = KeyMaterial(b"\x13" * KEY_LEN)
        with pytest.raises(RecoveryError):
            replay_records(disk.read("leader.wal"), wrong)

    def test_unknown_field_tag_in_the_base_is_loud(self):
        group, journal, _, key = build()
        body = bytes([0x01]) + (0).to_bytes(8, "big") + b"\xee"
        record = frame_record(
            journal._cipher.seal(body, RECORD_AD).to_bytes())
        with pytest.raises(RecoveryError) as err:
            replay_records(record, key)
        assert "unknown journal field tag 0xee" in str(err.value)

    def test_base_missing_a_field_is_loud(self):
        group, journal, _, key = build()
        snapshot = snapshot_leader(group.leader)
        del snapshot["sessions"]["alice"]["nonce"]
        record = seal_record(journal._cipher, 0, "snapshot", snapshot)
        with pytest.raises(RecoveryError) as err:
            replay_records(record, key)
        assert "alice" in str(err.value)

    def test_unknown_snapshot_version_in_base_is_loud(self):
        group, journal, disk, key = build()
        snapshot = snapshot_leader(group.leader)
        snapshot["version"] = SNAPSHOT_VERSION + 1
        record = seal_record(journal._cipher, 0, "snapshot", snapshot)
        with pytest.raises(RecoveryError) as err:
            replay_records(record, key)
        assert "version" in str(err.value)
