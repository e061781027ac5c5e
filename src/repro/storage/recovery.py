"""Crash recovery: replay a journal into a reconstructed leader.

The contract, which the crash-point sweep (:mod:`repro.storage.sweep`)
enforces exhaustively: replay returns a state equal to restoring some
*valid prefix* of the journaled mutations, or it raises
:class:`~repro.exceptions.RecoveryError` — it never silently restores
corrupt or reordered state.

How the valid prefix is found:

1. Frame scan: each record must have a complete ``[len][crc32][body]``
   header, a sane length, and a matching CRC.  A torn tail (partial
   header, short body, CRC mismatch) ends the scan — everything after
   the last good record is discarded, exactly like ext4/ARIES log
   recovery.
2. Seal check: the body must open under the storage key with the
   journal's associated-data label.  A CRC-valid but MAC-invalid
   record (tampering, wrong key) also truncates — but if it is the
   *base* record, recovery fails loudly instead, because there is no
   prefix to fall back to.
3. Sequence check: the first record must be a base snapshot; each
   delta must carry ``seq = previous + 1``.  A gap means a lost middle
   record, and applying anything beyond it could interleave state from
   different histories — so the scan stops at the gap.
4. Base check: a delta carries only the session fields that moved
   since the record before it, and of the two grow-only lists only the
   entries appended, with the length they extend.  If that base is not
   the length replay has reached, or a session entry lacks fields and
   replay holds no session to take them from, a record is missing
   where ``seq`` could not show it (a spliced stream, a follower that
   was offered a delta it had not the predecessor of) — the scan stops
   there too, never stitching across the hole.

Truncation is safe *because* of the journal's write-ahead discipline:
a mutation whose record did not survive never released its frames (at
``fsync_every=1``), so the truncated state is one that members could
legitimately have observed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.keys import KeyMaterial
from repro.crypto.rng import RandomSource
from repro.enclaves.common import UserDirectory
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.persistence import (
    restore_leader,
    validate_snapshot_version,
)
from repro.exceptions import (
    CodecError,
    CryptoError,
    ProtocolError,
    RecoveryError,
    StorageError,
)
from repro.storage.journal import (
    MAX_RECORD_LEN,
    RECORD_AD,
    DeltaBaseMismatch,
    apply_delta,
    decode_record,
)
from repro.telemetry.events import EventBus, JournalReplayed
from repro.util.clock import Clock


@dataclass(frozen=True, slots=True)
class ReplayResult:
    """Outcome of one journal replay."""

    state: dict
    base_seq: int
    last_seq: int
    records: int          # records applied (base + deltas)
    truncated: bool       # a tail was discarded
    reason: str           # why the scan stopped ("end of journal", ...)


def scan_frames(data: bytes):
    """Yield ``(offset, body)`` for each CRC-valid frame; stop at the
    first torn or corrupt one.  Returns via StopIteration-free protocol:
    the caller learns the stop reason from :func:`replay_records`."""
    offset = 0
    while True:
        if offset == len(data):
            return None  # clean end
        if offset + 8 > len(data):
            return "torn frame header"
        length = int.from_bytes(data[offset:offset + 4], "big")
        crc = int.from_bytes(data[offset + 4:offset + 8], "big")
        if length > MAX_RECORD_LEN:
            return "absurd record length (corrupt header)"
        body = data[offset + 8:offset + 8 + length]
        if len(body) < length:
            return "torn record body"
        if zlib.crc32(body) != crc:
            return "record checksum mismatch"
        yield offset, bytes(body)
        offset += 8 + length


def replay_records(data: bytes, storage_key: KeyMaterial) -> ReplayResult:
    """Replay raw journal bytes to the longest valid-prefix state.

    Raises :class:`RecoveryError` when no valid base snapshot can be
    read — the caller must fall back to cold recovery.  Any defect
    *after* a valid base merely truncates.
    """
    cipher = AuthenticatedCipher(storage_key)
    state: dict | None = None
    base_seq = -1
    last_seq = -1
    records = 0
    reason = "end of journal"
    truncated = False

    frames = scan_frames(data)
    while True:
        try:
            _, body = next(frames)
        except StopIteration as stop:
            if stop.value is not None:
                reason, truncated = stop.value, True
            break
        try:
            box = SealedBox.from_bytes(body)
            plain = cipher.open(box, RECORD_AD)
            record = decode_record(plain)
            seq = record["seq"]
            kind = record["kind"]
            payload = record["data"]
        except (CryptoError, CodecError, ValueError, KeyError,
                UnicodeDecodeError) as exc:
            if state is None:
                raise RecoveryError(
                    f"journal base record unreadable: {exc}"
                ) from exc
            reason, truncated = f"unreadable record: {exc}", True
            break
        if state is None:
            if kind != "snapshot":
                raise RecoveryError(
                    f"journal does not start with a base snapshot "
                    f"(got {kind!r})"
                )
            try:
                validate_snapshot_version(payload)
            except ProtocolError as exc:
                raise RecoveryError(str(exc)) from exc
            state = payload
            base_seq = last_seq = seq
        elif kind == "snapshot":
            # A compaction base mid-file can only appear if a rewrite
            # raced a reader; treat it as a fresh epoch of the log.
            validate_snapshot_version(payload)
            state = payload
            base_seq = last_seq = seq
        else:
            if seq != last_seq + 1:
                reason = (
                    f"sequence gap ({last_seq} -> {seq}): lost record"
                )
                truncated = True
                break
            try:
                apply_delta(state, payload)
            except DeltaBaseMismatch as exc:
                reason = f"{exc}: lost record"
                truncated = True
                break
            last_seq = seq
        records += 1

    if state is None:
        raise RecoveryError("journal is empty: no base snapshot")
    return ReplayResult(
        state=state, base_seq=base_seq, last_seq=last_seq,
        records=records, truncated=truncated, reason=reason,
    )


def recover_leader(
    disk,
    path: str,
    storage_key: KeyMaterial,
    directory: UserDirectory,
    *,
    config: LeaderConfig | None = None,
    rng: RandomSource | None = None,
    clock: Clock | None = None,
    telemetry: EventBus | None = None,
    node: str | None = None,
) -> tuple[GroupLeader, ReplayResult]:
    """Read ``path`` from ``disk`` and reconstruct its leader.

    Returns ``(leader, replay_result)``.  Raises
    :class:`RecoveryError` when the journal is missing or its base is
    unreadable — the loud cold-recovery signal.  The returned leader
    has *no* journal bound; callers re-attach a fresh
    :class:`~repro.storage.journal.Journal` (which also heals any
    truncated tail by rewriting the base).
    """
    try:
        data = disk.read(path)
    except StorageError as exc:
        raise RecoveryError(f"journal {path!r} unreadable: {exc}") from exc

    started = clock.now() if clock is not None else None
    result = replay_records(data, storage_key)
    leader = restore_leader(
        result.state, directory,
        config=config, rng=rng, clock=clock, telemetry=telemetry,
    )
    if telemetry:
        duration = (
            (clock.now() - started) if started is not None else 0.0
        )
        telemetry.emit(JournalReplayed(
            node if node is not None else leader.leader_id,
            result.base_seq, result.records,
            result.truncated, result.reason, duration,
        ))
    return leader, result
