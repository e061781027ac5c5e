"""Append-only write-ahead journal of leader state mutations.

Why a journal and not just snapshots: sealing a full snapshot on every
mutation is O(group size × admin history) per message — unusable under
load — and a snapshot that only lives in memory (what
``LeaderOrchestrator.crash`` did before this module) does not survive a
real crash at all.  The journal makes each mutation durable in O(what
changed): a sealed *state delta* appended to an on-disk log, bounded by
periodic snapshot-plus-log compaction.

Record format, designed so a replayer can always find the valid prefix::

    [u32 length][u32 crc32 of body][body]

where ``body`` is an :class:`~repro.crypto.aead.AuthenticatedCipher`
seal (under the operator's storage key, with a fixed associated-data
label) of ``{"seq": n, "kind": "snapshot"|"delta", "data": ...}``.  The
CRC is a *fast* corruption check (bit rot, torn tails); the seal MAC is
the *authoritative* one (tampering, wrong key).  ``seq`` is strictly
increasing, so a lost middle record is detected as a gap rather than
silently stitched over.

A snapshot's ``data`` is ``persistence.snapshot_leader``.  A delta's is
``{"leader": {changed top-level fields}, "sessions": {uid: session |
None}, "outboxes": {uid: [payload hex] | None}}`` with only the entries
that moved (``None`` = removed).  A session entry is
``persistence.session_snapshot`` with its two grow-only lists in
*suffix* form: ``admin_log`` holds only the payloads sent since the
previous record and ``admin_log_base`` the log length they extend
(likewise ``discarded_keys`` / ``discarded_keys_base``), so a record
costs what the flush appended, not the session's history.  A list
without a ``_base`` field is complete and replaces what replay holds:
that is how a new session and a log emptied by close/expel are written,
and what every record written before the suffix form looks like.
:func:`apply_delta` stitches, and refuses a suffix whose base is not
the length replay has reached (a record went missing where ``seq``
could not show it).

Write-ahead discipline: :meth:`Journal.record_mutation` is invoked by
``GroupLeader._checkpoint`` *before* the mutation's outgoing frames are
released.  The unit is the **flush**: one ``GroupLeader.handle`` call,
one leader-initiated entry point (``rekey_now``, ``expel``, ``tick`` …)
or one whole ``handle_many`` batch writes one record and, at
``fsync_every=1``, one fsync — group commit — and returns its frames
only afterwards.  If the disk fails,
:class:`~repro.exceptions.DiskCrashed` propagates and every frame of
the flush is withheld — so with ``fsync_every=1`` no member can ever
have seen a frame whose mutation the journal lost, which is exactly
what makes post-crash recovery *warm* (members keep their sessions; see
:mod:`repro.storage.recovery`).

State deltas, not commands: the leader draws keys from its
:class:`~repro.crypto.rng.RandomSource`, so re-executing the inbound
message would derive *different* keys in production (``SystemRandom``
cannot be replayed).  Journaling the resulting state sidesteps the
whole question — replay is pure data application, no crypto re-runs.
"""

from __future__ import annotations

import json
import zlib

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyMaterial
from repro.crypto.rng import RandomSource
from repro.exceptions import StorageError
from repro.telemetry.events import (
    EventBus,
    JournalAppended,
    JournalCompacted,
    JournalSynced,
)

#: Associated-data label binding a seal to "journal record", so nothing
#: else sealed under the storage key can be spliced into a journal.
RECORD_AD = b"repro-journal-record-v1"

#: Upper bound on a single record's body, to reject absurd lengths from
#: corrupted headers before allocating.
MAX_RECORD_LEN = 16 * 1024 * 1024


def frame_record(body: bytes) -> bytes:
    """Wrap a sealed body in the ``[len][crc32][body]`` frame."""
    return (
        len(body).to_bytes(4, "big")
        + zlib.crc32(body).to_bytes(4, "big")
        + body
    )


def seal_record(
    cipher: AuthenticatedCipher, seq: int, kind: str, data
) -> bytes:
    """Seal one journal record and frame it for appending."""
    plain = json.dumps(
        {"seq": seq, "kind": kind, "data": data}, sort_keys=True
    ).encode("utf-8")
    return frame_record(cipher.seal(plain, RECORD_AD).to_bytes())


class Journal:
    """Write-ahead log for one leader's state, on one :class:`SimDisk`.

    Parameters:

    * ``fsync_every`` — records per fsync.  ``1`` (the default) is the
      warm-recovery setting: every released frame is backed by a
      durable record.  Larger values trade durability for throughput;
      members may then be *ahead* of the journal by up to the unsynced
      batch after a crash, and those sessions fall back to
      re-authentication.
    * ``compact_threshold`` — delta records after which the journal is
      rewritten as a single base snapshot (``None`` disables), keeping
      replay O(group state), not O(history).
    """

    def __init__(
        self,
        disk,
        path: str,
        storage_key: KeyMaterial,
        *,
        fsync_every: int = 1,
        compact_threshold: int | None = 64,
        rng: RandomSource | None = None,
        node: str = "leader",
        telemetry: EventBus | None = None,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if compact_threshold is not None and compact_threshold < 1:
            raise ValueError("compact_threshold must be >= 1 or None")
        self.disk = disk
        self.path = path
        self._cipher = AuthenticatedCipher(storage_key, rng)
        self.fsync_every = fsync_every
        self.compact_threshold = compact_threshold
        self.node = node
        self._telemetry = telemetry
        #: optional PhaseProfiler (observability); None when off.
        self._profiler = None
        self.seq = 0
        self._unsynced = 0
        self._deltas_since_base = 0
        # What the last record left on disk, for delta computation: the
        # top-level fields and encoded outboxes, and per session the
        # ``(version, log_generation, len(admin_log),
        # len(discarded_keys))`` it was written at.
        self._view: dict | None = None
        self._session_marks: dict[str, tuple[int, int, int, int]] = {}
        self._subscribers = []  # shipping hooks: fn(record, seq, kind)
        self.appends = 0
        self.fsyncs = 0
        self.compactions = 0

    # -- wiring -------------------------------------------------------------

    def subscribe_records(self, fn) -> None:
        """Register ``fn(record_bytes, seq, kind)`` for every record
        written (including compaction base snapshots).  Used by
        :class:`~repro.storage.shipping.JournalShipper`."""
        self._subscribers.append(fn)

    def unsubscribe_records(self, fn) -> None:
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    def bind_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.observability.profile.PhaseProfiler`
        to the append/fsync write path (None detaches)."""
        self._profiler = profiler

    def attach(self, leader, start_seq: int = 0) -> None:
        """Write a base snapshot of ``leader`` and start journaling it.

        The base is written via the atomic tmp-fsync-rename dance, so a
        crash mid-attach leaves either the previous journal or nothing
        — never a half-written base that replay could misread.  Also
        the re-attach path after recovery: rewriting the base both
        resets replay cost and heals any truncated tail on disk.
        """
        from repro.enclaves.itgm.persistence import snapshot_leader

        self.seq = start_seq
        snapshot = snapshot_leader(leader)
        record = seal_record(self._cipher, self.seq, "snapshot", snapshot)
        self._rewrite(record)
        self._init_view(leader, snapshot)
        self._deltas_since_base = 0
        self.appends += 1
        if self._telemetry:
            self._telemetry.emit(JournalAppended(
                self.node, "snapshot", self.seq, len(record)
            ))
        self._notify(record, self.seq, "snapshot")
        leader.bind_journal(self)

    def make_snapshot_record(self, leader) -> bytes:
        """A framed base-snapshot record at the *current* seq.

        Does not advance ``seq`` or touch the disk: used to prime a
        late-joining shipping follower without perturbing the on-disk
        sequence (a seq bump here would read as a gap at replay)."""
        from repro.enclaves.itgm.persistence import snapshot_leader

        return seal_record(
            self._cipher, self.seq, "snapshot", snapshot_leader(leader)
        )

    # -- the write path -----------------------------------------------------

    def record_mutation(self, leader) -> None:
        """Journal whatever changed since the last record.

        Called by ``GroupLeader._checkpoint`` at the end of every
        flush that could have mutated state, before its outputs are
        released.  A no-op when nothing observable changed (e.g. a
        rejected frame), so the journal length tracks *mutations*, not
        traffic.
        """
        if self._view is None:
            raise RuntimeError("journal not attached (call attach first)")
        delta = self._diff(leader)
        if not delta:
            return
        prof = self._profiler
        tok = prof.begin("wal.append") if prof else None
        try:
            self.seq += 1
            record = seal_record(self._cipher, self.seq, "delta", delta)
            self.disk.append(self.path, record)
        finally:
            if prof:
                prof.end(tok)
        self.appends += 1
        self._unsynced += 1
        self._deltas_since_base += 1
        if self._telemetry:
            self._telemetry.emit(JournalAppended(
                self.node, "delta", self.seq, len(record),
                getattr(leader, "_cause", ""),
            ))
        if self._unsynced >= self.fsync_every:
            self.sync()
        self._notify(record, self.seq, "delta")
        if (
            self.compact_threshold is not None
            and self._deltas_since_base >= self.compact_threshold
        ):
            self.compact(leader)

    def sync(self) -> None:
        """Force buffered records to durable storage."""
        if self._unsynced == 0:
            return
        prof = self._profiler
        tok = prof.begin("wal.fsync") if prof else None
        try:
            self.disk.fsync(self.path)
        finally:
            if prof:
                prof.end(tok)
        records, self._unsynced = self._unsynced, 0
        self.fsyncs += 1
        if self._telemetry:
            self._telemetry.emit(JournalSynced(self.node, records))

    def compact(self, leader) -> None:
        """Rewrite the journal as one base snapshot at the current seq.

        Folds every delta so far into the base; replay afterwards is a
        single restore.  Atomic (tmp + fsync + rename): a crash during
        compaction leaves the *old* journal intact, which still replays
        to the same state — compaction can never lose a mutation.
        """
        from repro.enclaves.itgm.persistence import snapshot_leader

        self.sync()
        snapshot = snapshot_leader(leader)
        record = seal_record(self._cipher, self.seq, "snapshot", snapshot)
        self._rewrite(record)
        folded, self._deltas_since_base = self._deltas_since_base, 0
        self._init_view(leader, snapshot)
        self.compactions += 1
        if self._telemetry:
            self._telemetry.emit(JournalCompacted(
                self.node, self.seq, folded
            ))
        self._notify(record, self.seq, "snapshot")

    # -- internals ----------------------------------------------------------

    def _rewrite(self, record: bytes) -> None:
        tmp = self.path + ".tmp"
        if self.disk.exists(tmp):
            self.disk.delete(tmp)
        self.disk.append(tmp, record)
        self.disk.fsync(tmp)
        self.disk.replace(tmp, self.path)
        self._unsynced = 0

    def _notify(self, record: bytes, seq: int, kind: str) -> None:
        for fn in list(self._subscribers):
            fn(record, seq, kind)

    def _init_view(self, leader, snapshot: dict) -> None:
        self._view = {
            "group_key": snapshot["group_key"],
            "group_epoch": snapshot["group_epoch"],
            "last_rotation_was_eviction":
                snapshot["last_rotation_was_eviction"],
            "outboxes": dict(snapshot["outboxes"]),
        }
        self._session_marks = {
            uid: _mark(session)
            for uid, session in leader._sessions.items()
        }

    def _diff(self, leader) -> dict | None:
        """What changed since the last record, as a mergeable delta."""
        from repro.enclaves.itgm.persistence import session_snapshot

        view = self._view
        assert view is not None
        delta: dict = {}

        group_key = (
            leader._group_key.material.hex() if leader._group_key else None
        )
        top = {}
        if group_key != view["group_key"]:
            top["group_key"] = group_key
        if leader._group_epoch != view["group_epoch"]:
            top["group_epoch"] = leader._group_epoch
        if (leader._last_rotation_was_eviction
                != view["last_rotation_was_eviction"]):
            top["last_rotation_was_eviction"] = (
                leader._last_rotation_was_eviction
            )
        if top:
            delta["leader"] = top
            view.update(top)

        marks = self._session_marks
        sessions: dict = {}
        for uid, session in leader._sessions.items():
            # The per-session version counter makes this O(changed
            # sessions), and the suffix form O(entries they appended):
            # neither an untouched session nor the journaled part of a
            # touched one's (unbounded) admin log is re-serialized.
            mark = marks.get(uid)
            if mark is None:
                sessions[uid] = session_snapshot(session)
            elif mark[0] == session.version:
                continue
            else:
                _, generation, log_len, keys_len = mark
                sessions[uid] = session_snapshot(
                    session,
                    log_base=(log_len
                              if generation == session.log_generation
                              else None),
                    keys_base=keys_len,
                )
            marks[uid] = _mark(session)
        for uid in [uid for uid in marks if uid not in leader._sessions]:
            sessions[uid] = None
            del marks[uid]
        if sessions:
            delta["sessions"] = sessions

        outboxes: dict = {}
        for uid, outbox in leader._outboxes.items():
            encoded = [payload.encode().hex() for payload in outbox]
            if view["outboxes"].get(uid) != encoded:
                outboxes[uid] = encoded
                view["outboxes"][uid] = encoded
        for uid in list(view["outboxes"]):
            if uid not in leader._outboxes:
                outboxes[uid] = None
                del view["outboxes"][uid]
        if outboxes:
            delta["outboxes"] = outboxes

        return delta or None


def _mark(session) -> tuple[int, int, int, int]:
    return (
        session.version, session.log_generation,
        len(session.admin_log), len(session.discarded_keys),
    )


#: The per-session lists a delta carries as a suffix (see module docstring).
_SUFFIX_LISTS = ("admin_log", "discarded_keys")


class DeltaBaseMismatch(StorageError):
    """A suffix delta does not extend the state it was applied to: a
    record between the two is missing.  Replay truncates before it."""


def apply_delta(state: dict, data: dict) -> None:
    """Merge one delta record into a full snapshot dict (in place).

    Raises :class:`DeltaBaseMismatch`, with ``state`` untouched, when a
    suffix list's base is not the length ``state`` holds.
    """
    sessions = data.get("sessions", {})
    for uid, snap in sessions.items():
        if snap is None:
            continue
        prior = state["sessions"].get(uid)
        for name in _SUFFIX_LISTS:
            base = snap.get(name + "_base")
            if base is None:
                continue
            held = len(prior[name]) if prior is not None else None
            if base != held:
                raise DeltaBaseMismatch(
                    f"{uid!r} {name} suffix extends length {base}, "
                    f"replayed state holds {held}"
                )
    for key, value in data.get("leader", {}).items():
        state[key] = value
    for uid, snap in sessions.items():
        if snap is None:
            state["sessions"].pop(uid, None)
            continue
        for name in _SUFFIX_LISTS:
            if snap.pop(name + "_base", None) is not None:
                stitched = state["sessions"][uid][name]
                stitched.extend(snap[name])
                snap[name] = stitched
        state["sessions"][uid] = snap
    for uid, encoded in data.get("outboxes", {}).items():
        if encoded is None:
            state["outboxes"].pop(uid, None)
        else:
            state["outboxes"][uid] = encoded
