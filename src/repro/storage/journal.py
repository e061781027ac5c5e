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
seal (under the operator's storage key, with the fixed associated-data
label :data:`RECORD_AD`) of::

    [u8 format][u64 seq][field]*

The format byte says the kind (``0x01`` base snapshot, ``0x02``
delta).  The CRC is a *fast* corruption check (bit rot, torn tails);
the seal MAC is the *authoritative* one (tampering, wrong key).
``seq`` is strictly increasing, so a lost middle record is detected as
a gap rather than silently stitched over.

A field is a one-byte tag and its value, raw bytes throughout
(``str`` = u16 length + UTF-8, ``opt`` = u32 length + bytes, length
``0xFFFFFFFF`` = absent).  In order:

* the leader's fields: ``version`` and ``leader_id`` (base only),
  ``group_key``, ``group_epoch``, ``last_rotation_was_eviction`` —
  each only if it moved;
* per touched session, ``SESSION uid`` and then only the fields that
  moved since its previous record: ``state``, ``nonce``,
  ``session_key``, ``init_body``, ``last_outbound`` (the encoded
  envelope), and the two grow-only lists ``admin_log`` (encoded
  payloads) and ``discarded_keys``, each ``[u32 base][u32 n][item]*``
  where ``base`` is the list length the items extend — a suffix, so a
  record costs what the flush appended, not the session's history.
  ``base = 0xFFFFFFFF`` marks a complete list, which is how a new
  session and a log emptied by close/expel are written.
  ``SESSION_GONE uid`` removes a session;
* ``OUTBOX uid [u32 n][payload]*`` per outbox that changed,
  ``OUTBOX_GONE uid`` per one removed.

A base snapshot is the same layout written against an empty journal:
every field present.  :func:`decode_record` turns either kind into the
dict form replay works on (``persistence.snapshot_leader`` for a base;
``{"leader": {...}, "sessions": {uid: entry | None}, "outboxes": {uid:
[payload hex] | None}}`` for a delta, where a suffix list comes with a
``<list>_base`` key and a session entry holds only the fields written).
It also reads the JSON records (``{"seq", "kind", "data"}`` in that
same dict form) that the journal wrote before this layout, so older
WALs still replay.  :func:`apply_delta` merges, and refuses a suffix
whose base is not the length replay has reached, or a partial entry
for a session replay has not seen: a record went missing where ``seq``
could not show it.

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
import struct
import zlib

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyMaterial
from repro.crypto.rng import RandomSource
from repro.enclaves.itgm.leader_session import LeaderState
from repro.enclaves.itgm.persistence import SNAPSHOT_VERSION
from repro.exceptions import CodecError, StorageError
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

# Format bytes (the kind of record) and field tags of the layout above.
_SNAPSHOT, _DELTA = 0x01, 0x02
_KIND_OF = {_SNAPSHOT: "snapshot", _DELTA: "delta"}
_FORMAT_OF = {kind: fmt for fmt, kind in _KIND_OF.items()}
(_VERSION, _LEADER_ID, _GROUP_KEY, _EPOCH, _EVICTION) = range(0x01, 0x06)
(_SESSION, _SESSION_GONE, _STATE, _NONCE, _SESSION_KEY, _INIT_BODY,
 _LAST_OUTBOUND, _ADMIN_LOG, _DISCARDED) = range(0x10, 0x19)
_OUTBOX, _OUTBOX_GONE = 0x20, 0x21

_HEAD = struct.Struct(">BQ")     # format, seq
_TAG_STR = struct.Struct(">BH")  # tag, UTF-8 length
_TAG_U32 = struct.Struct(">BI")  # tag, a length (or _ABSENT) or version
_TAG_INT = struct.Struct(">Bq")  # tag, signed value
_TAG_U8 = struct.Struct(">BB")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_ABSENT = 0xFFFFFFFF

#: A session state is stored as its index here: spelled out, so that
#: reordering the enum cannot change what a stored byte means.
_STATES = (
    LeaderState.NOT_CONNECTED, LeaderState.WAITING_FOR_KEY_ACK,
    LeaderState.CONNECTED, LeaderState.WAITING_FOR_ACK,
)
_STATE_INDEX = {state: i for i, state in enumerate(_STATES)}
#: The optional-bytes session fields, by tag (dict form names).
_OPT_FIELDS = (
    (_NONCE, "nonce"), (_SESSION_KEY, "session_key"),
    (_INIT_BODY, "init_body"), (_LAST_OUTBOUND, "last_outbound"),
)
_OPT_NAME = dict(_OPT_FIELDS)
#: The per-session lists a delta carries as a suffix (see module docstring).
_SUFFIX_LISTS = ("admin_log", "discarded_keys")
#: Every field of a complete session entry, and of a base's leader.
_SESSION_FIELDS = frozenset({
    "state", "nonce", "session_key", "admin_log", "discarded_keys",
    "init_body", "last_outbound",
})
_BASE_FIELDS = frozenset({
    "version", "leader_id", "group_key", "group_epoch",
    "last_rotation_was_eviction",
})

#: Written before anything: no journaled object ``is`` it.
_UNWRITTEN = object()
#: The mark of a session no record holds yet (see :func:`_pack_session`).
_NEW_SESSION = (None,) + (_UNWRITTEN,) * 5 + (None, 0, None)


def frame_record(body: bytes) -> bytes:
    """Wrap a sealed body in the ``[len][crc32][body]`` frame."""
    return (
        len(body).to_bytes(4, "big")
        + zlib.crc32(body).to_bytes(4, "big")
        + body
    )


def _seal(cipher: AuthenticatedCipher, kind: str, seq: int, fields) -> bytes:
    plain = b"".join((_HEAD.pack(_FORMAT_OF[kind], seq), *fields))
    return frame_record(cipher.seal(plain, RECORD_AD).to_bytes())


def seal_record(
    cipher: AuthenticatedCipher, seq: int, kind: str, data: dict
) -> bytes:
    """Seal one record given in the dict form :func:`decode_record`
    returns, in the journal's layout, and frame it for appending."""
    out: list[bytes] = []
    if kind == "snapshot":
        out.append(_TAG_U32.pack(_VERSION, data["version"]))
        _put_str(out, _LEADER_ID, data["leader_id"])
        top = data
    else:
        top = data.get("leader", {})
    if "group_key" in top:
        _put_opt(out, _GROUP_KEY, _unhex(top["group_key"]))
    if "group_epoch" in top:
        out.append(_TAG_INT.pack(_EPOCH, top["group_epoch"]))
    if "last_rotation_was_eviction" in top:
        out.append(_TAG_U8.pack(
            _EVICTION, top["last_rotation_was_eviction"]))
    for uid, entry in data.get("sessions", {}).items():
        if entry is None:
            _put_str(out, _SESSION_GONE, uid)
            continue
        _put_str(out, _SESSION, uid)
        if "state" in entry:
            out.append(_TAG_U8.pack(
                _STATE, _STATE_INDEX[LeaderState[entry["state"]]]))
        for tag, name in _OPT_FIELDS:
            if name in entry:
                _put_opt(out, tag, _unhex(entry[name]))
        if "admin_log" in entry:
            _put_list(out, _ADMIN_LOG, entry.get("admin_log_base"),
                      [bytes.fromhex(item) for item in entry["admin_log"]])
        if "discarded_keys" in entry:
            _put_list(out, _DISCARDED, entry.get("discarded_keys_base"),
                      [item.encode("utf-8")
                       for item in entry["discarded_keys"]], _U16)
    for uid, encoded in data.get("outboxes", {}).items():
        if encoded is None:
            _put_str(out, _OUTBOX_GONE, uid)
        else:
            _put_str(out, _OUTBOX, uid)
            _put_items(out, [bytes.fromhex(item) for item in encoded])
    return _seal(cipher, kind, seq, out)


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
        # What the records so far left on disk, as the objects they
        # were written from (see :func:`_pack_changes`): the leader's
        # fields and outboxes, and a mark per session.
        self._view: dict | None = None
        self._session_marks: dict[str, tuple] = {}
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
        self.seq = start_seq
        record = self._rewrite_base(leader)
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
        return _seal(self._cipher, "snapshot", self.seq,
                     _pack_base(leader, _empty_view(), {}))

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
            record = _seal(self._cipher, "delta", self.seq, delta)
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
        self.sync()
        record = self._rewrite_base(leader)
        folded, self._deltas_since_base = self._deltas_since_base, 0
        self.compactions += 1
        if self._telemetry:
            self._telemetry.emit(JournalCompacted(
                self.node, self.seq, folded
            ))
        self._notify(record, self.seq, "snapshot")

    # -- internals ----------------------------------------------------------

    def _rewrite_base(self, leader) -> bytes:
        """Replace the file with a base snapshot; journal from it on."""
        view, marks = _empty_view(), {}
        record = _seal(self._cipher, "snapshot", self.seq,
                       _pack_base(leader, view, marks))
        tmp = self.path + ".tmp"
        if self.disk.exists(tmp):
            self.disk.delete(tmp)
        self.disk.append(tmp, record)
        self.disk.fsync(tmp)
        self.disk.replace(tmp, self.path)
        self._unsynced = 0
        self._view, self._session_marks = view, marks
        return record

    def _notify(self, record: bytes, seq: int, kind: str) -> None:
        for fn in list(self._subscribers):
            fn(record, seq, kind)

    def _diff(self, leader) -> list[bytes] | None:
        """The fields that changed since the last record, packed."""
        out: list[bytes] = []
        _pack_changes(out, leader, self._view, self._session_marks)
        return out or None


# -- the writer ---------------------------------------------------------------

def _put_str(out: list, tag: int, text: str) -> None:
    raw = text.encode("utf-8")
    out.append(_TAG_STR.pack(tag, len(raw)))
    out.append(raw)


def _put_opt(out: list, tag: int, data: bytes | None) -> None:
    if data is None:
        out.append(_TAG_U32.pack(tag, _ABSENT))
    else:
        out.append(_TAG_U32.pack(tag, len(data)))
        out.append(data)


def _put_items(out: list, items, length: struct.Struct = _U32) -> None:
    out.append(_U32.pack(len(items)))
    for item in items:
        out.append(length.pack(len(item)))
        out.append(item)


def _put_list(out: list, tag: int, base: int | None, items,
              length: struct.Struct = _U32) -> None:
    """A grow-only list: the length ``items`` extend (``None``: they
    are the whole list), then the items."""
    out.append(_TAG_U32.pack(tag, _ABSENT if base is None else base))
    _put_items(out, items, length)


def _empty_view() -> dict:
    return {
        "group_key": _UNWRITTEN, "group_epoch": _UNWRITTEN,
        "eviction": _UNWRITTEN, "outboxes": {},
    }


def _pack_base(leader, view: dict, marks: dict) -> list[bytes]:
    """A base snapshot: every field, as a delta against an empty view."""
    out = [_TAG_U32.pack(_VERSION, SNAPSHOT_VERSION)]
    _put_str(out, _LEADER_ID, leader.leader_id)
    _pack_changes(out, leader, view, marks)
    return out


def _pack_changes(out: list, leader, view: dict, marks: dict) -> None:
    """Pack what differs between ``leader`` and what ``view`` and
    ``marks`` say the records so far hold, and bring both up to date.

    Both keep the objects last written and compare them by identity
    (``is``), or by ``==`` for the ints and the outboxes' payload
    tuples, so finding nothing to write encodes nothing, and an
    untouched session costs one version compare."""
    key = leader._group_key
    if key is not view["group_key"]:
        _put_opt(out, _GROUP_KEY, key.material if key is not None else None)
        view["group_key"] = key
    if leader._group_epoch != view["group_epoch"]:
        out.append(_TAG_INT.pack(_EPOCH, leader._group_epoch))
        view["group_epoch"] = leader._group_epoch
    if leader._last_rotation_was_eviction != view["eviction"]:
        out.append(_TAG_U8.pack(
            _EVICTION, leader._last_rotation_was_eviction))
        view["eviction"] = leader._last_rotation_was_eviction

    sessions = leader._sessions
    for uid, session in sessions.items():
        mark = marks.get(uid, _NEW_SESSION)
        if mark[0] != session.version:
            marks[uid] = _pack_session(out, uid, session, mark)
    if len(marks) != len(sessions):
        for uid in [uid for uid in marks if uid not in sessions]:
            _put_str(out, _SESSION_GONE, uid)
            del marks[uid]

    written = view["outboxes"]
    outboxes = leader._outboxes
    for uid, outbox in outboxes.items():
        payloads = tuple(outbox)
        if written.get(uid) != payloads:
            _put_str(out, _OUTBOX, uid)
            _put_items(out, [payload.encode() for payload in payloads])
            written[uid] = payloads
    if len(written) != len(outboxes):
        for uid in [uid for uid in written if uid not in outboxes]:
            _put_str(out, _OUTBOX_GONE, uid)
            del written[uid]


def _pack_session(out: list, uid: str, session, mark: tuple) -> tuple:
    """Pack the fields of ``session`` that moved since ``mark`` and
    return its new mark.  A mark is ``(version, state, nonce,
    session_key, init_body, last_outbound, log_generation, len(admin_log),
    len(discarded_keys))``, the objects as last written."""
    (_, state, nonce, key, init_body, outbound,
     generation, log_len, keys_len) = mark
    _put_str(out, _SESSION, uid)
    if session.state is not state:
        state = session.state
        out.append(_TAG_U8.pack(_STATE, _STATE_INDEX[state]))
    if session._nonce is not nonce:
        nonce = session._nonce
        _put_opt(out, _NONCE, nonce)
    if session._session_key is not key:
        key = session._session_key
        _put_opt(out, _SESSION_KEY, key.material if key is not None else None)
    if session._init_body is not init_body:
        init_body = session._init_body
        _put_opt(out, _INIT_BODY, init_body)
    if session._last_outbound is not outbound:
        outbound = session._last_outbound
        _put_opt(out, _LAST_OUTBOUND,
                 outbound.to_bytes() if outbound is not None else None)
    log = session.admin_log
    if session.log_generation != generation:
        # A new session, or its log was emptied since: the whole list.
        _put_list(out, _ADMIN_LOG, None,
                  [payload.encode() for payload in log])
    elif len(log) != log_len:
        _put_list(out, _ADMIN_LOG, log_len,
                  [payload.encode() for payload in log[log_len:]])
    keys = session.discarded_keys
    if keys_len is None or len(keys) != keys_len:
        _put_list(out, _DISCARDED, keys_len,
                  [fp.encode("utf-8") for fp in keys[keys_len or 0:]], _U16)
    return (session.version, state, nonce, key, init_body, outbound,
            session.log_generation, len(log), len(keys))


# -- the reader ---------------------------------------------------------------

def _unhex(text: str | None) -> bytes | None:
    return bytes.fromhex(text) if text is not None else None


class _Reader:
    """Bounds-checked cursor over one record's fields: running off the
    end is a :class:`CodecError`, never an ``IndexError``."""

    __slots__ = ("data", "at")

    def __init__(self, data: bytes, at: int) -> None:
        self.data = data
        self.at = at

    def take(self, n: int) -> bytes:
        end = self.at + n
        if end > len(self.data):
            raise CodecError("journal record ends inside a field")
        chunk = self.data[self.at:end]
        self.at = end
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def text(self) -> str:
        try:
            return self.take(self.unpack(_U16)[0]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"journal record holds bad UTF-8: {exc}")

    def opt(self) -> str | None:
        (length,) = self.unpack(_U32)
        return None if length == _ABSENT else self.take(length).hex()

    def hex(self) -> str:
        return self.take(self.unpack(_U32)[0]).hex()

    def items(self, item) -> list:
        (count,) = self.unpack(_U32)
        return [item() for _ in range(count)]

    def based(self, item) -> tuple[int | None, list]:
        (base,) = self.unpack(_U32)
        return (None if base == _ABSENT else base), self.items(item)

    def state(self) -> str:
        index = self.take(1)[0]
        if index >= len(_STATES):
            raise CodecError(f"unknown session state {index}")
        return _STATES[index].name


def decode_record(plain: bytes) -> dict:
    """An opened record as ``{"seq", "kind", "data"}`` in the dict form
    (see the module docstring), from either layout.

    Raises :class:`CodecError` on a malformed record: an unknown format
    byte or field tag, a field cut short, or a base snapshot that lacks
    a field.
    """
    if plain[:1] == b"{":  # a record from before the binary layout
        return json.loads(plain.decode("utf-8"))
    if len(plain) < _HEAD.size:
        raise CodecError("journal record shorter than its header")
    fmt, seq = _HEAD.unpack_from(plain)
    kind = _KIND_OF.get(fmt)
    if kind is None:
        raise CodecError(f"unknown journal record format {fmt:#04x}")
    snapshot = kind == "snapshot"
    top: dict = {}
    sessions: dict = {}
    outboxes: dict = {}
    entry = None
    read = _Reader(plain, _HEAD.size)
    while read.at < len(plain):
        tag = read.take(1)[0]
        if tag == _SESSION:
            entry = sessions[read.text()] = {}
        elif tag == _SESSION_GONE:
            sessions[read.text()] = entry = None
        elif _STATE <= tag <= _DISCARDED:
            if entry is None:
                raise CodecError(f"session field {tag:#04x} outside a session")
            if tag == _STATE:
                entry["state"] = read.state()
            elif tag == _ADMIN_LOG:
                _set_list(entry, "admin_log", *read.based(read.hex))
            elif tag == _DISCARDED:
                _set_list(entry, "discarded_keys", *read.based(read.text))
            else:
                entry[_OPT_NAME[tag]] = read.opt()
        elif tag == _OUTBOX:
            uid = read.text()
            outboxes[uid] = read.items(read.hex)
        elif tag == _OUTBOX_GONE:
            outboxes[read.text()] = None
        elif tag == _GROUP_KEY:
            top["group_key"] = read.opt()
        elif tag == _EPOCH:
            top["group_epoch"] = read.unpack(_I64)[0]
        elif tag == _EVICTION:
            top["last_rotation_was_eviction"] = bool(read.take(1)[0])
        elif snapshot and tag == _VERSION:
            top["version"] = read.unpack(_U32)[0]
        elif snapshot and tag == _LEADER_ID:
            top["leader_id"] = read.text()
        else:
            raise CodecError(f"unknown journal field tag {tag:#04x}")
    if not snapshot:
        data = {name: section for name, section in (
            ("leader", top), ("sessions", sessions), ("outboxes", outboxes),
        ) if section}
        return {"seq": seq, "kind": kind, "data": data}
    missing = _BASE_FIELDS - top.keys()
    for uid, entry in sessions.items():
        if entry is None or not _SESSION_FIELDS <= entry.keys() or any(
            name + "_base" in entry for name in _SUFFIX_LISTS
        ):
            missing.add(f"session {uid!r}")
    missing.update(
        f"outbox {uid!r}" for uid, items in outboxes.items() if items is None)
    if missing:
        raise CodecError(f"base snapshot lacks {sorted(missing)}")
    top["sessions"] = sessions
    top["outboxes"] = outboxes
    return {"seq": seq, "kind": kind, "data": top}


def _set_list(entry: dict, name: str, base: int | None, items: list) -> None:
    entry[name] = items
    if base is not None:
        entry[name + "_base"] = base


class DeltaBaseMismatch(StorageError):
    """A delta does not extend the state it was applied to: a record
    between the two is missing.  Replay truncates before it."""


def apply_delta(state: dict, data: dict) -> None:
    """Merge one delta record into a full snapshot dict (in place).

    A session entry's fields replace the prior entry's, and the fields
    it lacks keep their replayed value.  Raises
    :class:`DeltaBaseMismatch`, with ``state`` untouched, when a suffix
    list's base is not the length ``state`` holds, or when an entry
    lacks fields and ``state`` holds no session to take them from.
    """
    sessions = data.get("sessions", {})
    for uid, snap in sessions.items():
        if snap is None:
            continue
        prior = state["sessions"].get(uid)
        if prior is None and not _SESSION_FIELDS <= snap.keys():
            raise DeltaBaseMismatch(
                f"partial session entry: {uid!r} carries only the "
                f"fields that moved, replayed state holds no such session"
            )
        for name in _SUFFIX_LISTS:
            base = snap.get(name + "_base")
            if base is None:
                continue
            held = len(prior[name]) if prior is not None else None
            if base != held:
                raise DeltaBaseMismatch(
                    f"suffix base mismatch: {uid!r} {name} suffix extends "
                    f"length {base}, replayed state holds {held}"
                )
    for key, value in data.get("leader", {}).items():
        state[key] = value
    for uid, snap in sessions.items():
        if snap is None:
            state["sessions"].pop(uid, None)
            continue
        prior = state["sessions"].get(uid)
        for name in _SUFFIX_LISTS:
            if snap.pop(name + "_base", None) is not None:
                stitched = prior[name]
                stitched.extend(snap[name])
                snap[name] = stitched
        state["sessions"][uid] = snap if prior is None else {**prior, **snap}
    for uid, encoded in data.get("outboxes", {}).items():
        if encoded is None:
            state["outboxes"].pop(uid, None)
        else:
            state["outboxes"][uid] = encoded
