"""Journal shipping: warm standbys for the manager set.

Cold failover (:mod:`repro.enclaves.itgm.failover`) throws every
session away — each member re-runs the §3.2 handshake against the new
primary.  Shipping upgrades a standby to *warm*: the primary streams
its sealed journal records to followers as they are written, and on
promotion the follower replays them into a leader that holds the same
session keys, nonce chains, and retransmission caches the primary had.
Members keep their sessions; the promoted standby re-hosts the dead
primary's logical identity, and traffic simply continues.

The guarantee is exactly prefix-shaped, like recovery's: sessions are
warm *for all shipped mutations*.  A mutation whose record never
reached the follower (the un-shipped tail at the moment of death)
leaves the affected member one step ahead of the promoted leader; that
member's session desyncs and falls back to re-authentication — the
same loud, safe path cold failover always takes.  The warm-takeover
test counts authentication handshakes on the wire to pin this down.

Records travel sealed: a follower stores ciphertext and needs the
storage key only at promotion time, so a compromised standby's disk
leaks nothing the at-rest journal would not.
"""

from __future__ import annotations

from repro.crypto.keys import KeyMaterial
from repro.crypto.rng import RandomSource
from repro.exceptions import RecoveryError
from repro.storage.journal import Journal
from repro.storage.recovery import ReplayResult, replay_records
from repro.telemetry.events import (
    EventBus,
    FollowerLagged,
    JournalShipped,
    StandbyPromoted,
)


class JournalFollower:
    """A standby's replica of the primary's journal, still sealed.

    Holds the latest base snapshot record plus the delta tail after
    it.  A new base (attach or compaction on the primary) resets the
    tail, so the replica's size is bounded exactly like the journal's.
    """

    def __init__(self, name: str, storage_key: KeyMaterial) -> None:
        self.name = name
        self._storage_key = storage_key
        self._base: bytes | None = None
        self._tail: list[bytes] = []
        #: Highest seq the primary ever *offered* this follower.
        self.offered_seq = -1
        #: Highest seq actually folded into the replica.  Trails
        #: ``offered_seq`` exactly when records had to be discarded
        #: (deltas arriving before any base snapshot) — a replica in
        #: that state is silently missing mutations the primary
        #: considers shipped, and :func:`promote` refuses it.
        self.applied_seq = -1

    def receive(self, record: bytes, seq: int, kind: str) -> None:
        """Ingest one framed, sealed journal record."""
        if seq > self.offered_seq:
            self.offered_seq = seq
        if kind == "snapshot":
            self._base = record
            self._tail = []
        elif self._base is None:
            return  # deltas before any base are useless; wait for one
        else:
            self._tail.append(record)
        self.applied_seq = seq

    @property
    def records(self) -> int:
        return (1 if self._base is not None else 0) + len(self._tail)

    def replay(self) -> ReplayResult:
        """Open and replay the replica (needs the storage key).

        Raises :class:`~repro.exceptions.RecoveryError` when no base
        has been shipped yet."""
        data = b"".join(([self._base] if self._base else []) + self._tail)
        return replay_records(data, self._storage_key)

    def state(self) -> dict:
        """The replayed leader snapshot dict, ready to re-host."""
        return self.replay().state


class JournalShipper:
    """Streams a journal's records to its followers as they are cut.

    Subscribes to the journal's record hook, so shipping happens right
    after the write-ahead append — the follower can never be *ahead*
    of the primary's own log, only behind by the in-flight tail.
    """

    def __init__(
        self,
        journal: Journal,
        node: str | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        self.journal = journal
        self.node = node if node is not None else journal.node
        self._telemetry = telemetry
        self.followers: list[JournalFollower] = []
        self.shipped = 0
        journal.subscribe_records(self._on_record)

    def detach(self) -> None:
        """Stop shipping (simulates a partition from the standbys)."""
        self.journal.unsubscribe_records(self._on_record)

    def add_follower(self, follower: JournalFollower, leader=None) -> None:
        """Start shipping to ``follower``.

        Pass the live ``leader`` to prime a follower that joins
        mid-stream: it immediately receives a base snapshot at the
        journal's current seq (without disturbing the on-disk
        sequence), so it is warm from the first shipped delta.
        """
        self.followers.append(follower)
        if leader is not None:
            record = self.journal.make_snapshot_record(leader)
            follower.receive(record, self.journal.seq, "snapshot")
            self._note_shipped(follower, self.journal.seq)

    def _on_record(self, record: bytes, seq: int, kind: str) -> None:
        for follower in self.followers:
            follower.receive(record, seq, kind)
            self._note_shipped(follower, seq)

    def _note_shipped(self, follower: JournalFollower, seq: int) -> None:
        self.shipped += 1
        if self._telemetry:
            self._telemetry.emit(
                JournalShipped(self.node, follower.name, seq)
            )
            if follower.applied_seq < follower.offered_seq:
                # The replica just dropped (or is still missing) a
                # record: surface the lag promote() would refuse on.
                self._telemetry.emit(FollowerLagged(
                    self.node, follower.name,
                    follower.applied_seq, follower.offered_seq,
                ))


def promote(
    follower: JournalFollower,
    manager_set,
    *,
    rng: RandomSource | None = None,
    telemetry: EventBus | None = None,
):
    """Promote a follower: re-host the shipped state on the manager set.

    Replays the follower's replica and installs the reconstructed
    leader under the *dead primary's* identity via
    ``ManagerSet.rehost_primary`` — members keep talking to the same
    logical leader, through the same address, with the same sessions.
    Raises :class:`~repro.exceptions.RecoveryError` when the replica
    has no base (nothing was ever shipped): that standby can only do a
    cold takeover.  Also refuses — loudly, before touching the manager
    set — a follower whose *applied* head trails what the primary
    shipped: such a replica dropped records (deltas offered before any
    base reached it), so promoting it would silently roll live sessions
    back past mutations the primary had already exposed to members.  A
    follower that merely missed the un-shipped tail (e.g. after
    :meth:`JournalShipper.detach`) is still promotable: nothing past
    its applied head was ever offered to it.
    """
    if follower.applied_seq < follower.offered_seq:
        raise RecoveryError(
            f"refusing to promote {follower.name!r}: applied head "
            f"{follower.applied_seq} trails the shipped head "
            f"{follower.offered_seq} — the replica dropped records and "
            "a promotion would roll members back"
        )
    result = follower.replay()
    leader = manager_set.rehost_primary(result.state, rng=rng)
    if telemetry:
        telemetry.emit(StandbyPromoted(follower.name, result.last_seq))
    return leader


__all__ = ["JournalFollower", "JournalShipper", "promote"]
