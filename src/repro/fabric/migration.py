"""Live migration: moving one group between shard hosts.

The move is quiesce → checkpoint → ship → flip → rejoin:

1. **Quiesce** — the source shard stops serving the group's traffic;
   members that try get a ``GROUP_REDIRECT``, never silence.
2. **Checkpoint** — the group's write-ahead journal is synced, so the
   durable log *is* the checkpoint (no separate snapshot format).
3. **Ship** — the sealed records travel to the target via the existing
   :mod:`repro.storage.shipping` machinery; the target replays them to
   a valid prefix and refuses to proceed unless that prefix reaches the
   shipped head (a migration must never lose committed mutations).
4. **Flip** — the directory entry moves to the target (version bump),
   the source keeps a redirect breadcrumb.
5. **Rejoin** — members re-authenticate via the *unchanged* §3.2
   protocol.  This is the same argument as leader failover: a migrated
   group looks, to its members, exactly like a leader that lost their
   sessions, and the protocol already recovers from that loudly.

Key hygiene across the move is structural, not best-effort:
:func:`rehost_cold` strips the group key (and every session) from the
shipped state before the target re-hosts it, so the first rejoin forces
a *fresh* group key at a higher epoch — the pre-move key can never be
reused after the move, and :func:`migrate_group` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keys import KeyMaterial
from repro.enclaves.common import UserDirectory
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.exceptions import RecoveryError, StateError
from repro.fabric.directory import GroupDirectory
from repro.fabric.shard import ShardHost
from repro.storage.journal import Journal
from repro.storage.shipping import JournalFollower, JournalShipper
from repro.telemetry.events import (
    EventBus,
    GroupMigrated,
    MigrationAborted,
    MigrationStarted,
)


def rehost_cold(state: dict) -> dict:
    """A shipped leader snapshot, scrubbed for re-hosting elsewhere.

    Keeps the group's identity and **epoch counter** (so the epoch
    keeps increasing monotonically across the move) but drops:

    * the group key — the first member to rejoin triggers a rotation to
      a fresh key at ``epoch + 1``, so key material never crosses hosts;
    * all sessions and outboxes — per-member channel state (nonce
      chains, retransmission caches) is only meaningful to the exact
      process that held it; members re-authenticate instead.
    """
    cold = dict(state)
    cold["group_key"] = None
    cold["sessions"] = {}
    cold["outboxes"] = {}
    cold["last_rotation_was_eviction"] = False
    return cold


@dataclass(frozen=True)
class MigrationReport:
    """What one :func:`migrate_group` call did."""

    group_id: str
    source: str
    target: str
    #: Journal records shipped (base snapshot counts as one).
    shipped_records: int
    #: The journal seq at the moment of the move; the target's journal
    #: continues at ``record_seq + 1`` so the combined history is
    #: gap-free.
    record_seq: int
    #: Fingerprint of the group key *before* the move (None if the
    #: group never keyed).  Tests assert it never reappears after.
    old_fingerprint: str | None
    #: New directory version after the flip.
    directory_version: int


def ship_and_flip(
    fabric: GroupDirectory,
    source: ShardHost,
    target: ShardHost,
    group_id: str,
    *,
    leader: GroupLeader,
    journal: Journal,
    storage_key: KeyMaterial,
    rehost,
    telemetry: EventBus | None = None,
):
    """The transaction every migration is, around the caller's re-host.

    Quiesce → sync → ship → replay to the journal head or refuse →
    ``rehost(result)`` → flip the directory → evict the source copy.
    ``leader`` and ``journal`` are the core being moved and its
    write-ahead log (sealed under ``storage_key``); ``rehost`` gets the
    shipped replica's :class:`~repro.storage.recovery.ReplayResult` and
    makes ``target`` serve the group — cold (:func:`migrate_group`) or
    warm (:func:`repro.quorum.fabric.migrate_quorum_group`) is the
    callers' only difference.  It runs before the flip: a failure in
    it, like a lossy replica, resumes the source, emits
    ``MigrationAborted`` and re-raises with nothing moved.

    Raises :class:`StateError` on bad topology and
    :class:`RecoveryError` if the shipped replica does not replay,
    untruncated, to the journal head.  Returns ``(rehost's value,
    records shipped, journal seq at the move, new directory version)``.
    """
    if not source.hosts(group_id):
        raise StateError(
            f"group {group_id!r} is not hosted on {source.shard_id!r}"
        )
    if target.hosts(group_id):
        raise StateError(
            f"group {group_id!r} is already hosted on {target.shard_id!r}"
        )
    placed = fabric.record(group_id).shard_id
    if placed != source.shard_id:
        raise StateError(
            f"directory places {group_id!r} on {placed!r}, "
            f"not {source.shard_id!r}"
        )
    if leader.leader_id != group_id:
        raise StateError(
            f"leader serves {leader.leader_id!r}, not {group_id!r}"
        )

    # 1. Quiesce: members get redirects, the state stops mutating.
    source.quiesce(group_id)
    if telemetry:
        telemetry.emit(MigrationStarted(
            group_id, source.shard_id, target.shard_id
        ))
    try:
        # 2. Checkpoint: the synced journal is the authoritative state.
        journal.sync()

        # 3. Ship: prime a follower with a base snapshot at the current
        #    head (plus nothing else — the group is quiesced, so the
        #    stream is exactly one record).
        shipper = JournalShipper(journal, telemetry=telemetry)
        follower = JournalFollower(target.shard_id, storage_key)
        try:
            shipper.add_follower(follower, leader=leader)
        finally:
            shipper.detach()

        result = follower.replay()
        if result.truncated or result.last_seq != journal.seq:
            raise RecoveryError(
                f"shipped replica for {group_id!r} replays to seq "
                f"{result.last_seq}, journal head is {journal.seq}; "
                "refusing to migrate on a lossy checkpoint"
            )

        # 4. Re-host on the target: the shipped bytes are what it serves.
        rehosted = rehost(result)
    except BaseException as exc:
        source.resume(group_id)
        if telemetry:
            telemetry.emit(MigrationAborted(
                group_id, source.shard_id, str(exc)
            ))
        raise

    # 5. Flip the directory, then retire the source's copy.
    flipped = fabric.move(group_id, target.shard_id)
    source.evict_group(group_id, target.shard_id)
    if telemetry:
        telemetry.emit(GroupMigrated(
            group_id, source.shard_id, target.shard_id, result.last_seq
        ))
    return rehosted, follower.records, result.last_seq, flipped.version


def migrate_group(
    fabric: GroupDirectory,
    source: ShardHost,
    target: ShardHost,
    group_id: str,
    users: UserDirectory,
    *,
    config: LeaderConfig | None = None,
    rng=None,
    telemetry: EventBus | None = None,
) -> tuple[GroupLeader, MigrationReport]:
    """Move ``group_id`` from ``source`` to ``target``, cold.

    Returns the re-hosted leader and a :class:`MigrationReport`.
    Raises as :func:`ship_and_flip` does — in which case nothing has
    been flipped and the source serves the group again.
    """
    old_leader = source.leader(group_id)
    old_fingerprint = old_leader.group_key_fingerprint
    storage_key = fabric.record(group_id).storage_key

    def rehost(result) -> GroupLeader:
        # Continuing the journal seq keeps the combined history gap-free.
        return target.host_group(
            group_id,
            users,
            storage_key=storage_key,
            config=config if config is not None else old_leader.config,
            state=rehost_cold(result.state),
            start_seq=result.last_seq + 1,
            rng=rng,
        )

    leader, shipped_records, record_seq, version = ship_and_flip(
        fabric, source, target, group_id,
        leader=old_leader, journal=source.journal(group_id),
        storage_key=storage_key, rehost=rehost, telemetry=telemetry,
    )
    # The structural no-reuse guarantee, asserted: the re-hosted group
    # has no key at all until a member rejoins and forces a rotation.
    assert leader.group_key_fingerprint is None
    assert not leader.members

    return leader, MigrationReport(
        group_id=group_id,
        source=source.shard_id,
        target=target.shard_id,
        shipped_records=shipped_records,
        record_seq=record_seq,
        old_fingerprint=old_fingerprint,
        directory_version=version,
    )


# -- the scripted demo --------------------------------------------------------


@dataclass
class MigrationDemo:
    """What the scripted :func:`run_migration_demo` observed."""

    group_id: str
    source: str
    target: str
    members: list[str]
    report: MigrationReport
    epoch_before: int
    epoch_after: int
    fingerprint_before: str
    fingerprint_after: str
    redirects: int
    rejoins: int
    app_delivered_before: int
    app_delivered_after: int
    target_journal_seq: int
    frames_total: int
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.fingerprint_after != self.fingerprint_before
            and self.epoch_after > self.epoch_before
            and self.app_delivered_after > 0
            and self.target_journal_seq > self.report.record_seq
        )

    def format_report(self) -> str:
        out = [
            f"live migration demo — {self.group_id}: "
            f"{self.source} -> {self.target}",
        ]
        out += [f"  {line}" for line in self.lines]
        out.append(
            "  verdict            : "
            + ("OK — fresh key, higher epoch, traffic resumed"
               if self.ok else "FAILED")
        )
        return "\n".join(out)


def run_migration_demo(seed: int = 0) -> MigrationDemo:
    """Drive one complete migration over the deterministic sync pump.

    Two shards, one group, three members: join, chat, migrate, then let
    every member discover the move through a ``GROUP_REDIRECT`` (never
    silence), rejoin via the unchanged §3.2 handshake, and chat again
    under a *fresh* group key at a higher epoch.
    """
    from repro.crypto.rng import DeterministicRandom
    from repro.enclaves.common import AppMessage
    from repro.enclaves.harness import SyncNetwork, wire
    from repro.fabric.member import FabricMember
    from repro.storage.simdisk import SimDisk

    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    users = UserDirectory()
    fabric = GroupDirectory(["shard-a", "shard-b"], rng=rng.fork("directory"))
    shards = {
        shard_id: ShardHost(
            shard_id, SimDisk(rng=rng.fork(f"disk-{shard_id}")),
            rng=rng.fork(shard_id),
        )
        for shard_id in ("shard-a", "shard-b")
    }
    for shard_id, host in shards.items():
        wire(net, shard_id, host)

    group_id = "grp-demo"
    record = fabric.create_group(group_id)
    source = shards[record.shard_id]
    target = shards[
        "shard-b" if record.shard_id == "shard-a" else "shard-a"
    ]
    source.host_group(group_id, users, storage_key=record.storage_key)

    member_ids = ["alice", "bob", "carol"]
    members: dict[str, FabricMember] = {}
    for uid in member_ids:
        creds = users.register_password(uid, f"{uid}-pw")
        fm = FabricMember(creds, group_id, fabric, rng=rng.fork(uid))
        members[uid] = fm
        wire(net, uid, fm)
        net.post_all(fm.start_join())
        net.run()

    def app_count(uid: str) -> int:
        return len(net.events_of(uid, AppMessage))

    net.post(members["alice"].seal_app(b"hello from " + record.shard_id.encode()))
    net.run()
    app_before = sum(app_count(uid) for uid in member_ids)

    leader_before = source.leader(group_id)
    epoch_before = leader_before.group_epoch
    fingerprint_before = leader_before.group_key_fingerprint
    assert fingerprint_before is not None

    lines = [
        f"joined             : {leader_before.members} "
        f"on {source.shard_id}",
        f"group key          : {fingerprint_before} "
        f"(epoch {epoch_before})",
        f"app chat           : {app_before} deliveries before the move",
    ]

    leader, report = migrate_group(
        fabric, source, target, group_id, users, rng=rng.fork("rehost"),
    )
    lines.append(
        f"journal shipped    : {report.shipped_records} record(s) "
        f"to seq {report.record_seq}; directory v{report.directory_version}"
    )
    lines.append(
        "re-hosted cold     : no key, no sessions "
        "(old key can never be reused)"
    )

    # Every member still routes at the source; the next frame each sends
    # is answered with a redirect, which triggers rejoin at the target.
    for uid in member_ids:
        try:
            net.post(members[uid].seal_app(f"poke from {uid}".encode()))
        except StateError:  # already learned and mid-rejoin
            pass
        net.run()

    epoch_after = leader.group_epoch
    fingerprint_after = leader.group_key_fingerprint
    assert fingerprint_after is not None
    redirects = sum(m.redirects for m in members.values())
    rejoins = sum(m.rejoins for m in members.values())
    lines.append(
        f"redirected + rejoin: {redirects} redirect(s), "
        f"{rejoins} rejoin(s) via unchanged §3.2 handshakes"
    )
    lines.append(
        f"fresh group key    : {fingerprint_after} (epoch {epoch_after}) "
        f"on {target.shard_id}"
    )

    net.post(members["alice"].seal_app(b"hello from " + target.shard_id.encode()))
    net.run()
    app_after = sum(app_count(uid) for uid in member_ids) - app_before
    lines.append(
        f"app chat           : {app_after} deliveries after the move"
    )
    lines.append(
        f"target journal     : continued at seq "
        f"{target.journal(group_id).seq} (> shipped head "
        f"{report.record_seq}, gap-free)"
    )

    return MigrationDemo(
        group_id=group_id,
        source=report.source,
        target=report.target,
        members=sorted(members),
        report=report,
        epoch_before=epoch_before,
        epoch_after=epoch_after,
        fingerprint_before=fingerprint_before,
        fingerprint_after=fingerprint_after,
        redirects=redirects,
        rejoins=rejoins,
        app_delivered_before=app_before,
        app_delivered_after=app_after,
        target_journal_seq=target.journal(group_id).seq,
        frames_total=len(net.wire_log),
        lines=lines,
    )
