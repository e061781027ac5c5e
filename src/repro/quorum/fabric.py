"""Hosting quorum replica sets on the shard fabric.

Two integrations, both deliberately thin, and the scenario that
exercises them:

* **Hosting** — :func:`host_quorum_group` builds a
  :class:`~repro.quorum.replicas.QuorumLeaderSet` whose primary journals
  straight onto the shard's disk (at the shard's per-group journal
  path) and puts that primary behind the shard's ``GROUP_WRAP`` demux
  via :meth:`~repro.fabric.shard.ShardHost.host_prepared`.  Witness
  replicas are co-hosted state of the set, fed by the same shipping
  stream as ever; the shard only ever sees the primary.
  :func:`quorum_fabric_member` gives the member side: a
  :class:`~repro.fabric.member.FabricMember` whose inner protocol is
  the certificate-verifying
  :class:`~repro.quorum.member.QuorumMemberProtocol`.

* **Observed scenario** — :func:`obs_scenario` is one seeded
  quorum-on-fabric group driven through joins, an app message and a
  certified rekey: the workload of ``repro obs`` and of the
  observability benches.

* **Migration** — :func:`migrate_quorum_group` moves a hosted set
  between shards **warm**, unlike the cold single-leader move in
  :mod:`repro.fabric.migration`.  Cold migration scrubs the key and all
  sessions because a lone leader's state crossing hosts is exactly the
  §2.2 trust problem; a quorum set's sealed journal *already* crosses
  hosts continuously (that is what witness shipping is), so relocating
  the primary widens nothing.  The move ships the synced journal,
  refuses on any replay shortfall, re-hosts the replayed state with
  sessions intact, and continues the journal seq gap-free on the
  target's disk.

**Migration preserves certificates.**  The statement members verify —
``(session id, journal seq, epoch, member digest, key fingerprint)`` —
names no shard, and the replica attestation keys travel with the set,
so every certificate accepted before the move still verifies after it
and each member's equivocation memory (its
:class:`~repro.quorum.member.QuorumVerifier`) carries across without
reset.  A forked pre-move certificate therefore still convicts its
signer post-move.  The move ends with one *certified* rekey: the first
thing members see from the new shard is a mutation carrying a fresh
``f + 1`` certificate over the post-move journal head, retiring the
pre-move key without tearing down a single session.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rng import DeterministicRandom, RandomSource
from repro.enclaves.common import Credentials, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.persistence import restore_leader
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.migration import ship_and_flip
from repro.fabric.shard import ShardHost
from repro.overload.mailbox import BoundedMailbox
from repro.quorum.member import QuorumMemberProtocol
from repro.quorum.replicas import (
    QuorumConfig,
    QuorumGroupLeader,
    QuorumLeaderSet,
)
from repro.storage.journal import Journal
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus
from repro.util.clock import Clock
from repro.wire.message import Envelope


def host_quorum_group(
    shard: ShardHost,
    users: UserDirectory,
    group_id: str,
    *,
    config: QuorumConfig | None = None,
    rng: RandomSource | None = None,
    clock: Clock | None = None,
    telemetry: EventBus | None = None,
) -> QuorumLeaderSet:
    """Build a replica set for ``group_id`` and serve it from ``shard``.

    The set's session id *is* the group id — members route wrapped
    frames by it, the shard demuxes by it, and every attestation binds
    it.  The primary's journal lives on the shard's disk under the same
    per-group path a natively hosted group would use.
    """
    qs = QuorumLeaderSet(
        users,
        config,
        session_id=group_id,
        rng=rng,
        clock=clock,
        telemetry=telemetry,
        disk=shard.disk,
        journal_path=shard.journal_path(group_id),
    )
    shard.host_prepared(group_id, qs.leader, qs.journal)
    return qs


def quorum_fabric_member(
    credentials: Credentials,
    group_id: str,
    fabric: GroupDirectory,
    qs: QuorumLeaderSet,
    *,
    rng: RandomSource | None = None,
    rekey_grace: bool = True,
    telemetry: EventBus | None = None,
) -> FabricMember:
    """A directory-following member that demands quorum certificates.

    The fabric layer (routing, redirects, rejoin discipline) is the
    unchanged :class:`FabricMember`; only the inner protocol differs.
    Each protocol epoch gets a *fresh* verifier provisioned from the
    set's current key/eviction state — a rejoin after a view change
    therefore starts already distrusting the evicted replica.
    """

    def factory(creds, gid, fork_rng, grace, bus):
        return QuorumMemberProtocol(
            creds, gid, qs.verifier(), fork_rng,
            rekey_grace=grace, telemetry=bus,
        )

    return FabricMember(
        credentials, group_id, fabric,
        rng=rng, rekey_grace=rekey_grace, telemetry=telemetry,
        protocol_factory=factory,
    )


def obs_scenario(seed: int, bus, profiler=None):
    """One seeded quorum-on-fabric group: the obs commands' workload.

    A replica set hosted behind a shard demux, certificate-verifying
    members routed by the directory — so one join's causal chain spans
    every layer: member handshake → GROUP_WRAP demux → leader core →
    quorum certification → WAL → admin multicast.  Frames for the shard
    go through its bounded intake (``enqueue``, then ``pump`` once the
    members have spoken), the way production takes them.  Returns
    ``(net, shard, qs, members)`` after joins, one sealed app message,
    and one leader-initiated certified rekey.
    """
    group_id = "grp-obs"
    rng = DeterministicRandom(seed)
    users = UserDirectory()
    net = SyncNetwork(telemetry=bus)
    fabric = GroupDirectory(
        ["shard-a"], rng=rng.fork("directory"), telemetry=bus
    )
    shard = ShardHost(
        "shard-a", SimDisk(rng=rng.fork("disk")),
        rng=rng.fork("shard"), telemetry=bus,
        mailbox=BoundedMailbox("shard-a", telemetry=bus),
    )

    def intake(envelope):
        shard.enqueue(envelope)
        return [], []

    def settle():
        net.run()
        while len(shard.mailbox):
            net.post_all(shard.pump(64)[0])
            net.run()

    net.register("shard-a", intake)
    fabric.create_group(group_id)
    qs = host_quorum_group(
        shard, users, group_id, rng=rng.fork("quorum"), telemetry=bus
    )
    if profiler is not None:
        shard.bind_profiler(profiler)
        qs.leader.bind_profiler(profiler)
        qs.journal.bind_profiler(profiler)

    members = {}
    for name in ("alice", "bob", "carol"):
        creds = users.register_password(name, f"pw-{name}")
        fm = quorum_fabric_member(
            creds, group_id, fabric, qs, rng=rng.fork(name), telemetry=bus
        )
        members[name] = fm
        wire(net, name, fm)
        if profiler is not None:
            fm.protocol.bind_profiler(profiler)
        net.post_all(fm.start_join())
        settle()
    net.post(members["alice"].seal_app(b"hello observable group"))
    settle()
    net.post_all(qs.leader.rekey_now())
    settle()
    return net, shard, qs, members


def rebind_after_view_change(shard: ShardHost, qs: QuorumLeaderSet) -> None:
    """Point the shard's demux at the set's post-view-change core.

    :meth:`QuorumLeaderSet.view_change` may have promoted a witness —
    a new leader object behind the same session id.  The shard entry
    must follow (:meth:`~repro.fabric.shard.ShardHost.rebind_group`)
    or inbound frames would keep reaching the evicted primary.
    """
    shard.rebind_group(qs.session_id, qs.leader, qs.journal)


@dataclass(frozen=True)
class QuorumMigrationReport:
    """What one :func:`migrate_quorum_group` call did."""

    group_id: str
    source: str
    target: str
    #: Journal records shipped to the target (base snapshot included).
    shipped_records: int
    #: Journal head at the moment of the move; the target journal's
    #: base snapshot is written at this same seq, keeping the combined
    #: record stream gap-free.
    record_seq: int
    #: Group epoch before the move and after the closing certified
    #: rekey (``after > before`` whenever the group had members).
    epoch_before: int
    epoch_after: int
    #: Member sessions carried warm across the move (no re-auth).
    sessions_carried: int
    #: New directory version after the flip.
    directory_version: int


def migrate_quorum_group(
    fabric: GroupDirectory,
    source: ShardHost,
    target: ShardHost,
    group_id: str,
    qs: QuorumLeaderSet,
    *,
    telemetry: EventBus | None = None,
) -> tuple[QuorumMigrationReport, list[Envelope]]:
    """Move a hosted replica set from ``source`` to ``target``, warm.

    The transaction is :func:`repro.fabric.migration.ship_and_flip`,
    the one the cold move runs, around this function's re-host step
    (sessions intact, journal continuing on the target's disk); a
    certified rekey closes it.
    Returns the report plus the rekey envelopes to deliver to members.
    Deliver them after members refresh their route (the directory push
    that follows the version bump): the sessions are warm, so members
    that know the new route just keep talking.  A member that misses
    the push hits the source's ``GROUP_REDIRECT`` instead and falls
    back to the standard (cold, but loud and convergent) rejoin.
    Raises as ``ship_and_flip`` does; on any failure before the flip
    the source resumes serving and nothing has moved.
    """
    epoch_before = qs.leader.group_epoch

    def rehost(result) -> int:
        # Warm: the replayed state keeps sessions, outboxes, and the
        # (soon to be rotated) group key.
        qs.leader = restore_leader(
            result.state, qs.directory,
            config=qs.leader.config, rng=qs.leader._rng,
            clock=qs.leader._clock, telemetry=qs._raw_telemetry,
            leader_cls=QuorumGroupLeader,
        )
        # Continuing seq captured from the old journal; every witness
        # gets a fresh replica primed off the target-side stream.
        qs._rebuild_shipping(journal=Journal(
            target.disk,
            target.journal_path(group_id),
            qs.storage_key,
            node=f"{target.shard_id}/{group_id}",
            telemetry=qs._raw_telemetry,
        ))
        target.host_prepared(group_id, qs.leader, qs.journal)
        return len(qs.leader.members)

    sessions_carried, shipped_records, record_seq, version = ship_and_flip(
        fabric, source, target, group_id,
        leader=qs.leader, journal=qs.journal, storage_key=qs.storage_key,
        rehost=rehost, telemetry=telemetry,
    )

    # Key hygiene without session teardown: one *certified* rekey from
    # the new home retires the pre-move key.  Members verify the
    # certificate with the verifiers they already hold.
    out: list[Envelope] = []
    if qs.leader.members:
        out = qs.leader.rekey_now()

    report = QuorumMigrationReport(
        group_id=group_id,
        source=source.shard_id,
        target=target.shard_id,
        shipped_records=shipped_records,
        record_seq=record_seq,
        epoch_before=epoch_before,
        epoch_after=qs.leader.group_epoch,
        sessions_carried=sessions_carried,
        directory_version=version,
    )
    return report, out


__all__ = [
    "QuorumMigrationReport",
    "host_quorum_group",
    "migrate_quorum_group",
    "obs_scenario",
    "quorum_fabric_member",
    "rebind_after_view_change",
]
