"""Seeded Byzantine fault family: what a compromised leader can do.

Each fault class models one concrete misbehaviour of a *compromised
group manager* (the party the paper must trust — §6) and strikes two
stacks with it:

* the **quorum stack** (:class:`~repro.quorum.replicas.QuorumLeaderSet`
  with certificate-verifying members), where every fault is meant to be
  detected, attributed, and survived, and
* the **single-leader stack** (a plain :class:`GroupLeader` with the
  PR-3 journal/shipping machinery and trusting members), the paper's
  own architecture, where each fault demonstrably violates a §5.4-style
  guarantee.

The four faults, and the lever each one pulls:

===================  ====================================================
``equivocation``     The primary owns the storage key, so it *forges*
                     sealed snapshot records and ships a different fork
                     to different witnesses, harvesting attestations for
                     two conflicting statements; members are then shown
                     two different "certified" group keys for one epoch.
``silence``          The primary stays perfectly responsive to most of
                     the group while dropping every frame to chosen
                     victims (selective silence — indistinguishable
                     from loss to the victim, invisible to everyone
                     else).
``withholding``      The primary rotates the group key and journals the
                     rotation — witnesses attest it — but never sends
                     the key to anyone: the group is cryptographically
                     moved forward while every member is left behind.
``corruption``       The shipping stream to a standby is bit-flipped in
                     flight.  The single-leader stack's ``promote``
                     silently replays the valid prefix (rolling members
                     back); a quorum witness refuses to attest a replica
                     it cannot replay, and promotion skips it.
===================  ====================================================

Everything is deterministic given a seed: scenario builders fork one
:class:`~repro.crypto.rng.DeterministicRandom` per party, and the fault
classes draw forged keys from their own seeded source.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KEY_LEN, GroupKey, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.admin import CertifiedPayload, NewGroupKeyPayload
from repro.enclaves.itgm.failover import ManagerSet
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.member import MemberProtocol
from repro.enclaves.itgm.persistence import snapshot_leader
from repro.quorum.attestation import Attestation, QuorumCertificate
from repro.quorum.member import QuorumMemberProtocol
from repro.quorum.replicas import QuorumGroupLeader, QuorumLeaderSet
from repro.storage.journal import Journal, seal_record
from repro.storage.shipping import JournalFollower, JournalShipper, promote
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus

#: The fault modes, in the order the soak matrix runs them.
FAULT_NAMES = ("equivocation", "silence", "withholding", "corruption")


# ---------------------------------------------------------------------------
# Scenario containers
# ---------------------------------------------------------------------------

@dataclass
class QuorumScenario:
    """A wired quorum stack: replica set + certificate-verifying members."""

    net: SyncNetwork
    qs: QuorumLeaderSet
    members: dict[str, QuorumMemberProtocol]

    @property
    def leader_addr(self) -> str:
        return self.qs.session_id

    @property
    def leader(self) -> QuorumGroupLeader:
        """The set's *current* primary (re-resolved after view changes)."""
        return self.qs.leader


@dataclass
class SingleScenario:
    """The vulnerable baseline: one trusted leader, trusting members.

    The leader journals and ships to one warm standby ``follower``, so
    the corruption fault can demonstrate the silent-rollback promotion
    the quorum layer closes.
    """

    net: SyncNetwork
    managers: ManagerSet
    follower: JournalFollower
    members: dict[str, MemberProtocol]
    leader_addr: str

    @property
    def leader(self) -> GroupLeader:
        return self.managers.primary


def build_quorum_scenario(
    member_ids: tuple[str, ...] | list[str],
    seed: int,
    telemetry: EventBus | None = None,
) -> QuorumScenario:
    """n = 4 / f = 1 replica set with every member joined and keyed."""
    rng = DeterministicRandom(seed)
    net = SyncNetwork(telemetry=telemetry)
    directory = UserDirectory()
    creds = {
        uid: directory.register_password(uid, f"pw-{uid}")
        for uid in member_ids
    }
    qs = QuorumLeaderSet(
        directory, rng=rng.fork("quorum"), telemetry=telemetry
    )
    wire(net, qs.session_id, qs.leader)
    members = {
        uid: qs.member(creds[uid], rng=rng.fork(uid), telemetry=telemetry)
        for uid in member_ids
    }
    for uid, member in members.items():
        wire(net, uid, member)
        net.post(member.start_join())
        net.run()
    return QuorumScenario(net, qs, members)


def build_single_scenario(
    member_ids: tuple[str, ...] | list[str],
    seed: int,
    telemetry: EventBus | None = None,
) -> SingleScenario:
    """Single leader + journal + one shipping follower, members joined."""
    rng = DeterministicRandom(seed)
    net = SyncNetwork(telemetry=telemetry)
    directory = UserDirectory()
    creds = {
        uid: directory.register_password(uid, f"pw-{uid}")
        for uid in member_ids
    }
    managers = ManagerSet.create(
        2, directory, config=LeaderConfig(), rng=rng.fork("mgrs")
    )
    leader = managers.primary
    for manager_id, manager in managers.managers.items():
        wire(net, manager_id, manager)
    disk = SimDisk()
    storage_key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
    journal = Journal(
        disk, "single/journal.log", storage_key,
        node=managers.primary_id, telemetry=telemetry,
    )
    journal.attach(leader)
    shipper = JournalShipper(journal, telemetry=telemetry)
    follower = JournalFollower("standby", storage_key)
    shipper.add_follower(follower, leader=leader)
    members = {
        uid: MemberProtocol(
            creds[uid], managers.primary_id, rng.fork(uid),
            telemetry=telemetry,
        )
        for uid in member_ids
    }
    for uid, member in members.items():
        wire(net, uid, member)
        net.post(member.start_join())
        net.run()
    return SingleScenario(
        net, managers, follower, members, managers.primary_id
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _forged_key_record(
    journal: Journal, leader: GroupLeader, key: GroupKey,
    epoch: int, seq: int,
) -> bytes:
    """A sealed snapshot record claiming ``leader`` holds ``key``.

    This is the compromised primary's core power: it legitimately holds
    the storage key, so it can seal *any* state it likes as a perfectly
    authentic journal record.  The forgery starts from the real state
    (sessions, outboxes — everything members could cross-check) and
    swaps only the group key and epoch; ``seal_record`` packs it in the
    journal's own layout, so the attack is on the records that ship.
    """
    snapshot = snapshot_leader(leader)
    snapshot["group_key"] = key.material.hex()
    snapshot["group_epoch"] = epoch
    return seal_record(journal._cipher, seq, "snapshot", snapshot)


def _silence_interceptor(origin: str, victims: set[str]):
    """A :class:`SyncNetwork` interceptor dropping origin -> victim."""
    def interceptor(envelope):
        if envelope.sender == origin and envelope.recipient in victims:
            return []
        return None
    return interceptor


def _corrupting_receive(follower: JournalFollower) -> dict:
    """Wrap ``follower.receive`` so every shipped record is bit-flipped.

    The flip lands mid-record — inside the sealed body — so the CRC
    check fails at replay and truncates the stream there, which is the
    realistic torn/rotted-shipping shape (framing survives, content
    does not).  Returns a counter dict (``{"corrupted": n}``).
    """
    original = follower.receive
    counter = {"corrupted": 0}

    def receive(record: bytes, seq: int, kind: str) -> None:
        damaged = bytearray(record)
        damaged[len(damaged) // 2] ^= 0x40
        counter["corrupted"] += 1
        original(bytes(damaged), seq, kind)

    follower.receive = receive  # type: ignore[method-assign]
    return counter


# ---------------------------------------------------------------------------
# The faults
# ---------------------------------------------------------------------------

class ByzantineFault:
    """Base: one seeded misbehaviour, strikeable against either stack."""

    name = "byzantine"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = DeterministicRandom(seed)

    def strike_quorum(self, scenario: QuorumScenario) -> dict:
        raise NotImplementedError

    def strike_single(self, scenario: SingleScenario) -> dict:
        raise NotImplementedError


class EquivocatingPrimary(ByzantineFault):
    """Show half the group one new key, the other half another.

    Quorum stack: the primary forges two sealed snapshot records for
    one (invented, far-future) journal seq — fork A carries key ``K_a``,
    fork B key ``K_b``, both at epoch ``e + 1`` — ships fork A into one
    witness's follower and fork B into another's, harvests their
    attestations, adds its own double-signature, and delivers the two
    resulting "certificates" to disjoint member subsets over the real
    session channels.  Both certificates *verify* (each has f + 1 = 2
    distinct signers); the crime is only visible to an observer that
    sees both — which is exactly what certificate gossip provides.

    Single stack: the same split needs no forgery at all — the leader
    just sends different bare ``NewGroupKeyPayload``s to each subset,
    and trusting members apply them.
    """

    name = "equivocation"

    def strike_quorum(self, scenario: QuorumScenario) -> dict:
        qs = scenario.qs
        epoch = qs.leader.group_epoch + 1
        key_a = GroupKey(self.rng.fork("fork-a").key_material(KEY_LEN))
        key_b = GroupKey(self.rng.fork("fork-b").key_material(KEY_LEN))
        # An invented far-future seq: the primary controls its own
        # stream, so it can claim any position it likes.  Honest deltas
        # arriving afterwards then trail the forged offered head, which
        # is what later marks these witnesses' replicas as damaged.
        fork_seq = qs.journal.seq + 64
        record_a = _forged_key_record(
            qs.journal, qs.leader, key_a, epoch, fork_seq
        )
        record_b = _forged_key_record(
            qs.journal, qs.leader, key_b, epoch, fork_seq
        )
        witness_ids = sorted(qs.witnesses)
        dupe_a, dupe_b = witness_ids[0], witness_ids[1]
        qs.witnesses[dupe_a].follower.receive(record_a, fork_seq, "snapshot")
        qs.witnesses[dupe_b].follower.receive(record_b, fork_seq, "snapshot")
        att_a = qs.witnesses[dupe_a].attest(qs.session_id)
        att_b = qs.witnesses[dupe_b].attest(qs.session_id)
        primary_key = qs.keys[qs.primary_id]
        cert_a = QuorumCertificate((
            Attestation.sign(qs.primary_id, att_a.statement, primary_key),
            att_a,
        ))
        cert_b = QuorumCertificate((
            Attestation.sign(qs.primary_id, att_b.statement, primary_key),
            att_b,
        ))
        subset_a, subset_b = self._split(scenario.members)
        payload_a = CertifiedPayload(
            inner=NewGroupKeyPayload(key=key_a, epoch=epoch),
            certificate=cert_a.encode(),
        )
        payload_b = CertifiedPayload(
            inner=NewGroupKeyPayload(key=key_b, epoch=epoch),
            certificate=cert_b.encode(),
        )
        for uid in subset_a:
            scenario.net.post_all(qs.leader.send_admin_to(uid, payload_a))
        for uid in subset_b:
            scenario.net.post_all(qs.leader.send_admin_to(uid, payload_b))
        scenario.net.run()
        return {
            "epoch": epoch,
            "subset_a": subset_a, "fp_a": key_a.fingerprint(),
            "subset_b": subset_b, "fp_b": key_b.fingerprint(),
            "duped_witnesses": [dupe_a, dupe_b],
        }

    def strike_single(self, scenario: SingleScenario) -> dict:
        leader = scenario.leader
        epoch = leader.group_epoch + 1
        key_a = GroupKey(self.rng.fork("fork-a").key_material(KEY_LEN))
        key_b = GroupKey(self.rng.fork("fork-b").key_material(KEY_LEN))
        subset_a, subset_b = self._split(scenario.members)
        for uid in subset_a:
            scenario.net.post_all(leader.send_admin_to(
                uid, NewGroupKeyPayload(key=key_a, epoch=epoch)
            ))
        for uid in subset_b:
            scenario.net.post_all(leader.send_admin_to(
                uid, NewGroupKeyPayload(key=key_b, epoch=epoch)
            ))
        scenario.net.run()
        return {
            "epoch": epoch,
            "subset_a": subset_a, "fp_a": key_a.fingerprint(),
            "subset_b": subset_b, "fp_b": key_b.fingerprint(),
        }

    @staticmethod
    def _split(members: dict) -> tuple[list[str], list[str]]:
        uids = sorted(members)
        half = max(1, len(uids) // 2)
        return uids[:half], uids[half:]


class SelectiveSilencePrimary(ByzantineFault):
    """Starve one member of a rekey while serving everyone else.

    The leader's own machinery runs honestly — the fault is at the
    wire: every frame from the leader to the victim is dropped.  On the
    quorum stack the rekey is certified and journaled, so the victim's
    lagging acked epoch shows up in :meth:`QuorumLeaderSet.audit`; on
    the single stack nothing watches, and the victim is simply left on
    the old key forever.  The interceptor stays installed after the
    strike — silence is a standing property of the compromised party,
    not a one-shot event — so healing requires actually replacing the
    primary, not just retransmitting.
    """

    name = "silence"

    def strike_quorum(self, scenario: QuorumScenario) -> dict:
        return self._strike(
            scenario.net, scenario.qs.leader,
            scenario.leader_addr, scenario.members,
        )

    def strike_single(self, scenario: SingleScenario) -> dict:
        return self._strike(
            scenario.net, scenario.leader,
            scenario.leader_addr, scenario.members,
        )

    def _strike(self, net, leader, leader_addr, members) -> dict:
        victim = sorted(members)[-1]
        net.set_interceptor(_silence_interceptor(leader_addr, {victim}))
        before = net.dropped
        net.post_all(leader.rekey_now())
        net.run()
        return {
            "victim": victim,
            "epoch": leader.group_epoch,
            "dropped": net.dropped - before,
        }


class KeyWithholdingPrimary(ByzantineFault):
    """Rotate the group key and tell no one.

    The primary calls its own rotation and checkpoint paths directly —
    the journal records the new key (and on the quorum stack the
    shipping stream carries it to every witness, whose attestations
    would certify it) — but no distribution payload is ever queued.
    Every member's installed epoch now trails the journal's certified
    epoch, which is precisely the symptom the audit watches for.  A
    single-leader deployment has no such cross-check: the members just
    wait for a key that never comes.
    """

    name = "withholding"

    def strike_quorum(self, scenario: QuorumScenario) -> dict:
        return self._strike(scenario.qs.leader)

    def strike_single(self, scenario: SingleScenario) -> dict:
        return self._strike(scenario.leader)

    @staticmethod
    def _strike(leader: GroupLeader) -> dict:
        leader._rotate_group_key()
        leader._checkpoint()
        return {
            "withheld_epoch": leader.group_epoch,
            "withheld_fp": leader.group_key_fingerprint,
        }


class CorruptingShipper(ByzantineFault):
    """Bit-flip the journal stream on its way to a standby.

    Strikes the *replication* path rather than the member protocol.
    Two rekeys ride the corrupted stream, then each stack faces a
    primary loss:

    * Single stack: ``promote`` accepts the damaged follower (its
      applied head matches what was shipped — nothing was *dropped*),
      replays the valid prefix, and silently re-hosts a leader from
      *before* the corrupted records: members are now ahead of their
      own group manager, the §5.4 agreement the journal was supposed
      to preserve.
    * Quorum stack: the damaged witness refuses to attest (its replay
      truncates), certification proceeds over the healthy witnesses,
      and the view change's promotion pass skips the damaged replica.
    """

    name = "corruption"

    def strike_quorum(self, scenario: QuorumScenario) -> dict:
        qs = scenario.qs
        # Damage the witness that promotion would otherwise try first
        # (candidates tie on applied seq and are taken in reverse-id
        # order), so the skip logic is actually exercised.
        target = sorted(qs.witnesses)[-1]
        counter = _corrupting_receive(qs.witnesses[target].follower)
        for _ in range(2):
            scenario.net.post_all(qs.leader.rekey_now())
            scenario.net.run()
        return {
            "target": target,
            "corrupted": counter["corrupted"],
            "refusals": qs.witnesses[target].refused,
        }

    def strike_single(self, scenario: SingleScenario) -> dict:
        counter = _corrupting_receive(scenario.follower)
        leader = scenario.leader
        for _ in range(2):
            scenario.net.post_all(leader.rekey_now())
            scenario.net.run()
        epoch_before = leader.group_epoch
        # The primary dies; the standby promotes from its (corrupted)
        # replica.  promote() only refuses *dropped* records, so the
        # truncated replay sails through and rolls the group back.
        scenario.managers.fail_primary()
        promoted = promote(scenario.follower, scenario.managers)
        wire(scenario.net, scenario.leader_addr, promoted)
        return {
            "target": scenario.follower.name,
            "corrupted": counter["corrupted"],
            "epoch_before_crash": epoch_before,
            "epoch_after_promotion": promoted.group_epoch,
        }


#: Fault name -> class, in matrix order.
FAULTS: dict[str, type[ByzantineFault]] = {
    cls.name: cls
    for cls in (
        EquivocatingPrimary,
        SelectiveSilencePrimary,
        KeyWithholdingPrimary,
        CorruptingShipper,
    )
}

__all__ = [
    "FAULTS",
    "FAULT_NAMES",
    "ByzantineFault",
    "CorruptingShipper",
    "EquivocatingPrimary",
    "KeyWithholdingPrimary",
    "QuorumScenario",
    "SelectiveSilencePrimary",
    "SingleScenario",
    "build_quorum_scenario",
    "build_single_scenario",
]
