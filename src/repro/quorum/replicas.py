"""The leader replica set: primary, witnesses, certification, view change.

Topology.  One :class:`QuorumGroupLeader` (the primary) drives the
§3.2 protocol exactly as a single leader would — same handshake, same
nonce-chained admin channel, same journal.  ``n - 1``
:class:`WitnessReplica` standbys follow its write-ahead journal through
the existing shipping stream (:mod:`repro.storage.shipping`), each
holding a sealed replica it can replay independently.  After every
mutation the primary asks the witnesses to *attest* the resulting
``(seq, epoch, member set, key)`` statement; with ``f + 1`` matching
attestations (its own included) it wraps the mutation's outgoing admin
payloads in :class:`~repro.enclaves.itgm.admin.CertifiedPayload`.

Why witnesses are more than signature oracles: a witness attests only
the state *its own replay* of the shipped journal produces.  It refuses
when the replica is damaged (truncated tail, failed replay — the
journal-corrupting-shipper fault), when records were dropped, and when
asked to re-sign a ``seq`` or bind an ``epoch`` it already signed
differently — the double-signing refusal that makes equivocation
attributable.

View change.  Verified :class:`~repro.quorum.attestation.\
EquivocationEvidence` (or an operator decision backed by audit
telemetry, e.g. key withholding) evicts the accused replica.  When the
accused is the primary, the healthiest witness — highest applied
journal seq — is promoted *warm* through the same replay machinery
cold standbys use, re-hosting the logical session identity so member
sessions continue; the group is then re-keyed at a strictly higher
epoch than anything either side of the fork ever certified, which
cryptographically retires both branches.
"""

from __future__ import annotations

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import RandomSource, SystemRandom
from repro.enclaves.common import Credentials, UserDirectory
from repro.enclaves.itgm.admin import (
    CertifiedPayload,
    MemberJoinedPayload,
    MemberLeftPayload,
    MembershipPayload,
    NewGroupKeyPayload,
)
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.persistence import restore_leader
from repro.exceptions import QuorumError, StateError
from repro.quorum.attestation import (
    Attestation,
    EquivocationEvidence,
    MutationStatement,
    QuorumCertificate,
    derive_attestation_key,
    member_set_digest,
)
from repro.quorum.member import QuorumMemberProtocol, QuorumVerifier
from repro.storage.journal import Journal
from repro.storage.shipping import JournalFollower, JournalShipper
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import (
    AttestationIssued,
    AttestationRefused,
    CertificateIssued,
    EventBus,
    ReplicaEvicted,
    ViewChangeCompleted,
    ViewChangeStarted,
    resolve_bus,
)
from repro.util.clock import Clock
from repro.wire.message import Envelope

#: Delta records between journal compactions on a quorum journal.  Far
#: more aggressive than the recovery-only default (64): witnesses replay
#: their replica on *every* certification, so certification cost is
#: O(records since the last base snapshot) per witness per mutation —
#: compaction cadence is the knob that bounds it.
QUORUM_COMPACT_THRESHOLD = 8

#: Admin payload types that mutate a member's group view — exactly the
#: ones a quorum member refuses without a certificate.
MUTATION_PAYLOADS = (
    NewGroupKeyPayload,
    MemberJoinedPayload,
    MemberLeftPayload,
    MembershipPayload,
)


class QuorumConfig:
    """Sizing: ``n = 3f + 1`` replicas, certificates need ``f + 1``.

    ``f + 1`` is the certificate threshold (not ``2f + 1``) because the
    layer certifies *state provenance*, not ordering consensus: one
    honest attestation inside every certificate is what makes
    fabrication impossible and forks attributable.  Ordering still
    comes from the journal seq; the formal model
    (:mod:`repro.formal.quorum_model`) checks the resulting safety
    properties exhaustively for small worlds.
    """

    def __init__(self, f: int = 1) -> None:
        if f < 1:
            raise ValueError("f must be >= 1")
        self.f = f

    @property
    def n(self) -> int:
        return 3 * self.f + 1

    @property
    def threshold(self) -> int:
        return self.f + 1


class QuorumGroupLeader(GroupLeader):
    """A :class:`GroupLeader` whose mutation payloads leave wrapped.

    ``bind_certifier`` installs a callback returning the encoded
    certificate for the *current* journal head (or ``None`` when no
    quorum could be assembled).  The pump checkpoints first — witnesses
    can only attest what the shipping stream has shown them — then
    wraps every still-bare mutation payload in the outboxes.  With no
    certifier bound the class degrades to a plain single leader, which
    is exactly the vulnerable baseline the soak compares against.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._certifier = None

    def bind_certifier(self, certifier) -> None:
        """Install ``certifier() -> bytes | None`` (pass None to unbind)."""
        self._certifier = certifier

    def _pending_bare_mutations(self) -> bool:
        return any(
            isinstance(payload, MUTATION_PAYLOADS)
            for outbox in self._outboxes.values()
            for payload in outbox
        )

    def _pump(self) -> list[Envelope]:
        if self._certifier is not None and self._pending_bare_mutations():
            # Ship the mutation before asking for attestations; the
            # journal diff is idempotent, so the enclosing entry
            # point's own checkpoint stays a no-op.
            self._checkpoint()
            certificate = self._certifier()
            if certificate is not None:
                for outbox in self._outboxes.values():
                    for i, payload in enumerate(outbox):
                        if isinstance(payload, MUTATION_PAYLOADS):
                            outbox[i] = CertifiedPayload(
                                inner=payload, certificate=certificate
                            )
        return super()._pump()


class WitnessReplica:
    """One standby: a sealed journal replica plus an attestation key.

    The replica *is* the witness's worldview — it attests nothing it
    cannot replay.  ``attest`` raises :class:`QuorumError` (never
    returns a bad attestation) when:

    * records were dropped (applied head trails the offered head),
    * the replica fails to replay cleanly to its applied head
      (corrupted or truncated shipping — the witness must not certify
      a prefix as if it were the whole stream),
    * it already signed a *different* statement for this ``seq``, or
      bound this ``epoch`` to a different key — the double-signing
      refusal honest replicas never violate.
    """

    def __init__(
        self,
        replica_id: str,
        storage_key: KeyMaterial,
        attestation_key: KeyMaterial,
        directory: UserDirectory,
        telemetry: EventBus | None = None,
    ) -> None:
        self.replica_id = replica_id
        self.follower = JournalFollower(replica_id, storage_key)
        self.key = attestation_key
        self.directory = directory
        self._telemetry = resolve_bus(telemetry)
        self._signed_by_seq: dict[int, MutationStatement] = {}
        self._fp_by_epoch: dict[int, str] = {}
        self.attested = 0
        self.refused = 0

    def current_statement(self, session_id: str) -> MutationStatement:
        """The statement this witness's replica supports right now."""
        follower = self.follower
        if follower.applied_seq < follower.offered_seq:
            raise QuorumError(
                f"replica dropped records (applied {follower.applied_seq} "
                f"trails offered {follower.offered_seq})"
            )
        try:
            result = follower.replay()
        except Exception as exc:  # noqa: BLE001 — any replay failure
            # (integrity, codec, recovery) means the replica cannot
            # vouch for the stream; refuse, never crash.
            raise QuorumError(
                f"journal replica failed to replay: {exc}"
            ) from exc
        if result.truncated or result.last_seq != follower.applied_seq:
            raise QuorumError(
                f"replica replay stops at seq {result.last_seq} "
                f"(applied head {follower.applied_seq}"
                f"{', ' + result.reason if result.reason else ''})"
            )
        leader = restore_leader(result.state, self.directory)
        return MutationStatement(
            session_id=session_id,
            seq=follower.applied_seq,
            epoch=leader.group_epoch,
            member_digest=member_set_digest(leader.members),
            key_fingerprint=leader.group_key_fingerprint or "",
        )

    def attest(self, session_id: str) -> Attestation:
        """Sign the current statement; :class:`QuorumError` on refusal."""
        try:
            statement = self.current_statement(session_id)
            prior = self._signed_by_seq.get(statement.seq)
            if prior is not None and prior != statement:
                raise QuorumError(
                    f"refusing to double-sign seq {statement.seq}"
                )
            prior_fp = self._fp_by_epoch.get(statement.epoch)
            if (
                prior_fp is not None
                and prior_fp != statement.key_fingerprint
            ):
                raise QuorumError(
                    f"refusing to bind epoch {statement.epoch} "
                    "to a second group key"
                )
        except QuorumError as exc:
            self.refused += 1
            if self._telemetry:
                self._telemetry.emit(AttestationRefused(
                    self.replica_id, session_id, str(exc)
                ))
            raise
        self._signed_by_seq[statement.seq] = statement
        self._fp_by_epoch[statement.epoch] = statement.key_fingerprint
        self.attested += 1
        if self._telemetry:
            self._telemetry.emit(AttestationIssued(
                self.replica_id, session_id,
                statement.seq, statement.epoch,
            ))
        return Attestation.sign(self.replica_id, statement, self.key)


class QuorumLeaderSet:
    """``n = 3f + 1`` co-hosted manager replicas behind one session id.

    Members talk to ``session_id`` exactly as they would to a single
    §3.2 leader; internally that identity is re-hostable state carried
    by whichever replica is primary.  The set owns the quorum root
    secret, derives per-replica attestation keys, wires the journal
    shipping stream to every witness, and certifies each mutation as
    it is pumped out.
    """

    def __init__(
        self,
        directory: UserDirectory,
        config: QuorumConfig | None = None,
        *,
        session_id: str = "quorum",
        rng: RandomSource | None = None,
        clock: Clock | None = None,
        telemetry: EventBus | None = None,
        disk: SimDisk | None = None,
        journal_path: str = "quorum/journal.log",
    ) -> None:
        self.config = config if config is not None else QuorumConfig()
        self.directory = directory
        self.session_id = session_id
        self._rng = rng if rng is not None else SystemRandom()
        self._raw_telemetry = telemetry
        self._telemetry = resolve_bus(telemetry)
        self._clock = clock

        self.replica_ids = [f"rep-{i}" for i in range(self.config.n)]
        self.root = KeyMaterial(self._rng.key_material(KEY_LEN))
        self.keys = {
            rid: derive_attestation_key(self.root, rid)
            for rid in self.replica_ids
        }
        self.storage_key = KeyMaterial(self._rng.key_material(KEY_LEN))
        self.primary_id = self.replica_ids[0]
        self.evicted: set[str] = set()
        self.view_changes = 0

        self.disk = disk if disk is not None else SimDisk()
        self.leader = QuorumGroupLeader(
            session_id, directory,
            rng=self._rng.fork("primary"), clock=clock,
            telemetry=telemetry,
        )
        self.journal = Journal(
            self.disk, journal_path, self.storage_key,
            compact_threshold=QUORUM_COMPACT_THRESHOLD,
            node=session_id, telemetry=telemetry,
        )
        self.witnesses: dict[str, WitnessReplica] = {
            rid: WitnessReplica(
                rid, self.storage_key, self.keys[rid], directory,
                telemetry=telemetry,
            )
            for rid in self.replica_ids[1:]
        }
        self.journal.attach(self.leader)
        self.shipper = JournalShipper(
            self.journal, node=session_id, telemetry=telemetry
        )
        for witness in self.witnesses.values():
            self.shipper.add_follower(witness.follower, leader=self.leader)
        self._cert_cache: tuple[int, bytes] | None = None
        self.leader.bind_certifier(self._certify)

    # -- member-side wiring -------------------------------------------------

    def verifier(self) -> QuorumVerifier:
        """A fresh verifier provisioned with the current key set."""
        verifier = QuorumVerifier(
            self.keys, self.config.threshold, self.primary_id
        )
        for rid in self.evicted:
            verifier.evict(rid)
        return verifier

    def member(
        self,
        credentials: Credentials,
        rng: RandomSource | None = None,
        telemetry: EventBus | None = None,
    ) -> QuorumMemberProtocol:
        """A certificate-verifying member bound to this replica set."""
        return QuorumMemberProtocol(
            credentials, self.session_id, self.verifier(),
            rng, telemetry=telemetry,
        )

    # -- certification ------------------------------------------------------

    def primary_statement(self) -> MutationStatement:
        """The statement the primary's *live* state supports."""
        return MutationStatement(
            session_id=self.session_id,
            seq=self.journal.seq,
            epoch=self.leader.group_epoch,
            member_digest=member_set_digest(self.leader.members),
            key_fingerprint=self.leader.group_key_fingerprint or "",
        )

    def _certify(self) -> bytes | None:
        seq = self.journal.seq
        if self._cert_cache is not None and self._cert_cache[0] == seq:
            return self._cert_cache[1]
        prof = self.leader._profiler
        tok = prof.begin("certify") if prof else None
        try:
            return self._assemble_certificate(seq)
        finally:
            if prof:
                prof.end(tok)

    def _assemble_certificate(self, seq: int) -> bytes | None:
        statement = self.primary_statement()
        attestations: list[Attestation] = []
        if self.primary_id not in self.evicted:
            attestations.append(Attestation.sign(
                self.primary_id, statement, self.keys[self.primary_id]
            ))
            if self._telemetry:
                self._telemetry.emit(AttestationIssued(
                    self.primary_id, self.session_id, seq, statement.epoch
                ))
        for rid, witness in self.witnesses.items():
            if rid in self.evicted:
                continue
            try:
                attestation = witness.attest(self.session_id)
            except QuorumError:
                continue  # the witness already emitted AttestationRefused
            if attestation.statement != statement:
                # The witness's replay disagrees with the live primary —
                # with an honest primary this cannot happen (shipping is
                # synchronous); its attestation would not certify our
                # statement anyway.
                if self._telemetry:
                    self._telemetry.emit(AttestationRefused(
                        rid, self.session_id,
                        "attestation diverges from primary statement",
                    ))
                continue
            attestations.append(attestation)
        if len({a.replica_id for a in attestations}) < self.config.threshold:
            return None
        certificate = QuorumCertificate(tuple(attestations))
        if self._telemetry:
            self._telemetry.emit(CertificateIssued(
                self.primary_id, self.session_id, seq,
                statement.epoch, len(certificate.signers),
                self.leader._cause,
            ))
        encoded = certificate.encode()
        self._cert_cache = (seq, encoded)
        return encoded

    # -- auditing -----------------------------------------------------------

    def audit(self, member_epochs: dict[str, int]) -> dict[str, int]:
        """Members whose installed epoch trails the certified epoch.

        The key-withholding symptom: a primary that certifies a rekey
        but never delivers it (or delivers it selectively) leaves the
        victims' acked epochs behind the journal's.  Feed this the
        epochs members report (``protocol.group_epoch``); a persistent
        non-empty result across retransmission rounds is grounds for a
        view change against the primary.
        """
        certified = self.leader.group_epoch
        return {
            uid: epoch
            for uid, epoch in member_epochs.items()
            if epoch < certified
        }

    # -- view change --------------------------------------------------------

    def view_change(
        self,
        accused: str,
        reason: str,
        evidence: EquivocationEvidence | None = None,
    ) -> list[Envelope]:
        """Evict ``accused``; promote and re-key when it was primary.

        With ``evidence`` given it is re-verified first — fabricated
        evidence must never trigger an eviction.  Returns the rekey
        envelopes to deliver to members (empty when the group is
        empty).  Verifiers held by members learn the eviction and the
        new primary out of band (:meth:`QuorumVerifier.evict` /
        :meth:`~QuorumVerifier.set_primary`) — in deployment terms,
        the evidence blob is broadcast and each member re-verifies it.
        """
        if accused not in self.replica_ids:
            raise StateError(f"unknown replica {accused!r}")
        if accused in self.evicted:
            raise StateError(f"replica {accused!r} already evicted")
        if evidence is not None:
            evidence.verify(
                self.keys, self.config.threshold, self.primary_id
            )
            if evidence.accused != accused:
                raise QuorumError(
                    f"evidence convicts {evidence.accused!r}, "
                    f"not {accused!r}"
                )
        if self._telemetry:
            self._telemetry.emit(ViewChangeStarted(
                self.session_id, accused, reason
            ))
        self.evicted.add(accused)
        self.view_changes += 1
        self._cert_cache = None
        if self._telemetry:
            self._telemetry.emit(ReplicaEvicted(self.session_id, accused))

        # Both sides of any fork must die: the new epoch is strictly
        # above everything either conflicting certificate ever named.
        floor_epoch = self.leader.group_epoch
        if evidence is not None:
            floor_epoch = max(
                floor_epoch,
                evidence.first.statement.epoch,
                evidence.second.statement.epoch,
            )

        if accused == self.primary_id:
            self._promote()
        else:
            witness = self.witnesses.pop(accused)
            if witness.follower in self.shipper.followers:
                self.shipper.followers.remove(witness.follower)

        out: list[Envelope] = []
        self.leader._group_epoch = max(
            self.leader._group_epoch, floor_epoch
        )
        if self.leader.members:
            out = self.leader.rekey_now()
        if self._telemetry:
            self._telemetry.emit(ViewChangeCompleted(
                self.session_id, self.primary_id, self.leader.group_epoch
            ))
        return out

    def _promote(self) -> None:
        """Warm-promote the healthiest promotable witness to primary.

        Candidates are tried from the highest applied journal seq down;
        a replica that cannot replay cleanly to its own head (a
        corrupting shipper got to it) is skipped — promoting it would
        silently roll members back to its valid prefix, exactly the
        single-leader failure mode the quorum exists to close.
        """
        candidates = sorted(
            (
                (witness.follower.applied_seq, rid)
                for rid, witness in self.witnesses.items()
                if rid not in self.evicted
            ),
            reverse=True,
        )
        chosen: tuple[str, dict] | None = None
        for _seq, rid in candidates:
            follower = self.witnesses[rid].follower
            try:
                result = follower.replay()
            except Exception:  # noqa: BLE001 — damaged replica, next
                continue
            if result.truncated or result.last_seq != follower.applied_seq:
                continue
            chosen = (rid, result.state)
            break
        if chosen is None:
            raise QuorumError(
                "no promotable witness (every surviving replica is "
                "damaged or empty)"
            )
        new_primary, state = chosen
        self.witnesses.pop(new_primary)
        # The subclass adds only the certifier hook, which
        # _rebuild_shipping re-binds below.
        promoted = restore_leader(
            state, self.directory,
            config=self.leader.config, rng=self.leader._rng,
            clock=self.leader._clock, telemetry=self._raw_telemetry,
            leader_cls=QuorumGroupLeader,
        )
        self.leader = promoted
        self.primary_id = new_primary
        # Rebuild shipping from scratch.  The Byzantine old primary may
        # have detached the stream, starved witnesses, or fed them
        # forked/corrupt records — so every surviving witness gets a
        # *fresh* replica, primed with a base snapshot of the promoted
        # state at the continuing seq.
        self._rebuild_shipping()

    def _rebuild_shipping(self, *, journal: Journal | None = None) -> None:
        """Re-derive the whole shipping fan-out from the current leader.

        Shared by promotion (same journal, new primary) and live
        migration (same primary identity, new journal on the target
        shard's disk).  The base snapshot is written at the *continuing*
        sequence number — captured before any journal swap — so replica
        replays and a future replay of the whole lifetime see one
        gap-free record stream.  Every surviving witness gets a fresh
        primed replica; its attestation key, double-signing memory, and
        counters are untouched.
        """
        start_seq = self.journal.seq
        self.shipper.detach()
        if journal is not None:
            self.journal = journal
        self.journal.attach(self.leader, start_seq=start_seq)
        self.shipper = JournalShipper(
            self.journal, node=self.session_id,
            telemetry=self._raw_telemetry,
        )
        for rid, witness in self.witnesses.items():
            if rid in self.evicted:
                continue
            witness.follower = JournalFollower(rid, self.storage_key)
            self.shipper.add_follower(witness.follower, leader=self.leader)
        self._cert_cache = None
        self.leader.bind_certifier(self._certify)


__all__ = [
    "MUTATION_PAYLOADS",
    "QUORUM_COMPACT_THRESHOLD",
    "QuorumConfig",
    "QuorumGroupLeader",
    "QuorumLeaderSet",
    "WitnessReplica",
]
