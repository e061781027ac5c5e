"""Attestations, quorum certificates, and equivocation evidence.

The unit of trust is a :class:`MutationStatement`: one replica's claim
that, at journal sequence ``seq``, the group identified by
``session_id`` had epoch ``epoch``, member set ``member_digest`` and
group key ``key_fingerprint``.  A replica *attests* a statement by
MACing its canonical encoding under a per-replica attestation key; a
:class:`QuorumCertificate` is ``f + 1`` (or more) attestations from
distinct replicas over one identical statement.

Keys. The repository's crypto substrate is deliberately symmetric-only
(the paper's protocol is), so attestations are HMACs under per-replica
keys derived from a quorum root secret.  This is a documented stand-in
for digital signatures: verification requires the signing key, so a
certificate convinces exactly the parties provisioned with the replica
key set (the group's members), not third parties.  Every structural
property the quorum layer relies on — unforgeability by *other*
replicas, attributable double-signing — holds identically; only
public verifiability is lost, which nothing here needs.

Conflict semantics.  Two *valid* attestations conflict when they bind
the same ``(session_id, seq)`` to different statements (a forked
journal stream) or the same ``(session_id, epoch)`` to different key
fingerprints (key equivocation).  :class:`EquivocationEvidence` packages
two conflicting certificates plus the accused replica; it is
self-verifying given the key set, so a single honest observer can
convict.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.crypto.keys import KeyMaterial
from repro.crypto.mac import hmac_sha256, verify_hmac_sha256
from repro.exceptions import CodecError, QuorumError
from repro.wire.codec import (
    decode_fields,
    decode_str,
    encode_fields,
    encode_str,
)

#: Domain-separation label for attestation MACs: an attestation can
#: never be confused with any other HMAC in the system.
ATTESTATION_AD = b"repro-quorum-attestation-v1"

#: Domain-separation label for per-replica key derivation.
_KEY_DERIVE_AD = b"repro-quorum-replica-key-v1"


def member_set_digest(members: Iterable[str]) -> str:
    """Canonical digest of a member set (order-independent).

    16 hex digits of SHA-256 over the injectively encoded *sorted*
    member list — short enough to read in logs, long enough that a
    collision needs ~2^32 sets.
    """
    encoded = encode_fields(
        [encode_str(member) for member in sorted(members)]
    )
    return hashlib.sha256(encoded).hexdigest()[:16]


def derive_attestation_key(root: KeyMaterial, replica_id: str) -> KeyMaterial:
    """Derive one replica's attestation key from the quorum root secret."""
    return KeyMaterial(
        hmac_sha256(
            root.material, _KEY_DERIVE_AD + encode_str(replica_id)
        )
    )


@dataclass(frozen=True, slots=True)
class MutationStatement:
    """What one replica claims the group state was at one journal seq."""

    session_id: str
    seq: int
    epoch: int
    member_digest: str
    key_fingerprint: str  # "" before the first group key

    def encode(self) -> bytes:
        return encode_fields([
            encode_str(self.session_id),
            self.seq.to_bytes(8, "big", signed=True),
            self.epoch.to_bytes(8, "big", signed=True),
            encode_str(self.member_digest),
            encode_str(self.key_fingerprint),
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "MutationStatement":
        fields = decode_fields(data, expect=5)
        if len(fields[1]) != 8 or len(fields[2]) != 8:
            raise CodecError("malformed MutationStatement integers")
        return cls(
            session_id=decode_str(fields[0]),
            seq=int.from_bytes(fields[1], "big", signed=True),
            epoch=int.from_bytes(fields[2], "big", signed=True),
            member_digest=decode_str(fields[3]),
            key_fingerprint=decode_str(fields[4]),
        )

    def conflicts_with(self, other: "MutationStatement") -> bool:
        """True when the two statements cannot both describe one honest
        history: same journal position with different content (a forked
        stream), or one epoch bound to two different group keys."""
        if self.session_id != other.session_id:
            return False
        if self.seq == other.seq and self != other:
            return True
        return (
            self.epoch == other.epoch
            and self.key_fingerprint != other.key_fingerprint
        )


@dataclass(frozen=True, slots=True)
class Attestation:
    """One replica's MAC over one statement."""

    replica_id: str
    statement: MutationStatement
    mac: bytes

    @classmethod
    def sign(
        cls,
        replica_id: str,
        statement: MutationStatement,
        key: KeyMaterial,
    ) -> "Attestation":
        mac = hmac_sha256(
            key.material, ATTESTATION_AD + statement.encode()
        )
        return cls(replica_id=replica_id, statement=statement, mac=mac)

    def verify(self, key: KeyMaterial) -> bool:
        return verify_hmac_sha256(
            key.material, ATTESTATION_AD + self.statement.encode(), self.mac
        )

    def encode(self) -> bytes:
        return encode_fields([
            encode_str(self.replica_id),
            self.statement.encode(),
            self.mac,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Attestation":
        replica_b, stmt_b, mac = decode_fields(data, expect=3)
        return cls(
            replica_id=decode_str(replica_b),
            statement=MutationStatement.from_bytes(stmt_b),
            mac=mac,
        )


@dataclass(frozen=True, slots=True)
class QuorumCertificate:
    """``f + 1`` (or more) attestations over one identical statement."""

    attestations: tuple[Attestation, ...]

    @property
    def statement(self) -> MutationStatement:
        if not self.attestations:
            raise QuorumError("empty certificate has no statement")
        return self.attestations[0].statement

    @property
    def signers(self) -> frozenset[str]:
        return frozenset(a.replica_id for a in self.attestations)

    def encode(self) -> bytes:
        return encode_fields([a.encode() for a in self.attestations])

    @classmethod
    def from_bytes(cls, data: bytes) -> "QuorumCertificate":
        try:
            fields = decode_fields(data)
            return cls(
                attestations=tuple(
                    Attestation.from_bytes(f) for f in fields
                )
            )
        except CodecError as exc:
            raise QuorumError(f"undecodable certificate: {exc}") from exc

    def verify(
        self,
        keys: Mapping[str, KeyMaterial],
        threshold: int,
        evicted: frozenset[str] | set[str] = frozenset(),
    ) -> MutationStatement:
        """Check the certificate; returns its statement.

        Requirements, each a distinct :class:`QuorumError`:

        * every attestation covers the *same* statement (a certificate
          mixing statements is malformed, not merely weak),
        * every signer is a known replica with a valid MAC,
        * at least ``threshold`` *distinct, non-evicted* signers — an
          evicted replica's attestation is skipped rather than fatal
          (honest certificates issued before its eviction legitimately
          carry its signature; it simply no longer counts), and
          duplicate attestations from one replica count once, so a
          single replica cannot pad its way past the threshold.
        """
        if not self.attestations:
            raise QuorumError("empty certificate")
        statement = self.attestations[0].statement
        distinct: set[str] = set()
        for attestation in self.attestations:
            if attestation.statement != statement:
                raise QuorumError(
                    "certificate mixes statements "
                    f"({attestation.replica_id} diverges)"
                )
            key = keys.get(attestation.replica_id)
            if key is None:
                raise QuorumError(
                    f"unknown replica {attestation.replica_id!r}"
                )
            if attestation.replica_id in evicted:
                continue
            if not attestation.verify(key):
                raise QuorumError(
                    f"bad attestation MAC from {attestation.replica_id!r}"
                )
            distinct.add(attestation.replica_id)
        if len(distinct) < threshold:
            raise QuorumError(
                f"{len(distinct)} distinct attestations < "
                f"threshold {threshold}"
            )
        return statement

@dataclass(frozen=True, slots=True)
class EquivocationEvidence:
    """Two valid certificates over conflicting statements.

    ``accused`` is the replica the evidence convicts: a replica that
    signed both certificates (attributable double-signing — honest
    replicas never sign two conflicting statements), or, when the
    certificates share no signer, the *primary*: honest witnesses
    attest only what the primary's journal stream showed them, so
    disjoint certificates over conflicting statements mean the primary
    forked its own stream.  :func:`repro.formal.quorum_model` checks
    that this accusation rule never convicts an honest replica in any
    enumerable small world.
    """

    accused: str
    first: QuorumCertificate
    second: QuorumCertificate

    def encode(self) -> bytes:
        return encode_fields([
            encode_str(self.accused),
            self.first.encode(),
            self.second.encode(),
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "EquivocationEvidence":
        try:
            accused_b, first_b, second_b = decode_fields(data, expect=3)
        except CodecError as exc:
            raise QuorumError(f"undecodable evidence: {exc}") from exc
        return cls(
            accused=decode_str(accused_b),
            first=QuorumCertificate.from_bytes(first_b),
            second=QuorumCertificate.from_bytes(second_b),
        )

    def verify(
        self,
        keys: Mapping[str, KeyMaterial],
        threshold: int,
        primary_id: str,
    ) -> None:
        """Check that the evidence actually convicts ``accused``.

        Both certificates must verify, their statements must conflict,
        and the accusation must follow the rule above.  Raises
        :class:`QuorumError` otherwise — fabricated evidence must never
        trigger a view change.
        """
        first_stmt = self.first.verify(keys, threshold)
        second_stmt = self.second.verify(keys, threshold)
        if not first_stmt.conflicts_with(second_stmt):
            raise QuorumError("statements do not conflict")
        common = self.first.signers & self.second.signers
        if common:
            if self.accused not in common:
                raise QuorumError(
                    f"accused {self.accused!r} did not sign both "
                    f"certificates (double-signers: {sorted(common)})"
                )
        elif self.accused != primary_id:
            raise QuorumError(
                "disjoint certificates convict the stream source "
                f"{primary_id!r}, not {self.accused!r}"
            )


def build_evidence(
    first: QuorumCertificate,
    second: QuorumCertificate,
    primary_id: str,
) -> EquivocationEvidence:
    """Package two conflicting certificates, picking the accused."""
    common = sorted(first.signers & second.signers)
    accused = common[0] if common else primary_id
    return EquivocationEvidence(accused=accused, first=first, second=second)


__all__ = [
    "ATTESTATION_AD",
    "Attestation",
    "EquivocationEvidence",
    "MutationStatement",
    "QuorumCertificate",
    "build_evidence",
    "derive_attestation_key",
    "member_set_digest",
]
