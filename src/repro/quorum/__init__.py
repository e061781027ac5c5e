"""Byzantine leader quorum: replicated, equivocation-detecting group
management with automatic view change.

The paper's improved §3.2 protocol tolerates compromised *members* but
still trusts a single leader (§7 names this as the main limit; the
crash-only manager sets of :mod:`repro.enclaves.itgm.failover` inherit
it).  This package builds the Byzantine half of the fault model: a
replica set of ``n = 3f + 1`` managers in which every membership
mutation — join, leave, rekey, close — is only *applied* by a member
when it carries a certificate of ``f + 1`` independent replica
attestations over the same ``(session, journal seq, epoch, member-set
digest, key fingerprint)`` statement.

It is deliberately a **certificate layer, not a consensus engine**: the
primary still drives the protocol exactly as before, witnesses co-sign
what the primary's journal shipping stream shows them, and members
verify the resulting certificate inside the existing sealed AdminMsg
channel.  What the layer buys:

* **Forgery resistance** — a primary acting alone cannot fabricate a
  mutation: every valid certificate contains at least one honest
  attestation, and honest replicas attest only states actually derived
  from the shipped journal (:mod:`repro.formal.quorum_model` checks
  this exhaustively for small worlds, in tier-1 through
  ``tests/formal/test_quorum_model.py``; no CLI command runs it yet).
* **Equivocation detection** — a primary that forks its journal stream
  *can* assemble conflicting certificates for one epoch, but any two
  such certificates are cryptographic evidence: either a replica
  signed both (attributable double-signing) or two honest witnesses
  attested diverging streams, which only the primary can produce.
  Detection yields a typed ``EquivocationDetected`` telemetry event and
  a signed :class:`~repro.quorum.attestation.EquivocationEvidence`
  blob.
* **Automatic view change** — evidence evicts the accused replica,
  promotes the healthiest witness through the journal-shipping
  machinery (sessions stay warm), and re-keys the group at a strictly
  higher epoch, so both sides of any fork are cryptographically
  retired.

Entry points: :class:`~repro.quorum.replicas.QuorumLeaderSet` (the
replica set), :class:`~repro.quorum.member.QuorumMemberProtocol`
(certificate-verifying member), :mod:`repro.quorum.byzantine` (the
seeded Byzantine fault family), and :func:`~repro.quorum.soak.run_quorum_soak`
(the comparative chaos soak).  ``python -m repro quorum {demo,attack,soak}``
drives all of it from the CLI.
"""

from repro.quorum.attestation import (
    Attestation,
    EquivocationEvidence,
    MutationStatement,
    QuorumCertificate,
    derive_attestation_key,
    member_set_digest,
)
from repro.quorum.byzantine import (
    FAULT_NAMES,
    FAULTS,
    build_quorum_scenario,
    build_single_scenario,
)
from repro.quorum.fabric import (
    QuorumMigrationReport,
    host_quorum_group,
    migrate_quorum_group,
    quorum_fabric_member,
    rebind_after_view_change,
)
from repro.quorum.member import QuorumMemberProtocol, QuorumVerifier
from repro.quorum.replicas import QuorumConfig, QuorumLeaderSet, WitnessReplica
from repro.quorum.soak import (
    QuorumSoakReport,
    format_byzantine_matrix,
    run_byzantine_matrix,
    run_quorum_soak,
    soak_as_expected,
)

__all__ = [
    "Attestation",
    "FAULTS",
    "FAULT_NAMES",
    "EquivocationEvidence",
    "MutationStatement",
    "QuorumCertificate",
    "QuorumConfig",
    "QuorumLeaderSet",
    "QuorumMemberProtocol",
    "QuorumMigrationReport",
    "QuorumSoakReport",
    "QuorumVerifier",
    "WitnessReplica",
    "build_quorum_scenario",
    "build_single_scenario",
    "derive_attestation_key",
    "format_byzantine_matrix",
    "host_quorum_group",
    "member_set_digest",
    "migrate_quorum_group",
    "quorum_fabric_member",
    "rebind_after_view_change",
    "run_byzantine_matrix",
    "run_quorum_soak",
    "soak_as_expected",
]
