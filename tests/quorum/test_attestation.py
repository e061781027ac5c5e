"""Attestation / certificate / evidence primitives, exhaustively local.

Everything here is pure data + MACs: no network, no journal.  The
structural claims (what verifies, what conflicts, who gets accused)
are checked again model-style in ``tests/formal/test_quorum_model.py``;
these tests pin the codec and the individual error paths.
"""

import pytest

from repro.crypto.keys import KeyMaterial
from repro.exceptions import QuorumError
from repro.quorum.attestation import (
    Attestation,
    EquivocationEvidence,
    MutationStatement,
    QuorumCertificate,
    build_evidence,
    derive_attestation_key,
    member_set_digest,
)

ROOT = KeyMaterial(bytes(range(32)))
REPLICAS = ("rep-0", "rep-1", "rep-2", "rep-3")
KEYS = {r: derive_attestation_key(ROOT, r) for r in REPLICAS}


def stmt(seq=5, epoch=3, fp="aaaaaaaa", session="grp", members=("a", "b")):
    return MutationStatement(
        session_id=session, seq=seq, epoch=epoch,
        member_digest=member_set_digest(members), key_fingerprint=fp,
    )


def cert(statement, *signers):
    return QuorumCertificate(tuple(
        Attestation.sign(r, statement, KEYS[r]) for r in signers
    ))


class TestStatement:
    def test_codec_roundtrip(self):
        s = stmt()
        assert MutationStatement.from_bytes(s.encode()) == s

    def test_codec_roundtrip_negative_and_empty(self):
        s = MutationStatement("grp", -1, -1, member_set_digest([]), "")
        assert MutationStatement.from_bytes(s.encode()) == s

    def test_digest_is_order_independent(self):
        assert member_set_digest(["b", "a"]) == member_set_digest(["a", "b"])
        assert member_set_digest(["a"]) != member_set_digest(["a", "b"])

    def test_conflicts_same_seq_different_content(self):
        assert stmt(fp="aaaaaaaa").conflicts_with(stmt(fp="bbbbbbbb"))

    def test_conflicts_same_epoch_different_key(self):
        a = stmt(seq=5, epoch=3, fp="aaaaaaaa")
        b = stmt(seq=9, epoch=3, fp="bbbbbbbb")
        assert a.conflicts_with(b) and b.conflicts_with(a)

    def test_no_conflict_across_sessions_or_honest_history(self):
        assert not stmt().conflicts_with(stmt(session="other", fp="bbbbbbbb"))
        assert not stmt(seq=5, epoch=3).conflicts_with(
            stmt(seq=6, epoch=4, fp="bbbbbbbb")
        )
        assert not stmt().conflicts_with(stmt())  # identical != conflict


class TestAttestation:
    def test_sign_verify_roundtrip(self):
        a = Attestation.sign("rep-1", stmt(), KEYS["rep-1"])
        assert a.verify(KEYS["rep-1"])
        assert Attestation.from_bytes(a.encode()) == a

    def test_wrong_key_fails(self):
        a = Attestation.sign("rep-1", stmt(), KEYS["rep-1"])
        assert not a.verify(KEYS["rep-2"])

    def test_tampered_statement_fails(self):
        a = Attestation.sign("rep-1", stmt(), KEYS["rep-1"])
        forged = Attestation("rep-1", stmt(epoch=99), a.mac)
        assert not forged.verify(KEYS["rep-1"])


class TestCertificate:
    def test_verify_returns_statement(self):
        c = cert(stmt(), "rep-0", "rep-1")
        assert c.verify(KEYS, 2) == stmt()
        assert QuorumCertificate.from_bytes(c.encode()).verify(KEYS, 2)

    def test_below_threshold_rejected(self):
        with pytest.raises(QuorumError, match="threshold"):
            cert(stmt(), "rep-0").verify(KEYS, 2)

    def test_duplicate_signer_cannot_pad(self):
        c = cert(stmt(), "rep-0", "rep-0", "rep-0")
        with pytest.raises(QuorumError, match="threshold"):
            c.verify(KEYS, 2)

    def test_mixed_statements_rejected(self):
        c = QuorumCertificate((
            Attestation.sign("rep-0", stmt(), KEYS["rep-0"]),
            Attestation.sign("rep-1", stmt(epoch=4), KEYS["rep-1"]),
        ))
        with pytest.raises(QuorumError, match="mixes"):
            c.verify(KEYS, 2)

    def test_unknown_replica_rejected(self):
        rogue = KeyMaterial(b"\x07" * 32)
        c = QuorumCertificate((
            Attestation.sign("rep-9", stmt(), rogue),
            Attestation.sign("rep-0", stmt(), KEYS["rep-0"]),
        ))
        with pytest.raises(QuorumError, match="unknown replica"):
            c.verify(KEYS, 2)

    def test_bad_mac_rejected(self):
        good = Attestation.sign("rep-0", stmt(), KEYS["rep-0"])
        evil = Attestation("rep-1", stmt(), good.mac)  # rep-1 never signed
        with pytest.raises(QuorumError, match="bad attestation MAC"):
            QuorumCertificate((good, evil)).verify(KEYS, 2)

    def test_evicted_signer_is_skipped_not_fatal(self):
        """A pre-eviction honest certificate stays valid as long as
        enough *surviving* signers remain — the eviction must not
        retroactively invalidate history (the silence-heal path resends
        old certified payloads)."""
        c = cert(stmt(), "rep-0", "rep-1", "rep-2")
        assert c.verify(KEYS, 2, evicted={"rep-0"}) == stmt()
        with pytest.raises(QuorumError, match="threshold"):
            c.verify(KEYS, 2, evicted={"rep-0", "rep-1"})

    def test_empty_certificate(self):
        with pytest.raises(QuorumError, match="empty"):
            QuorumCertificate(()).verify(KEYS, 1)

    def test_undecodable_bytes_raise_quorum_error(self):
        with pytest.raises(QuorumError, match="undecodable"):
            QuorumCertificate.from_bytes(b"\xff\xfe garbage")


class TestEvidence:
    def fork(self):
        return (
            cert(stmt(fp="aaaaaaaa"), "rep-0", "rep-1"),
            cert(stmt(fp="bbbbbbbb"), "rep-0", "rep-2"),
        )

    def test_common_signer_is_accused(self):
        a, b = self.fork()
        evidence = build_evidence(a, b, "rep-0")
        assert evidence.accused == "rep-0"  # signed both worlds
        evidence.verify(KEYS, 2, "rep-0")

    def test_disjoint_certificates_accuse_primary(self):
        a = cert(stmt(fp="aaaaaaaa"), "rep-1", "rep-2")
        b = cert(stmt(fp="bbbbbbbb"), "rep-0", "rep-3")
        evidence = build_evidence(a, b, "rep-0")
        assert evidence.accused == "rep-0"
        evidence.verify(KEYS, 2, "rep-0")

    def test_accusation_violating_the_rule_fails(self):
        a, b = self.fork()
        with pytest.raises(QuorumError, match="did not sign both"):
            EquivocationEvidence("rep-3", a, b).verify(KEYS, 2, "rep-0")

    def test_non_conflicting_certificates_fail(self):
        a = cert(stmt(seq=5, epoch=3), "rep-0", "rep-1")
        b = cert(stmt(seq=6, epoch=4, fp="bbbbbbbb"), "rep-0", "rep-1")
        with pytest.raises(QuorumError, match="do not conflict"):
            EquivocationEvidence("rep-0", a, b).verify(KEYS, 2, "rep-0")

    def test_under_signed_certificate_fails(self):
        a = cert(stmt(fp="aaaaaaaa"), "rep-0")
        b = cert(stmt(fp="bbbbbbbb"), "rep-0", "rep-1")
        with pytest.raises(QuorumError, match="threshold"):
            EquivocationEvidence("rep-0", a, b).verify(KEYS, 2, "rep-0")


def test_derived_keys_are_distinct_and_deterministic():
    assert len({KEYS[r].material for r in REPLICAS}) == len(REPLICAS)
    assert derive_attestation_key(ROOT, "rep-0").material == \
        KEYS["rep-0"].material
