"""The member-side trust boundary: the three certificate rules.

Each test drives a real joined group (the §3.2 channel must stay live
through every refusal — rejections ride the nonce chain as acks, they
never stall the session) and then presents exactly one malformed,
mis-bound, or conflicting admin payload.
"""

from repro.crypto.keys import KEY_LEN, GroupKey
from repro.enclaves.common import Rejected
from repro.enclaves.itgm.admin import (
    CertifiedPayload,
    MemberLeftPayload,
    NewGroupKeyPayload,
    TextPayload,
)
from repro.enclaves.itgm.leader_session import LeaderState
from repro.quorum.attestation import (
    Attestation,
    MutationStatement,
    QuorumCertificate,
    member_set_digest,
)
from repro.quorum.byzantine import build_quorum_scenario
from repro.telemetry.events import (
    CertificateVerified,
    EquivocationDetected,
    EventBus,
)
from repro.util.clock import TickClock
from repro.wire.labels import Label

MEMBERS = ["alice", "bob", "carol"]


def scenario(seed=21, telemetry=None):
    return build_quorum_scenario(MEMBERS, seed=seed, telemetry=telemetry)


def rejections(scn, uid):
    return [e.reason for e in scn.net.events_of(uid, Rejected)]


def forked_payload(qs, key, epoch, signers):
    """A fully verifying certified rekey for ``key`` — the shape an
    equivocating primary manufactures (it holds the attestation keys of
    every replica it duped, plus its own)."""
    statement = MutationStatement(
        session_id=qs.session_id,
        seq=qs.journal.seq + 64,
        epoch=epoch,
        member_digest=member_set_digest(qs.leader.members),
        key_fingerprint=key.fingerprint(),
    )
    cert = QuorumCertificate(tuple(
        Attestation.sign(rid, statement, qs.keys[rid]) for rid in signers
    ))
    return CertifiedPayload(
        inner=NewGroupKeyPayload(key=key, epoch=epoch),
        certificate=cert.encode(),
    )


class TestRule1Uncertified:
    def test_bare_mutation_refused_channel_stays_live(self):
        scn = scenario()
        qs = scn.qs
        epoch = scn.members["alice"].group_epoch
        qs.leader.bind_certifier(None)  # degrade to a plain leader
        scn.net.post_all(qs.leader.rekey_now())
        scn.net.run()
        for uid, member in scn.members.items():
            assert member.group_epoch == epoch  # view untouched
            assert any(
                "uncertified NewGroupKeyPayload refused" in r
                for r in rejections(scn, uid)
            )
        # The refusal acked on the nonce chain: once certification is
        # restored the very next rekey lands without a rejoin.
        qs.leader.bind_certifier(qs._certify)
        scn.net.post_all(qs.leader.rekey_now())
        scn.net.run()
        for member in scn.members.values():
            assert member.group_epoch == qs.leader.group_epoch


    def test_batch_is_judged_item_by_item(self):
        """One AdminMsg carrying a certified rekey *and* a bare
        mutation: the former installs, only the latter is refused, and
        the frame is still acknowledged."""
        scn = scenario()
        qs, alice = scn.qs, scn.members["alice"]
        held = []
        scn.net.set_interceptor(
            lambda e: held.append(e) or []
            if e.label is Label.ADMIN_MSG and e.recipient == "alice"
            else None)
        # Occupy alice's channel, then queue both payloads behind it.
        scn.net.post_all(qs.leader.send_admin_to("alice", TextPayload("t")))
        scn.net.post_all(qs.leader.rekey_now())  # certified in the outbox
        qs.leader.bind_certifier(None)
        scn.net.post_all(qs.leader.broadcast_admin(MemberLeftPayload("bob")))
        scn.net.run()
        scn.net.set_interceptor(None)
        assert qs.leader.outbox_depth("alice") == 2
        before = len(rejections(scn, "alice"))

        scn.net.post(held[0])
        scn.net.run()
        assert [type(p) for p in alice.admin_log[-2:]] == [
            CertifiedPayload, MemberLeftPayload]
        assert alice.group_epoch == qs.leader.group_epoch
        assert alice.group_key_fingerprint == qs.leader.group_key_fingerprint
        assert "bob" in alice.membership
        assert rejections(scn, "alice")[before:] == [
            "uncertified MemberLeftPayload refused"]
        # Acked: the channel is idle again and the next rekey lands.
        assert qs.leader.session_state("alice") is LeaderState.CONNECTED
        qs.leader.bind_certifier(qs._certify)
        scn.net.post_all(qs.leader.rekey_now())
        scn.net.run()
        assert alice.group_epoch == qs.leader.group_epoch


class TestRule2Binding:
    def test_undecodable_certificate_rejected(self):
        scn = scenario()
        qs = scn.qs
        payload = CertifiedPayload(
            inner=NewGroupKeyPayload(
                key=GroupKey(b"\x01" * KEY_LEN),
                epoch=qs.leader.group_epoch + 1,
            ),
            certificate=b"\xff\xfenot a certificate",
        )
        scn.net.post_all(qs.leader.send_admin_to("alice", payload))
        scn.net.run()
        assert any(
            r.startswith("certificate rejected:")
            for r in rejections(scn, "alice")
        )

    def test_spliced_certificate_rejected(self):
        """A real, verifying certificate from one mutation must not
        authorize a different key distribution."""
        scn = scenario()
        qs = scn.qs
        genuine = scn.members["alice"].accepted_certificates[-1].encode()
        payload = CertifiedPayload(
            inner=NewGroupKeyPayload(
                key=GroupKey(b"\x02" * KEY_LEN),
                epoch=qs.leader.group_epoch + 7,
            ),
            certificate=genuine,
        )
        scn.net.post_all(qs.leader.send_admin_to("alice", payload))
        scn.net.run()
        assert any(
            "certificate does not cover this mutation" in r
            and "epoch" in r
            for r in rejections(scn, "alice")
        )
        assert scn.members["alice"].group_epoch == qs.leader.group_epoch

    def test_same_epoch_different_key_rejected(self):
        scn = scenario()
        qs = scn.qs
        genuine = scn.members["alice"].accepted_certificates[-1]
        payload = CertifiedPayload(
            inner=NewGroupKeyPayload(
                key=GroupKey(b"\x03" * KEY_LEN),
                epoch=genuine.statement.epoch,
            ),
            certificate=genuine.encode(),
        )
        scn.net.post_all(qs.leader.send_admin_to("alice", payload))
        scn.net.run()
        assert any(
            "certificate does not cover this mutation" in r
            and "different group key" in r
            for r in rejections(scn, "alice")
        )


class TestRule3Equivocation:
    def test_conflicting_certificate_convicts(self):
        bus = EventBus(clock=TickClock())
        scn = scenario(telemetry=bus)
        qs = scn.qs
        epoch = qs.leader.group_epoch + 1
        key_a = GroupKey(b"\x0a" * KEY_LEN)
        key_b = GroupKey(b"\x0b" * KEY_LEN)
        pay_a = forked_payload(qs, key_a, epoch, ["rep-0", "rep-1"])
        pay_b = forked_payload(qs, key_b, epoch, ["rep-0", "rep-2"])
        with bus.capture() as records:
            scn.net.post_all(qs.leader.send_admin_to("alice", pay_a))
            scn.net.run()
            scn.net.post_all(qs.leader.send_admin_to("alice", pay_b))
            scn.net.run()
        alice = scn.members["alice"]
        # Fork A landed (first-accepted world is authoritative)...
        assert alice.group_key_fingerprint == key_a.fingerprint()
        # ...fork B was refused, convicted, and evidenced.
        assert any(
            "certificate equivocation" in r for r in rejections(scn, "alice")
        )
        assert len(alice.evidence) == 1
        evidence = alice.evidence[0]
        assert evidence.accused == "rep-0"  # the double-signer
        evidence.verify(qs.keys, qs.config.threshold, qs.primary_id)
        detections = [
            r.event for r in records
            if isinstance(r.event, EquivocationDetected)
        ]
        assert len(detections) == 1
        assert detections[0].accused == "rep-0"
        assert detections[0].evidence == evidence.encode().hex()
        assert any(
            isinstance(r.event, CertificateVerified) for r in records
        )

    def test_verifier_forgets_old_world_after_view_change(self):
        scn = scenario()
        qs = scn.qs
        alice = scn.members["alice"]
        epoch = qs.leader.group_epoch + 1
        pay_a = forked_payload(
            qs, GroupKey(b"\x0c" * KEY_LEN), epoch, ["rep-0", "rep-1"]
        )
        scn.net.post_all(qs.leader.send_admin_to("alice", pay_a))
        scn.net.run()
        # View change: the poisoned observation window is discarded, so
        # the honest successor's certificates at reused seqs/epochs are
        # not convicted by the old primary's plants.
        alice.verifier.evict("rep-0")
        alice.verifier.set_primary("rep-1")
        pay_b = forked_payload(
            qs, GroupKey(b"\x0d" * KEY_LEN), epoch, ["rep-1", "rep-2"]
        )
        before = len(alice.evidence)
        scn.net.post_all(qs.leader.send_admin_to("alice", pay_b))
        scn.net.run()
        assert len(alice.evidence) == before  # no (stale) conviction


class TestVerifierEviction:
    def test_evicted_signer_cannot_carry_a_certificate(self):
        scn = scenario()
        qs = scn.qs
        alice = scn.members["alice"]
        alice.verifier.evict("rep-1")
        payload = forked_payload(
            qs, GroupKey(b"\x0e" * KEY_LEN),
            qs.leader.group_epoch + 1, ["rep-0", "rep-1"],
        )
        scn.net.post_all(qs.leader.send_admin_to("alice", payload))
        scn.net.run()
        assert any(
            r.startswith("certificate rejected:")
            for r in rejections(scn, "alice")
        )
