"""Replica-set behaviour: certification, refusals, audit, view change.

Scenarios ride the seeded builders from ``repro.quorum.byzantine`` so
the wiring here matches what the soak exercises; the assertions go one
level deeper (witness counters, promotion choice, shipping rebuild).
"""

import pytest

from repro.crypto.keys import KEY_LEN, GroupKey
from repro.exceptions import QuorumError, StateError
from repro.quorum.attestation import QuorumCertificate, member_set_digest
from repro.quorum.byzantine import (
    CorruptingShipper,
    EquivocatingPrimary,
    KeyWithholdingPrimary,
    _corrupting_receive,
    _forged_key_record,
    build_quorum_scenario,
)
from repro.quorum.replicas import QuorumConfig

MEMBERS = ["alice", "bob", "carol"]


def scenario(seed=3):
    return build_quorum_scenario(MEMBERS, seed=seed)


def sync_verifiers(scn):
    """Out-of-band evidence distribution: every member learns the
    current eviction set and primary (deployment: the evidence blob is
    broadcast and re-verified; here the test plays the broadcast)."""
    for member in scn.members.values():
        for rid in scn.qs.evicted:
            member.verifier.evict(rid)
        member.verifier.set_primary(scn.qs.primary_id)


def deliver(scn, envelopes):
    scn.net.post_all(envelopes)
    scn.net.run()


def assert_converged(scn):
    qs = scn.qs
    for member in scn.members.values():
        assert member.group_epoch == qs.leader.group_epoch
        assert member.group_key_fingerprint == \
            qs.leader.group_key_fingerprint


class TestConfig:
    def test_sizing(self):
        cfg = QuorumConfig(f=2)
        assert (cfg.n, cfg.threshold) == (7, 3)

    def test_f_floor(self):
        with pytest.raises(ValueError):
            QuorumConfig(f=0)


class TestCertification:
    def test_every_mutation_leaves_certified(self):
        scn = scenario()
        # Joins already happened in the builder; each member saw at
        # least its own keyed admission, certified.
        for member in scn.members.values():
            assert member.accepted_certificates
        deliver(scn, scn.qs.leader.rekey_now())
        assert_converged(scn)
        qs = scn.qs
        cert = scn.members["alice"].accepted_certificates[-1]
        statement = cert.verify(qs.keys, qs.config.threshold)
        assert statement.epoch == qs.leader.group_epoch
        assert len(cert.signers) >= qs.config.threshold
        assert qs.primary_id in cert.signers

    def test_witnesses_actually_attest(self):
        scn = scenario()
        before = {r: w.attested for r, w in scn.qs.witnesses.items()}
        deliver(scn, scn.qs.leader.rekey_now())
        after = {r: w.attested for r, w in scn.qs.witnesses.items()}
        assert all(after[r] > before[r] for r in before)

    def test_certificate_cache_is_per_seq(self):
        scn = scenario()
        qs = scn.qs
        first = qs._certify()
        assert qs._certify() is first  # same head, cached encoding
        deliver(scn, qs.leader.rekey_now())
        assert qs._certify() is not first

    def test_join_in_a_flush_ships_before_it_is_certified(self):
        """``handle_many`` journals once, at the end of its flush — but
        not the record a certificate needs: the pump's own checkpoint
        still ships a join before the certifier asks the witnesses, so
        what they attest (and what the joiner accepts) is a head that
        already holds the join."""
        scn = scenario()
        qs, leader = scn.qs, scn.qs.leader
        deliver(scn, [scn.members["carol"].start_leave()])
        # Handshake by hand up to the frame whose acceptance *is* the
        # join, so that frame can arrive inside a flush.
        key_dist, _ = leader.handle(scn.members["carol"].start_join())
        (ack_key,), _ = scn.members["carol"].handle(key_dist[0])
        with_carol = member_set_digest(["alice", "bob", "carol"])

        asked_at = []
        certify = qs._certify

        def spying():
            replicas = [w.follower.replay() for w in qs.witnesses.values()]
            asked_at.append((qs.journal.seq, replicas))
            return certify()

        leader.bind_certifier(spying)
        before = qs.journal.seq
        out, _ = leader.handle_many(
            [scn.members["alice"].seal_app(b"chat"), ack_key]
        )

        head, replicas = asked_at[0]
        assert head > before
        for replica in replicas:
            assert replica.last_seq == head and not replica.truncated
            assert replica.state["sessions"]["carol"]["state"] == "CONNECTED"
        deliver(scn, out)
        statement = scn.members["carol"].accepted_certificates[-1].verify(
            qs.keys, qs.config.threshold
        )
        assert statement.seq >= head
        assert statement.member_digest == with_carol
        assert_converged(scn)

    def test_no_quorum_no_certificate(self):
        """With every witness evicted only the primary signs — below
        threshold, so _certify yields None and the (vulnerable) bare
        payload is refused by members: fail-stop, not fail-open."""
        scn = scenario()
        qs = scn.qs
        epoch_before = scn.members["alice"].group_epoch
        deliver(scn, qs.view_change("rep-1", "test"))
        sync_verifiers(scn)
        deliver(scn, qs.view_change("rep-2", "test"))
        sync_verifiers(scn)
        # Third eviction leaves primary alone; its rekey cannot certify.
        envelopes = qs.view_change("rep-3", "test")
        assert qs._certify() is None
        sync_verifiers(scn)
        deliver(scn, envelopes)
        for member in scn.members.values():
            assert member.group_epoch < qs.leader.group_epoch
        assert epoch_before < scn.members["alice"].group_epoch  # earlier
        # view changes (still quorate) did land.


class TestWitnessRefusals:
    def test_epoch_rebind_refused(self):
        """A forged record binding an already-signed epoch to a second
        key: the witness's double-signing memory refuses."""
        scn = scenario()
        qs = scn.qs
        rid = sorted(qs.witnesses)[0]
        witness = qs.witnesses[rid]
        fault = EquivocatingPrimary(seed=9)
        key = GroupKey(fault.rng.fork("x").key_material(KEY_LEN))
        record = _forged_key_record(
            qs.journal, qs.leader, key,
            qs.leader.group_epoch,        # epoch already attested...
            qs.journal.seq + 64,
        )
        witness.follower.receive(record, qs.journal.seq + 64, "snapshot")
        with pytest.raises(QuorumError, match="bind epoch"):
            witness.attest(qs.session_id)
        assert witness.refused == 1

    def test_corrupted_replica_refuses_but_quorum_survives(self):
        scn = scenario()
        qs = scn.qs
        target = sorted(qs.witnesses)[-1]
        _corrupting_receive(qs.witnesses[target].follower)
        deliver(scn, qs.leader.rekey_now())
        assert qs.witnesses[target].refused > 0
        assert_converged(scn)  # certified by the healthy majority

    def test_dropped_records_refused(self):
        scn = scenario()
        qs = scn.qs
        rid = sorted(qs.witnesses)[0]
        follower = qs.witnesses[rid].follower
        follower.offered_seq = follower.applied_seq + 5
        with pytest.raises(QuorumError, match="dropped records"):
            qs.witnesses[rid].attest(qs.session_id)


class TestAudit:
    def test_withholding_shows_every_member_lagging(self):
        scn = scenario()
        qs = scn.qs
        KeyWithholdingPrimary(seed=1).strike_quorum(scn)
        lagging = qs.audit({
            uid: m.group_epoch for uid, m in scn.members.items()
        })
        assert set(lagging) == set(MEMBERS)

    def test_healthy_group_audits_clean(self):
        scn = scenario()
        deliver(scn, scn.qs.leader.rekey_now())
        assert scn.qs.audit({
            uid: m.group_epoch for uid, m in scn.members.items()
        }) == {}


class TestViewChange:
    def test_restore_builds_the_quorum_leader_class(self):
        """Promotion and warm migration restore straight into the
        subclass: same protocol state, no certifier until re-bound."""
        from repro.enclaves.itgm.persistence import (
            restore_leader,
            snapshot_leader,
        )
        from repro.quorum.replicas import QuorumGroupLeader

        qs = scenario().qs
        snapshot = snapshot_leader(qs.leader)
        restored = restore_leader(
            snapshot, qs.directory, config=qs.leader.config,
            leader_cls=QuorumGroupLeader,
        )
        assert type(restored) is QuorumGroupLeader
        assert restored._certifier is None
        assert snapshot_leader(restored) == snapshot

    def test_witness_eviction_rekeys_and_continues(self):
        scn = scenario()
        qs = scn.qs
        epoch_before = qs.leader.group_epoch
        envelopes = qs.view_change("rep-2", "operator: flaky")
        assert qs.primary_id == "rep-0"  # primary unchanged
        assert "rep-2" not in qs.witnesses
        assert qs.view_changes == 1
        sync_verifiers(scn)
        deliver(scn, envelopes)
        assert qs.leader.group_epoch > epoch_before
        assert_converged(scn)

    def test_primary_eviction_promotes_warm(self):
        """Members keep their sessions across the promotion: the new
        primary re-hosts the same session identity from its replica."""
        scn = scenario()
        qs = scn.qs
        epoch_before = qs.leader.group_epoch
        from repro.enclaves.harness import wire
        envelopes = qs.view_change("rep-0", "operator: compromised")
        assert qs.primary_id != "rep-0"
        assert "rep-0" in qs.evicted
        wire(scn.net, qs.session_id, qs.leader)  # demux follows the swap
        sync_verifiers(scn)
        deliver(scn, envelopes)
        assert qs.leader.group_epoch > epoch_before
        assert_converged(scn)
        # The rebuilt shipping stream still certifies: a further rekey
        # round-trips through fresh witness replicas.
        deliver(scn, qs.leader.rekey_now())
        assert_converged(scn)
        cert = scn.members["alice"].accepted_certificates[-1]
        assert qs.primary_id in cert.signers

    def test_promotion_skips_damaged_replica(self):
        scn = scenario()
        qs = scn.qs
        CorruptingShipper(seed=5).strike_quorum(scn)
        damaged = sorted(qs.witnesses)[-1]   # the fault's chosen target
        from repro.enclaves.harness import wire
        envelopes = qs.view_change("rep-0", "operator")
        assert qs.primary_id not in ("rep-0", damaged)
        wire(scn.net, qs.session_id, qs.leader)
        sync_verifiers(scn)
        deliver(scn, envelopes)
        assert_converged(scn)

    def test_evidence_gates_eviction(self):
        scn = scenario()
        qs = scn.qs
        strike = EquivocatingPrimary(seed=11).strike_quorum(scn)
        # Each duped subset saw only its own fork — the conflict is
        # cross-member, surfaced by certificate gossip (here: one
        # member from fork A observes fork B's latest certificate).
        observer = scn.members[strike["subset_a"][0]]
        other = scn.members[strike["subset_b"][0]]
        evidence = observer.verifier.observe(
            other.accepted_certificates[-1]
        )
        assert evidence is not None
        assert evidence.accused == scn.qs.primary_id  # double-signer
        with pytest.raises(QuorumError, match="convicts"):
            qs.view_change("rep-3", "wrong accused", evidence=evidence)
        forked_epochs = (
            evidence.first.statement.epoch,
            evidence.second.statement.epoch,
        )
        from repro.enclaves.harness import wire
        envelopes = qs.view_change(
            evidence.accused, "equivocation", evidence=evidence
        )
        wire(scn.net, qs.session_id, qs.leader)
        sync_verifiers(scn)
        deliver(scn, envelopes)
        # Both sides of the fork are retired: the healed epoch is
        # strictly above anything either branch certified.
        assert qs.leader.group_epoch > max(forked_epochs)
        assert_converged(scn)

    def test_unknown_and_double_eviction_rejected(self):
        scn = scenario()
        with pytest.raises(StateError, match="unknown replica"):
            scn.qs.view_change("rep-9", "test")
        scn.qs.view_change("rep-1", "test")
        with pytest.raises(StateError, match="already evicted"):
            scn.qs.view_change("rep-1", "test")
