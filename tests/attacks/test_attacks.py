"""Tests for the attack library — the SEC-2.3 reproduction.

Each §2.3 attack must SUCCEED against the legacy stack and be BLOCKED by
the improved one; the extra attacks must be blocked everywhere.  These
assertions *are* the paper's central empirical claim.
"""

import pytest

from repro.attacks import (
    ALL_ATTACKS,
    AdminReplayAttack,
    DataReplayAttack,
    ForgedCloseAttack,
    ForgedDenialAttack,
    ForgedRemovalAttack,
    ImpersonationAttack,
    PastMemberDataAttack,
    QuorumEquivocationAttack,
    QuorumForgeryAttack,
    RekeyReplayAttack,
    StaleSessionKeyAttack,
    run_attack_matrix,
)
from repro.attacks.suite import format_matrix


class TestPaperAttacks:
    """The three attacks §2.3 spells out."""

    def test_forged_denial_succeeds_on_legacy(self):
        result = ForgedDenialAttack().run_legacy()
        assert result.succeeded, result.detail

    def test_forged_denial_blocked_on_itgm(self):
        result = ForgedDenialAttack().run_itgm()
        assert not result.succeeded, result.detail

    def test_forged_removal_succeeds_on_legacy(self):
        result = ForgedRemovalAttack().run_legacy()
        assert result.succeeded, result.detail

    def test_forged_removal_blocked_on_itgm(self):
        result = ForgedRemovalAttack().run_itgm()
        assert not result.succeeded, result.detail

    def test_rekey_replay_succeeds_on_legacy(self):
        result = RekeyReplayAttack().run_legacy()
        assert result.succeeded, result.detail
        # The legacy run must demonstrate actual confidentiality loss.
        assert "read" in result.detail

    def test_rekey_replay_blocked_on_itgm(self):
        result = RekeyReplayAttack().run_itgm()
        assert not result.succeeded, result.detail


class TestRequirementAttacks:
    """Attacks derived from the §3.1 requirements."""

    def test_admin_replay(self):
        attack = AdminReplayAttack()
        assert attack.run_legacy().succeeded
        result = attack.run_itgm()
        assert not result.succeeded
        # Both recorded frames — the lone rekey and the batched
        # [MemberLeft, NewGroupKey] — die whole when replayed late.
        assert "each of 4 payloads accepted exactly once" in result.detail
        assert "2 late replay(s) rejected as stale" in result.detail

    def test_impersonation_blocked_everywhere(self):
        attack = ImpersonationAttack()
        assert not attack.run_legacy().succeeded
        assert not attack.run_itgm().succeeded

    def test_forged_close(self):
        attack = ForgedCloseAttack()
        assert attack.run_legacy().succeeded
        assert not attack.run_itgm().succeeded

    def test_stale_session_key_blocked_everywhere(self):
        attack = StaleSessionKeyAttack()
        assert not attack.run_legacy().succeeded
        assert not attack.run_itgm().succeeded


class TestByzantineAttacks:
    """The §6/§7 trusted-leader limit, and the quorum layer closing it.

    For these two the "legacy" column is the *trusted-leader*
    deployment (the improved §3.2 stack without the quorum layer) —
    channel authentication alone cannot help when the authenticated
    endpoint is the attacker."""

    def test_forgery_succeeds_against_a_trusted_leader(self):
        result = QuorumForgeryAttack().run_legacy()
        assert result.succeeded, result.detail
        assert "fabricated key" in result.detail

    def test_forgery_blocked_by_certificates(self):
        """Both of the lone primary's moves: bare mutation (rule 1)
        and a self-signed below-threshold certificate (rule 2)."""
        result = QuorumForgeryAttack().run_itgm()
        assert not result.succeeded, result.detail
        assert "refused both attempts" in result.detail

    def test_equivocation_succeeds_against_a_trusted_leader(self):
        result = QuorumEquivocationAttack().run_legacy()
        assert result.succeeded, result.detail

    def test_equivocation_detected_and_attributed(self):
        result = QuorumEquivocationAttack().run_itgm()
        assert not result.succeeded, result.detail

    def test_equivocation_row_runs_the_soaks_response(self, monkeypatch):
        """One response procedure: the attack row and the equivocation
        soak both go through ``quorum_respond``, once each — so the row
        emits the ``EquivocationDetected`` the soak always did — and
        the row's verdict reads as it did when it spelled its own."""
        import repro.attacks.quorum_equivocation as row
        import repro.quorum.soak as soak
        from repro.telemetry import DEFAULT_BUS

        real, calls = soak.quorum_respond, []

        def spy(scenario, fault):
            calls.append(fault)
            return real(scenario, fault)

        monkeypatch.setattr(soak, "quorum_respond", spy)
        monkeypatch.setattr(row, "quorum_respond", spy)
        seen = []
        DEFAULT_BUS.subscribe(seen.append)
        try:
            result = QuorumEquivocationAttack().run_itgm()
        finally:
            DEFAULT_BUS.unsubscribe(seen.append)
        assert calls == ["equivocation"]
        assert result.detail == (
            "alice detected the fork; evidence convicted rep-0; view "
            "change promoted rep-3 and re-keyed at epoch 3 (above both "
            "forks at 2)"
        )
        detected = [r for r in seen
                    if type(r.event).__name__ == "EquivocationDetected"]
        assert len(detected) == 1 and detected[0].event.accused == "rep-0"

        report = soak.run_quorum_soak("equivocation", stack="quorum")
        assert calls == ["equivocation", "equivocation"]
        assert report.detected and report.safe


class TestDataPlaneAttacks:
    """The data-plane rows: group-key-only channel vs the ratchet.

    Their "legacy" column is the group-key-only data channel (what
    sealing app traffic directly under K_g gives you); "improved" is
    the ratcheted, epoch-bound channel of :mod:`repro.dataplane`."""

    def test_past_member_reads_baseline_traffic(self):
        result = PastMemberDataAttack().run_legacy()
        assert result.succeeded, result.detail
        assert "read" in result.detail

    def test_past_member_blocked_by_ratchet(self):
        """Both of the leaver's moves die typed: captured chain state
        (epoch mismatch) and the re-seeded old key (MAC failure)."""
        result = PastMemberDataAttack().run_itgm()
        assert not result.succeeded, result.detail
        assert "zero post-leave plaintext" in result.detail
        assert "epoch-mismatch" in result.detail

    def test_replay_delivers_twice_on_baseline(self):
        result = DataReplayAttack().run_legacy()
        assert result.succeeded, result.detail
        assert "2 times" in result.detail

    def test_replay_shed_typed_by_ratchet(self):
        result = DataReplayAttack().run_itgm()
        assert not result.succeeded, result.detail
        assert "replay" in result.detail


class TestMatrix:
    def test_every_row_as_predicted(self):
        rows = run_attack_matrix()
        for row in rows:
            assert row.as_expected, (
                f"{row.attack}: legacy={row.legacy}, itgm={row.itgm}"
            )

    def test_matrix_covers_all_attacks(self):
        rows = run_attack_matrix()
        assert len(rows) == len(ALL_ATTACKS) == 11

    def test_improved_blocks_everything(self):
        rows = run_attack_matrix()
        assert all(not row.itgm.succeeded for row in rows)

    def test_legacy_falls_to_the_paper_attacks(self):
        rows = run_attack_matrix()
        by_name = {row.attack: row for row in rows}
        for name in ("forged-denial", "forged-removal", "rekey-replay"):
            assert by_name[name].legacy.succeeded

    def test_trusted_leader_falls_to_the_byzantine_attacks(self):
        rows = run_attack_matrix()
        by_name = {row.attack: row for row in rows}
        for name in ("quorum-forgery", "quorum-equivocation"):
            assert by_name[name].legacy.succeeded
            assert not by_name[name].itgm.succeeded

    def test_deterministic_across_seeds(self):
        for seed in (0, 1, 99):
            assert all(row.as_expected for row in run_attack_matrix(seed))

    def test_format_matrix(self):
        text = format_matrix(run_attack_matrix())
        assert "forged-denial" in text
        assert "SUCCEEDS" in text and "blocked" in text

    def test_results_stringify(self):
        row = run_attack_matrix()[0]
        assert "vs legacy" in str(row.legacy)
        assert "vs itgm" in str(row.itgm)
