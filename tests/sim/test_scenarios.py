"""Tests for the churn scenario runner."""

import pytest

from repro.enclaves.common import RekeyPolicy
from repro.sim.scenarios import ChurnScenario, run_churn


def scenario(**kwargs):
    defaults = dict(n_users=5, duration=40.0, join_rate=0.5,
                    mean_session=15.0, message_rate=1.0, seed=11)
    defaults.update(kwargs)
    return ChurnScenario(**defaults)


class TestChurn:
    def test_runs_and_is_consistent(self):
        report = run_churn(scenario())
        assert report.views_consistent
        assert report.joins > 0

    def test_deterministic(self):
        r1 = run_churn(scenario())
        r2 = run_churn(scenario())
        assert r1.joins == r2.joins
        assert r1.leaves == r2.leaves
        assert r1.rekeys == r2.rekeys
        assert r1.final_members == r2.final_members

    def test_seed_changes_outcome(self):
        r1 = run_churn(scenario(seed=1))
        r2 = run_churn(scenario(seed=2))
        assert (r1.joins, r1.relayed) != (r2.joins, r2.relayed)

    def test_membership_policy_rekeys_more_than_manual(self):
        churn_policy = run_churn(
            scenario(rekey_policy=RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE)
        )
        manual = run_churn(scenario(rekey_policy=RekeyPolicy.MANUAL))
        assert churn_policy.rekeys > manual.rekeys
        assert manual.rekeys == 1  # only the initial group key

    def test_periodic_policy_rekeys(self):
        report = run_churn(
            scenario(rekey_policy=RekeyPolicy.PERIODIC, rekey_interval=5.0,
                     duration=60.0)
        )
        assert report.rekeys >= 2
        assert report.views_consistent

    def test_joins_leaves_balance(self):
        report = run_churn(scenario(duration=60.0))
        # Everyone who left had joined; the remainder are still members.
        assert report.leaves <= report.joins
        assert len(report.final_members) <= 5

    def test_summary_readable(self):
        text = run_churn(scenario()).summary()
        assert "joins=" in text and "rekeys=" in text

    def test_raising_action_fails_the_run(self, monkeypatch):
        """A workload action that raises propagates out of run_churn —
        it must not vanish into the event loop's exception handler."""
        from repro.enclaves.itgm.leader import GroupLeader

        def boom(self):
            raise RuntimeError("tick exploded")

        monkeypatch.setattr(GroupLeader, "tick", boom)
        with pytest.raises(RuntimeError, match="tick exploded"):
            run_churn(scenario(rekey_policy=RekeyPolicy.PERIODIC))
