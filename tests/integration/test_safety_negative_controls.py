"""Negative controls: the soaks' §5.4 safety verdict is able to fail.

Every soak reports "safe" through one probe,
:func:`repro.enclaves.modelcheck.session_violations`.  A verdict that
has only ever been seen green proves nothing, so here the probe is fed
the three logs it exists to catch (and a clean one), and each caller —
the chaos sampler, the data-plane verdict phase, the crash sweep's
epilogue — has one member's ``admin_log`` tampered under it and must
turn its report unsafe.
"""

from repro.chaos import SoakConfig, run_soak
from repro.chaos import soak as chaos_soak
from repro.crypto.keys import KEY_LEN, GroupKey
from repro.dataplane import soak as data_soak
from repro.dataplane.soak import DataSoakConfig, DataSoakReport
from repro.enclaves.itgm.admin import NewGroupKeyPayload, TextPayload
from repro.enclaves.modelcheck import session_violations
from repro.storage import sweep
from repro.storage.sweep import SweepConfig, run_crash_sweep
from repro.telemetry.events import EventBus

PREFIX = "admin-log prefix violated"
DUPLICATE = "duplicate group-key epoch accepted"


def key(epoch: int) -> NewGroupKeyPayload:
    return NewGroupKeyPayload(GroupKey(bytes([epoch]) * KEY_LEN), epoch)


class TestProbe:
    def test_clean_session_reports_nothing(self):
        sent = [key(1), TextPayload("a"), key(2), TextPayload("b")]
        assert session_violations(sent[:3], sent) == []
        assert session_violations([], sent) == []

    def test_fork_from_the_send_log_is_a_prefix_violation(self):
        sent = [key(1), TextPayload("a"), TextPayload("b")]
        forked = [key(1), TextPayload("b")]
        assert session_violations(forked, sent) == [PREFIX]
        # Accepting more than was ever sent is a fork too.
        assert session_violations(sent + [TextPayload("c")], sent) == [PREFIX]

    def test_same_epoch_accepted_twice_is_a_duplicate(self):
        # The leader log carries the replay too, so the prefix holds and
        # only the epoch check can object.
        log = [key(1), key(2), key(2)]
        assert session_violations(log, log) == [DUPLICATE]

    def test_older_epoch_after_a_newer_one_is_stale(self):
        log = [key(2), TextPayload("a"), key(1)]
        assert session_violations(log, log) == [
            "stale group key accepted (epochs [2, 1])"
        ]


def tampering_probe(monkeypatch, module):
    """Make ``module``'s probe drop the first entry of the first
    non-trivial member log it is shown — in place, so it is the
    member's own ``admin_log`` that forks — then judge it for real."""
    tampered = []

    def probe(member_log, leader_log):
        if not tampered and len(member_log) > 1:
            del member_log[0]
            tampered.append(True)
        return session_violations(member_log, leader_log)

    monkeypatch.setattr(module, "session_violations", probe)
    return tampered


class TestCallersTurnUnsafe:
    def test_chaos_sampler(self, monkeypatch):
        config = SoakConfig(
            seed=5, n_members=3, duration=6.0,
            loss_window=None, delay_window=None, bursty_window=None,
            partition_window=None, crash_warm_at=None, restore_at=None,
            crash_failover_at=None, rekey_interval=3.0,
        )
        assert run_soak(config).safe
        tampered = tampering_probe(monkeypatch, chaos_soak)
        report = run_soak(config)
        assert tampered
        assert not report.safe
        assert any(v.endswith(PREFIX) for v in report.violations)

    def test_data_plane_verdicts(self):
        config = DataSoakConfig(
            seed=3, rounds=20, leave_round=8, rekey_round=14, drain_rounds=6,
        )
        assert data_soak.run_data_soak(config).safe
        report = DataSoakReport(config=config)
        state = data_soak._run_traffic(config, report, EventBus())
        del state.members["user-0"].member.admin_log[0]
        data_soak._verdicts(config, report, state)
        assert not report.safe
        assert report.violations == [f"user-0: {PREFIX}"]

    def test_crash_sweep_epilogue(self, monkeypatch):
        config = SweepConfig(seed=7, stride=9, modes=("failstop",))
        assert run_crash_sweep(config).ok
        tampered = tampering_probe(monkeypatch, sweep)
        report = run_crash_sweep(config)
        assert tampered
        assert not report.ok
        assert any(f.endswith(PREFIX) for f in report.failures)
        assert "FAIL" in report.format_table()
