"""Tests for the live invariant probe."""

from repro.observability.slo import SLOEvaluator
from repro.telemetry.events import EventBus, JoinCompleted, RekeyInstalled
from repro.telemetry.health import HealthProbe
from repro.util.clock import TickClock


def probe_on_bus():
    bus = EventBus(clock=TickClock())
    probe = HealthProbe().subscribe_to(bus)
    return bus, probe


class TestEpochMonotonicity:
    def test_increasing_epochs_are_healthy(self):
        bus, probe = probe_on_bus()
        for epoch in (1, 2, 3):
            bus.emit(RekeyInstalled("alice", "mgr-0", epoch, f"fp{epoch}"))
        assert not probe.violations
        assert probe.checked == 3

    def test_duplicate_epoch_flagged(self):
        bus, probe = probe_on_bus()
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "fp2"))
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "fp2"))
        assert probe.violations
        assert "duplicate group-key epoch 2" in probe.violations[0]

    def test_stale_epoch_flagged(self):
        bus, probe = probe_on_bus()
        bus.emit(RekeyInstalled("alice", "mgr-0", 3, "fp3"))
        bus.emit(RekeyInstalled("alice", "mgr-0", 1, "fp1"))
        assert probe.violations
        assert "stale group-key epoch 1" in probe.violations[0]

    def test_rejoin_resets_the_session(self):
        # After a rejoin the member legitimately re-installs the current
        # epoch; a JoinCompleted bumps the session generation so that is
        # not a false positive.
        bus, probe = probe_on_bus()
        bus.emit(JoinCompleted("alice", "mgr-0"))
        bus.emit(RekeyInstalled("alice", "mgr-0", 4, "fp4"))
        bus.emit(JoinCompleted("alice", "mgr-0"))
        bus.emit(RekeyInstalled("alice", "mgr-0", 4, "fp4"))
        assert not probe.violations

    def test_members_tracked_independently(self):
        bus, probe = probe_on_bus()
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "fp2"))
        bus.emit(RekeyInstalled("bob", "mgr-0", 2, "fp2"))
        assert not probe.violations


class TestFingerprintAgreement:
    def test_agreement_is_healthy(self):
        bus, probe = probe_on_bus()
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "fp2"))
        bus.emit(RekeyInstalled("bob", "mgr-0", 2, "fp2"))
        assert not probe.violations

    def test_disagreement_flagged(self):
        bus, probe = probe_on_bus()
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "aaaaaaaa1"))
        bus.emit(RekeyInstalled("bob", "mgr-0", 2, "bbbbbbbb2"))
        assert probe.violations
        assert "fingerprint disagreement" in probe.violations[0]

    def test_violation_carries_event_trail(self):
        bus, probe = probe_on_bus()
        bus.emit(JoinCompleted("alice", "mgr-0"))
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "fp2"))
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "fp2"))
        violation = probe.violations[0]
        assert "trail:" in violation
        assert "JoinCompleted" in violation
        assert "RekeyInstalled" in violation


class TestRekeyPropagation:
    """The probe checks invariants only; rekey propagation has one
    meter, :class:`SLOEvaluator` (tests/observability/test_slo.py)."""

    def test_install_without_issue_records_nothing(self):
        bus, probe = probe_on_bus()
        evaluator = bus.subscribe(SLOEvaluator())
        bus.emit(RekeyInstalled("alice", "mgr-0", 2, "fp"))
        assert not probe.violations and probe.checked == 1
        (rekey,) = [r for r in evaluator.report()
                    if r.spec.indicator == "rekey_propagation"]
        assert (rekey.good, rekey.bad) == (0, 0)
