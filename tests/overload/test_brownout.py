"""Tests for the hysteretic brownout controller."""

from repro.overload.admission import PriorityClass
from repro.overload.brownout import BrownoutController
from repro.telemetry.events import BrownoutEntered, BrownoutExited, EventBus


def make(bus=None):
    """A controller on the fixed thresholds: enter at 0.8, exit after
    1 s at or below 0.3, one coalesced rekey flush per 2 s."""
    return BrownoutController("leader", telemetry=bus)


class TestBrownoutController:
    def test_enters_at_threshold(self):
        ctrl = make()
        ctrl.observe(0.5, 0.0)
        assert not ctrl.active
        ctrl.observe(0.85, 1.0)
        assert ctrl.active
        assert ctrl.episodes == 1

    def test_exit_requires_dwell_below_threshold(self):
        ctrl = make()
        ctrl.observe(0.9, 0.0)
        ctrl.observe(0.2, 1.0)   # calm starts
        assert ctrl.active       # dwell not yet served
        ctrl.observe(0.2, 1.5)
        assert ctrl.active
        ctrl.observe(0.2, 2.0)   # 1.0s of calm
        assert not ctrl.active

    def test_spike_during_dwell_resets_the_clock(self):
        ctrl = make()
        ctrl.observe(0.9, 0.0)
        ctrl.observe(0.2, 1.0)
        ctrl.observe(0.5, 1.5)   # above exit threshold: reset
        ctrl.observe(0.2, 2.0)
        assert ctrl.active       # calm only since 2.0
        ctrl.observe(0.2, 3.0)
        assert not ctrl.active

    def test_flags_follow_activity(self):
        ctrl = make()
        assert ctrl.shed_classes == frozenset()
        ctrl.observe(0.9, 0.0)
        assert ctrl.shed_classes == frozenset({PriorityClass.APP})

    def test_rekey_passthrough_outside_brownout(self):
        ctrl = make()
        assert ctrl.note_rekey_wanted(0.0)
        assert ctrl.coalesced_rekeys == 0

    def test_rekey_coalescing_inside_brownout(self):
        ctrl = make()
        ctrl.observe(0.9, 0.0)
        # The interval starts at entry: requests inside it coalesce.
        assert not ctrl.note_rekey_wanted(0.5)
        assert not ctrl.note_rekey_wanted(1.0)
        assert ctrl.coalesced_rekeys == 2
        # First caller past the interval gets the flush.
        assert ctrl.note_rekey_wanted(2.5)
        assert not ctrl.note_rekey_wanted(2.6)

    def test_flush_pending_rekey_on_exit(self):
        ctrl = make()
        ctrl.observe(0.9, 0.0)
        ctrl.note_rekey_wanted(1.0)  # coalesced, still owed
        ctrl.observe(0.1, 2.0)
        ctrl.observe(0.1, 3.0)
        assert not ctrl.active
        assert ctrl.flush_pending_rekey()
        assert not ctrl.flush_pending_rekey()  # one-shot

    def test_telemetry_carries_coalescing_evidence(self):
        bus = EventBus()
        watched = (BrownoutEntered, BrownoutExited)
        seen = []
        bus.subscribe(
            lambda r: seen.append(r.event) if isinstance(r.event, watched)
            else None
        )
        ctrl = make(bus)
        ctrl.observe(0.95, 0.0)
        ctrl.note_rekey_wanted(0.5)
        ctrl.observe(0.1, 1.0)
        ctrl.observe(0.1, 2.0)
        entered, exited = seen
        assert entered.saturation == 0.95
        assert exited.coalesced_rekeys == 1
