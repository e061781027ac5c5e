"""Tests for the composable fault policies and FaultPlan."""

import pytest

from repro.net.adversary import FrameAction, ObservedFrame
from repro.net.faults import (
    DelayReorderPolicy,
    FaultPlan,
    GilbertElliottPolicy,
    LeaderEventKind,
    PartitionPolicy,
)
from repro.net.lossy import LossyPolicy
from repro.wire.labels import Label
from repro.wire.message import Envelope


def frame(sender="a", recipient="b", sequence=1):
    return ObservedFrame(
        sender, Envelope(Label.APP_DATA, sender, recipient, b""), sequence
    )


class TestPartitionPolicy:
    def test_within_component_delivers(self):
        policy = PartitionPolicy([{"a", "b"}, {"c"}])
        assert policy(frame("a", "b")).action is FrameAction.DELIVER

    def test_across_components_drops(self):
        policy = PartitionPolicy([{"a", "b"}, {"c"}])
        assert policy(frame("a", "c")).action is FrameAction.DROP
        assert policy(frame("c", "b")).action is FrameAction.DROP
        assert policy.severed == 2

    def test_unlisted_addresses_unaffected_among_themselves(self):
        policy = PartitionPolicy([{"a"}, {"b"}])
        assert policy(frame("x", "y")).action is FrameAction.DELIVER
        # One end inside a component, the other outside: severed.
        assert policy(frame("a", "y")).action is FrameAction.DROP

    def test_components_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PartitionPolicy([{"a", "b"}, {"b", "c"}])


class TestDelayReorderPolicy:
    def test_holds_within_bounds(self):
        policy = DelayReorderPolicy(min_hold=0.1, max_hold=0.2, seed=3)
        for i in range(50):
            verdict = policy(frame(sequence=i))
            assert verdict.action is FrameAction.DELAY
            assert 0.1 <= verdict.hold <= 0.2
        assert policy.delayed == 50

    def test_deterministic(self):
        p1 = DelayReorderPolicy(seed=5)
        p2 = DelayReorderPolicy(seed=5)
        holds1 = [p1(frame(sequence=i)).hold for i in range(20)]
        holds2 = [p2(frame(sequence=i)).hold for i in range(20)]
        assert holds1 == holds2

    def test_partial_delay_rate(self):
        policy = DelayReorderPolicy(delay_rate=0.5, seed=1)
        actions = {policy(frame(sequence=i)).action for i in range(50)}
        assert actions == {FrameAction.DELAY, FrameAction.DELIVER}

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            DelayReorderPolicy(min_hold=0.5, max_hold=0.1)


class TestGilbertElliott:
    def test_bursts_happen_and_are_deterministic(self):
        p1 = GilbertElliottPolicy(seed=9)
        p2 = GilbertElliottPolicy(seed=9)
        a1 = [p1(frame(sequence=i)).action for i in range(300)]
        a2 = [p2(frame(sequence=i)).action for i in range(300)]
        assert a1 == a2
        assert p1.dropped == p2.dropped > 0
        assert p1.bursts > 0

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            GilbertElliottPolicy(loss_bad=1.5)


class TestLossyPolicyValidation:
    def test_sum_of_rates_validated(self):
        with pytest.raises(ValueError):
            LossyPolicy(drop_rate=0.6, duplicate_rate=0.6)
        # Exactly 1.0 is a legal (if brutal) configuration.
        LossyPolicy(drop_rate=0.5, duplicate_rate=0.5)


class TestFaultPlan:
    def test_windows_activate_on_schedule(self):
        plan = FaultPlan(seed=1).partition(1.0, 2.0, [{"a"}, {"b"}])
        now = 0.0
        policy = plan.as_policy(lambda: now)
        assert policy(frame()).action is FrameAction.DELIVER
        now = 1.5
        assert policy(frame()).action is FrameAction.DROP
        now = 2.5
        assert policy(frame()).action is FrameAction.DELIVER

    def test_overlapping_windows_compose(self):
        plan = (
            FaultPlan(seed=1)
            .delay(0.0, 10.0, delay_rate=1.0)
            .loss(0.0, 10.0, drop_rate=0.5)
        )
        policy = plan.as_policy(lambda: 5.0)
        # Insertion order: the delay window verdicts first.
        assert policy(frame()).action is FrameAction.DELAY

    def test_leader_events_validated(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.crash_warm(5.0, 4.0)  # restore before crash
        plan.crash_warm(5.0, 6.0).crash_failover(8.0)
        kinds = [event.kind for event in plan.leader_events]
        assert kinds == [
            LeaderEventKind.CRASH_WARM,
            LeaderEventKind.RESTORE,
            LeaderEventKind.CRASH_FAILOVER,
        ]

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultPlan().loss(5.0, 5.0)

    def test_per_window_seeds_differ_but_are_stable(self):
        p1 = FaultPlan(seed=4).loss(0, 1).loss(1, 2)
        p2 = FaultPlan(seed=4).loss(0, 1).loss(1, 2)
        f = frame()
        now = 0.5
        policy1 = p1.as_policy(lambda: now)
        policy2 = p2.as_policy(lambda: now)
        assert [policy1(frame(sequence=i)).action for i in range(30)] == \
            [policy2(frame(sequence=i)).action for i in range(30)]
