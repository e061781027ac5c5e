"""Tests for the bounded priority mailbox."""

import pytest

from repro.overload.admission import (
    FAIR_BURST,
    FairShareAdmission,
    PriorityClass,
)
from repro.overload.mailbox import (
    SHED_CAPACITY,
    SHED_FAIR_SHARE,
    BoundedMailbox,
)
from repro.telemetry.events import EventBus, FrameShed, QueueSaturated
from repro.wire.labels import Label
from repro.wire.message import Envelope


def app(sender="alice", n=0):
    return Envelope(Label.APP_DATA, sender, "leader", bytes([n % 256]))


def join(sender="bob"):
    return Envelope(Label.AUTH_INIT_REQ, sender, "leader", b"")


def control(sender="leader"):
    return Envelope(Label.ADMIN_MSG, sender, "alice", b"")


class TestBoundedMailbox:
    def test_capacity_shed(self):
        box = BoundedMailbox("leader", capacity=2)
        assert box.offer(app(n=0))
        assert box.offer(app(n=1))
        assert not box.offer(app(n=2))
        assert box.stats.shed_capacity == 1
        assert box.stats.shed_by_sender == {"alice": 1}

    def test_priority_order_on_take(self):
        box = BoundedMailbox("leader", capacity=8)
        box.offer(app())
        box.offer(join())
        box.offer(control())
        assert box.take().label is Label.ADMIN_MSG
        assert box.take().label is Label.AUTH_INIT_REQ
        assert box.take().label is Label.APP_DATA
        assert box.take() is None

    def test_fifo_within_class(self):
        box = BoundedMailbox("leader", capacity=8)
        box.offer(app(n=1))
        box.offer(app(n=2))
        assert box.take().body == b"\x01"
        assert box.take().body == b"\x02"

    def test_high_priority_evicts_newest_lowest(self):
        box = BoundedMailbox("leader", capacity=2)
        box.offer(app(n=1))
        box.offer(app(n=2))
        assert box.offer(join())  # evicts app #2, not app #1
        assert box.stats.evicted == 1
        assert box.take().label is Label.AUTH_INIT_REQ
        assert box.take().body == b"\x01"

    def test_low_priority_never_evicts_high(self):
        box = BoundedMailbox("leader", capacity=2)
        box.offer(join())
        box.offer(join())
        assert not box.offer(app())
        assert box.stats.evicted == 0

    def test_saturation_episode_latch_and_rearm(self):
        bus = EventBus()
        seen = []
        bus.subscribe(
            lambda r: seen.append(r.event)
            if isinstance(r.event, QueueSaturated) else None
        )
        box = BoundedMailbox("leader", capacity=4, telemetry=bus)
        for i in range(6):
            box.offer(app(n=i))
        assert box.stats.saturation_episodes == 1
        assert len(seen) == 1
        # Draining to half capacity re-arms the latch.
        box.take()
        box.take()
        for i in range(4):
            box.offer(app(n=i))
        assert box.stats.saturation_episodes == 2

    def test_fair_share_integration(self):
        box = BoundedMailbox(
            "leader", capacity=100, fair_share=FairShareAdmission()
        )
        for _ in range(int(FAIR_BURST)):
            assert box.offer(app("mallory"), now=0.0)
        assert not box.offer(app("mallory"), now=0.0)
        assert box.offer(app("alice"), now=0.0)
        assert box.stats.shed_fair_share == 1

    def test_shed_telemetry_reasons(self):
        bus = EventBus()
        seen = []
        bus.subscribe(
            lambda r: seen.append(r.event)
            if isinstance(r.event, FrameShed) else None
        )
        fair = FairShareAdmission()
        for _ in range(int(FAIR_BURST) - 1):  # leave "m" one token
            fair.admit("m", PriorityClass.APP, 0.0)
        box = BoundedMailbox(
            "leader", capacity=1, fair_share=fair, telemetry=bus
        )
        box.offer(app("m"), now=0.0)      # fills capacity
        box.offer(app("m"), now=0.0)      # fair-share dry
        box.offer(app("a"), now=0.0)      # capacity full
        assert [e.reason for e in seen] == [SHED_FAIR_SHARE, SHED_CAPACITY]

    def test_drain_budget(self):
        box = BoundedMailbox("leader", capacity=10)
        for i in range(5):
            box.offer(app(n=i))
        assert len(box.drain(3)) == 3
        assert box.depth == 2

    def test_drain_serves_all_four_classes_in_order(self):
        """Arrival order reversed, twice over: class order first, arrival
        order within a class — for ``drain`` exactly as for ``take``."""
        order = list(PriorityClass)
        assert [c.name for c in order] == [
            "CONTROL", "HEARTBEAT", "JOIN", "APP"]
        box = BoundedMailbox("leader", capacity=16)
        for n in (1, 2):
            for cls in reversed(order):
                box.offer(app(n=10 * cls + n), priority=cls)
        served = box.drain(16)
        assert [e.body[0] for e in served] == [1, 2, 11, 12, 21, 22, 31, 32]
        assert box.depth == 0 and box.take() is None

    def test_explicit_priority_overrides_classification(self):
        box = BoundedMailbox("leader", capacity=4)
        box.offer(app("leader"), priority=PriorityClass.HEARTBEAT)
        box.offer(join())
        assert box.take().sender == "leader"  # heartbeat before join

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoundedMailbox("leader", capacity=0)
