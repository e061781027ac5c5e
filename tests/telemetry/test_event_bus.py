"""Tests for the event bus and the event taxonomy."""

import re
from pathlib import Path

import pytest

from repro.telemetry.events import (
    DEFAULT_BUS,
    EVENT_TYPES,
    EventBus,
    FrameRejected,
    IntegrityRejected,
    JoinStarted,
    RekeyInstalled,
    ReplayRejected,
    classify_rejection,
    frame_id,
    rejection_event,
    resolve_bus,
)
from repro.util.clock import TickClock
from repro.wire.labels import Label
from repro.wire.message import Envelope


def envelope(body=b"payload"):
    return Envelope(Label.ADMIN_MSG, "leader", "alice", body)


class TestFrameId:
    def test_deterministic(self):
        assert frame_id(envelope()) == frame_id(envelope())

    def test_twelve_hex_digits(self):
        fid = frame_id(envelope())
        assert len(fid) == 12
        int(fid, 16)

    def test_distinct_bodies_distinct_ids(self):
        assert frame_id(envelope(b"a")) != frame_id(envelope(b"b"))


class TestEventBus:
    def test_falsy_without_subscribers(self):
        bus = EventBus()
        assert not bus

    def test_truthy_with_subscriber(self):
        bus = EventBus()
        bus.subscribe(lambda r: None)
        assert bus

    def test_emit_without_subscribers_is_noop(self):
        bus = EventBus(clock=TickClock())
        bus.emit(JoinStarted("alice", "leader"))
        with bus.capture() as records:
            bus.emit(JoinStarted("alice", "leader"))
        # The unobserved emit did not consume a sequence number.
        assert records[0].seq == 1

    def test_sequence_strictly_increases(self):
        bus = EventBus(clock=TickClock())
        with bus.capture() as records:
            for _ in range(3):
                bus.emit(JoinStarted("alice", "leader"))
        assert [r.seq for r in records] == [1, 2, 3]

    def test_timestamps_from_injected_clock(self):
        bus = EventBus(clock=TickClock(step=2.0))
        with bus.capture() as records:
            bus.emit(JoinStarted("alice", "leader"))
            bus.emit(JoinStarted("bob", "leader"))
        assert [r.ts for r in records] == [0.0, 2.0]

    def test_set_clock_swaps_timestamp_source(self):
        bus = EventBus()
        bus.set_clock(TickClock(start=100.0))
        with bus.capture() as records:
            bus.emit(JoinStarted("alice", "leader"))
        assert records[0].ts == 100.0

    def test_capture_unsubscribes_on_exit(self):
        bus = EventBus()
        with bus.capture():
            assert bus
        assert not bus

    def test_unsubscribe_unknown_is_noop(self):
        EventBus().unsubscribe(lambda r: None)

    def test_fan_out_to_all_subscribers(self):
        bus = EventBus(clock=TickClock())
        seen_a, seen_b = [], []
        bus.subscribe(seen_a.append)
        bus.subscribe(seen_b.append)
        bus.emit(JoinStarted("alice", "leader"))
        assert len(seen_a) == len(seen_b) == 1
        assert seen_a[0] is seen_b[0]

    def test_resolve_bus_defaults(self):
        assert resolve_bus(None) is DEFAULT_BUS
        bus = EventBus()
        assert resolve_bus(bus) is bus


class TestRecord:
    def test_as_dict_flattens_event(self):
        bus = EventBus(clock=TickClock())
        with bus.capture() as records:
            bus.emit(RekeyInstalled("alice", "leader", 3, "cafe"))
        payload = records[0].as_dict()
        assert payload == {
            "ts": 0.0, "seq": 1, "event": "RekeyInstalled",
            "node": "alice", "leader": "leader", "epoch": 3,
            "fingerprint": "cafe", "caused_by": "",
        }


class TestClassification:
    @pytest.mark.parametrize("reason,expected", [
        ("AdminMsg replay (stale nonce)", "replay"),
        ("stale nonce", "replay"),
        ("AuthAckKey failed authentication", "integrity"),
        ("identity mismatch in AuthInitReq", "integrity"),
        ("malformed AuthKeyDist", "integrity"),
        ("undecodable body", "integrity"),
        ("group-key check failed", "integrity"),
        ("unexpected label in CONNECTED", "state"),
    ])
    def test_classify(self, reason, expected):
        assert classify_rejection(reason) == expected

    def test_rejection_event_types(self):
        env = envelope()
        assert isinstance(
            rejection_event("n", "replay detected", Label.ADMIN_MSG, env),
            ReplayRejected,
        )
        assert isinstance(
            rejection_event("n", "failed authentication",
                            Label.ADMIN_MSG, env),
            IntegrityRejected,
        )
        assert isinstance(
            rejection_event("n", "wrong state", Label.ADMIN_MSG, env),
            FrameRejected,
        )

    def test_rejection_event_carries_frame_id(self):
        env = envelope()
        event = rejection_event("n", "replay", Label.ADMIN_MSG, env)
        assert event.frame == frame_id(env)
        assert event.label == "ADMIN_MSG"


class TestTaxonomy:
    def test_registered_types_are_dataclasses(self):
        from dataclasses import is_dataclass

        assert len(EVENT_TYPES) >= 20
        for name, cls in EVENT_TYPES.items():
            assert is_dataclass(cls), name
            assert cls.__name__ == name

    def test_every_type_is_in_the_documented_taxonomy(self):
        """And every documented name is a registered type: a row left
        behind by a deleted event fails as surely as a missing one."""
        doc = (Path(__file__).resolve().parents[2] / "docs"
               / "observability.md").read_text(encoding="utf-8")
        section = doc.split("## The event taxonomy", 1)[1]
        rows = [line for line in section.split("\n\n", 2)[1].splitlines()
                if line.startswith("|")]
        documented = {name for row in rows
                      for name in re.findall(r"`(\w+)`", row)}
        assert sorted(set(EVENT_TYPES) - documented) == []
        assert sorted(documented - set(EVENT_TYPES)) == []
