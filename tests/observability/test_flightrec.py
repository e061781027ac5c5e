"""Tests for the crash flight recorder and its JSONL bundles."""

import pytest

from repro.observability.flightrec import (
    CAPACITY,
    TRIGGERS,
    FlightRecorder,
    bundle_to_jsonl,
    load_bundle,
    render_bundle,
    write_bundle,
)
from repro.telemetry.events import (
    CertificateVerified,
    EquivocationDetected,
    EventBus,
    JoinStarted,
    ProbeViolation,
    RekeyInstalled,
)
from repro.util.clock import TickClock


def recorder_on_bus():
    bus = EventBus(clock=TickClock())
    recorder = FlightRecorder()
    bus.subscribe(recorder)
    return bus, recorder


class TestRing:
    def test_ring_is_bounded(self):
        bus, recorder = recorder_on_bus()
        for i in range(CAPACITY + 10):
            bus.emit(JoinStarted(f"u{i}", "g"))
        assert len(recorder) == CAPACITY
        assert not recorder.bundles

    def test_default_triggers(self):
        assert TRIGGERS == {
            "RecoveryGaveUp", "EquivocationDetected", "ProbeViolation",
        }


class TestCapture:
    def test_trigger_captures_ring_and_trace(self):
        bus, recorder = recorder_on_bus()
        bus.emit(RekeyInstalled("a", "g", 3, "cafe"))
        bus.emit(ProbeViolation("stale epoch"))
        assert recorder.bundles
        bundle = recorder.bundles[0]
        assert bundle["trigger"]["event"] == "ProbeViolation"
        assert [p["event"] for p in bundle["ring"]] == [
            "RekeyInstalled", "ProbeViolation",
        ]
        # The probe fires off the record it was checking: the trace
        # walks back to it through the probe edge.
        assert [e["event"] for e in bundle["trace"]] == [
            "RekeyInstalled", "ProbeViolation",
        ]
        assert bundle["trace"][1]["parents"] == [[1, "probe"]]
        assert bundle["trace"][0]["parents"] == []

    def test_capture_keeps_recording(self):
        bus, recorder = recorder_on_bus()
        bus.emit(ProbeViolation("first"))
        bus.emit(JoinStarted("a", "g"))
        bus.emit(ProbeViolation("second"))
        assert len(recorder.bundles) == 2
        assert len(recorder.bundles[1]["ring"]) == 3

    def test_equivocation_trace_reaches_the_accepted_mutation(self):
        bus, recorder = recorder_on_bus()
        bus.emit(CertificateVerified("m1", "sess", 3, 2))
        bus.emit(EquivocationDetected("m2", "sess", "replica-0", 3, "be"))
        trace = recorder.bundles[0]["trace"]
        assert [e["event"] for e in trace] == [
            "CertificateVerified", "EquivocationDetected",
        ]
        assert [1, "conflict"] in trace[1]["parents"]


class TestBundleFormat:
    def bundle(self):
        bus, recorder = recorder_on_bus()
        bus.emit(RekeyInstalled("a", "g", 3, "cafe"))
        bus.emit(ProbeViolation("stale epoch"))
        return recorder.bundles[0]

    def test_jsonl_is_deterministic(self):
        text = bundle_to_jsonl(self.bundle())
        assert text == bundle_to_jsonl(self.bundle())
        kinds = [line.split('"record": "')[1].split('"')[0]
                 for line in text.strip().splitlines()]
        assert kinds[0] == "trigger"
        assert set(kinds) == {"trigger", "ring", "trace"}

    def test_write_load_round_trip(self, tmp_path):
        bundle = self.bundle()
        path = tmp_path / "bundle.jsonl"
        write_bundle(bundle, path)
        loaded = load_bundle(str(path))
        assert loaded["trigger"] == bundle["trigger"]
        assert loaded["ring"] == bundle["ring"]
        # The loaded trace's parents come back as lists (JSON has no
        # tuples); the capture already stores them that way.
        assert loaded["trace"] == bundle["trace"]

    def test_load_rejects_unknown_record_kind(self):
        with pytest.raises(ValueError, match="unknown bundle record"):
            load_bundle(['{"record": "bogus", "x": 1}'])

    def test_load_rejects_missing_trigger(self):
        with pytest.raises(ValueError, match="no trigger"):
            load_bundle(['{"record": "ring", "seq": 1, "ts": 0.0, '
                         '"event": "JoinStarted"}'])

    def test_render_bundle_is_a_forensic_story(self):
        text = render_bundle(self.bundle())
        assert text.startswith("flight recorder: ProbeViolation")
        assert "ring: 2 events captured" in text
        assert "(root)" in text
        assert "1:probe" in text
