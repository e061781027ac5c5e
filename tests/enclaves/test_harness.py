"""Tests for the synchronous message pump."""

import pytest

from repro.enclaves.harness import SyncNetwork
from repro.wire.labels import Label
from repro.wire.message import Envelope


def env(recipient="b", body=b"x"):
    return Envelope(Label.APP_DATA, "a", recipient, body)


class Echo:
    """Test core: echoes every envelope back to its sender."""

    def __init__(self):
        self.seen = []

    def handle(self, envelope):
        self.seen.append(envelope)
        return [Envelope(Label.APP_DATA, envelope.recipient,
                         envelope.sender, envelope.body)], []


class Sink:
    def __init__(self):
        self.seen = []

    def handle(self, envelope):
        self.seen.append(envelope)
        return [], []


class TestSyncNetwork:
    def test_delivery(self):
        net = SyncNetwork()
        sink = Sink()
        net.register("b", sink.handle)
        net.post(env())
        assert net.run() == 1
        assert len(sink.seen) == 1

    def test_cascading_delivery(self):
        net = SyncNetwork()
        echo, sink = Echo(), Sink()
        net.register("b", echo.handle)
        net.register("a", sink.handle)
        net.post(env())
        net.run()
        # a's outbound echoed back by b.
        assert len(sink.seen) == 1
        assert sink.seen[0].recipient == "a"

    def test_unknown_recipient_dropped(self):
        net = SyncNetwork()
        net.post(env(recipient="ghost"))
        net.run()
        assert net.dropped == 1

    def test_wire_log_records_everything(self):
        net = SyncNetwork()
        net.register("b", Sink().handle)
        net.post(env(body=b"1"))
        net.post(env(body=b"2"))
        net.run()
        assert [e.body for e in net.wire_log] == [b"1", b"2"]

    def test_interceptor_drop(self):
        net = SyncNetwork()
        sink = Sink()
        net.register("b", sink.handle)
        net.set_interceptor(lambda e: [])
        net.post(env())
        net.run()
        assert sink.seen == []

    def test_interceptor_duplicate(self):
        net = SyncNetwork()
        sink = Sink()
        net.register("b", sink.handle)
        net.set_interceptor(lambda e: [e, e])
        net.post(env())
        net.run()
        assert len(sink.seen) == 2

    def test_interceptor_passthrough(self):
        net = SyncNetwork()
        sink = Sink()
        net.register("b", sink.handle)
        net.set_interceptor(lambda e: None)
        net.post(env())
        net.run()
        assert len(sink.seen) == 1

    def test_inject_bypasses_interceptor(self):
        net = SyncNetwork()
        sink = Sink()
        net.register("b", sink.handle)
        net.set_interceptor(lambda e: [])
        net.inject(env())
        net.run()
        assert len(sink.seen) == 1

    def test_run_budget(self):
        net = SyncNetwork()

        class Loop:
            def handle(self, envelope):
                return [envelope], []  # resend to self forever

        net.register("b", Loop().handle)
        net.post(env())
        with pytest.raises(RuntimeError):
            net.run(max_steps=100)

    def test_events_collected_per_address(self):
        net = SyncNetwork()

        class Emitter:
            def handle(self, envelope):
                return [], ["event-1", "event-2"]

        net.register("b", Emitter().handle)
        net.post(env())
        net.run()
        assert net.events_of("b") == ["event-1", "event-2"]
