"""Tests for the delay-modelled network and latency studies."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import run_latency_study
from repro.sim.netmodel import DelayedNetwork, ExponentialDelay, FixedDelay
from repro.wire.labels import Label
from repro.wire.message import Envelope


class Sink:
    def __init__(self):
        self.arrivals = []

    def handle(self, envelope):
        self.arrivals.append(envelope)
        return [], []


class TestDelayModels:
    def test_fixed(self):
        model = FixedDelay(0.5)
        env = Envelope(Label.APP_DATA, "a", "b", b"")
        assert model.sample(env) == 0.5

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedDelay(-1)

    def test_exponential_positive_and_seeded(self):
        m1 = ExponentialDelay(0.1, seed=3)
        m2 = ExponentialDelay(0.1, seed=3)
        env = Envelope(Label.APP_DATA, "a", "b", b"")
        s1 = [m1.sample(env) for _ in range(20)]
        s2 = [m2.sample(env) for _ in range(20)]
        assert s1 == s2
        assert all(s > 0 for s in s1)
        # Mean in the right ballpark.
        assert 0.02 < sum(s1) / len(s1) < 0.5

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            ExponentialDelay(0)


class TestDelayedNetwork:
    def test_frames_arrive_after_delay(self):
        sim = Simulator()
        net = DelayedNetwork(sim, FixedDelay(1.5))
        sink = Sink()
        net.register("b", sink.handle)
        net.post(Envelope(Label.APP_DATA, "a", "b", b"x"))
        assert sink.arrivals == []
        sim.run()
        assert len(sink.arrivals) == 1
        assert sim.now == 1.5

    def test_unknown_recipient_dropped(self):
        sim = Simulator()
        net = DelayedNetwork(sim, FixedDelay(0.1))
        net.post(Envelope(Label.APP_DATA, "a", "ghost", b""))
        sim.run()
        assert net.dropped == 1

    def test_responses_also_delayed(self):
        class Echo:
            def handle(self, envelope):
                return [Envelope(Label.APP_DATA, envelope.recipient,
                                 envelope.sender, envelope.body)], []

        sim = Simulator()
        net = DelayedNetwork(sim, FixedDelay(1.0))
        sink = Sink()
        net.register("b", Echo().handle)
        net.register("a", sink.handle)
        net.post(Envelope(Label.APP_DATA, "a", "b", b""))
        sim.run()
        assert sim.now == 2.0  # one delay out, one back
        assert len(sink.arrivals) == 1

    def test_wire_log_timestamps(self):
        sim = Simulator()
        net = DelayedNetwork(sim, FixedDelay(0.2))
        net.register("b", Sink().handle)
        sim.at(3.0, lambda: net.post(Envelope(Label.APP_DATA, "a", "b", b"")))
        sim.run()
        assert net.wire_log[0][0] == 3.0


class TestLatencyStudy:
    def test_hop_counts_match_protocol_diagram(self):
        """With a fixed one-way delay d: join→connected = 2d,
        join→group-key = 4d, admin delivery = 1d.

        4d, not the 6d of one AdminMsg per payload: the membership view
        and the group key are both queued when the AuthAckKey lands, so
        they leave as one batched X right behind the 3-hop handshake."""
        d = 0.1
        report = run_latency_study(n_members=3, delay_model=FixedDelay(d),
                                   n_admin_rounds=2)
        assert all(abs(s - 2 * d) < 1e-9
                   for s in report.join_to_connected.samples)
        assert all(abs(s - 4 * d) < 1e-9
                   for s in report.join_to_group_key.samples)
        assert all(abs(s - 1 * d) < 1e-9
                   for s in report.admin_round_trip.samples)

    def test_latency_scales_linearly_with_delay(self):
        slow = run_latency_study(n_members=2, delay_model=FixedDelay(0.2),
                                 n_admin_rounds=1)
        fast = run_latency_study(n_members=2, delay_model=FixedDelay(0.05),
                                 n_admin_rounds=1)
        ratio = slow.join_to_group_key.mean / fast.join_to_group_key.mean
        assert abs(ratio - 4.0) < 0.01

    def test_exponential_delays_still_converge(self):
        report = run_latency_study(
            n_members=3, delay_model=ExponentialDelay(0.05, seed=2),
            n_admin_rounds=2,
        )
        assert len(report.join_to_group_key) == 3
        assert report.join_to_group_key.mean > 0
