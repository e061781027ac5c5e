"""Tests for the delay models on the memory network and the latency studies."""

import asyncio

import pytest

from repro.chaos.loop import LoopClock, run_virtual
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.net.adversary import Adversary
from repro.net.memnet import MemoryNetwork
from repro.sim.latency import run_latency_study
from repro.sim.netmodel import ExponentialDelay, FixedDelay
from repro.telemetry.events import EventBus, FrameDelayed
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


async def delayed_network(model, cores, telemetry=None):
    """A MemoryNetwork whose adversary holds every frame for
    ``model``'s delay, with one LeaderRuntime per core."""
    net = MemoryNetwork(telemetry=telemetry)
    adversary = Adversary()
    adversary.set_policy(model)
    net.attach_adversary(adversary)
    for address, core in cores.items():
        LeaderRuntime(core, await net.attach(address)).start()
    return net, await net.attach("probe")


class TestDelayedNetwork:
    def test_frames_arrive_after_delay(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sink = Sink()
            _, probe = await delayed_network(FixedDelay(1.5), {"b": sink})
            await probe.send(Envelope(Label.APP_DATA, "a", "b", b"x"))
            await asyncio.sleep(1.0)
            assert sink.arrivals == []
            await asyncio.sleep(1.0)
            return sink.arrivals, loop.time()

        arrivals, now = run_virtual(scenario())
        assert len(arrivals) == 1
        assert now == 2.0

    def test_unknown_recipient_dropped(self):
        async def scenario():
            sink = Sink()
            net, probe = await delayed_network(FixedDelay(0.1), {"b": sink})
            await probe.send(Envelope(Label.APP_DATA, "a", "ghost", b""))
            await asyncio.sleep(1.0)
            return net.frames_routed, sink.arrivals, probe.pending

        assert run_virtual(scenario()) == (1, [], 0)

    def test_responses_also_delayed(self):
        class Echo:
            def handle(self, envelope):
                return [Envelope(Label.APP_DATA, envelope.recipient,
                                 envelope.sender, envelope.body)], []

        class StampingSink(Sink):
            def handle(self, envelope):
                self.arrivals.append(asyncio.get_running_loop().time())
                return [], []

        async def scenario():
            sink = StampingSink()
            _, probe = await delayed_network(
                FixedDelay(1.0), {"b": Echo(), "a": sink}
            )
            await probe.send(Envelope(Label.APP_DATA, "a", "b", b""))
            await asyncio.sleep(5.0)
            return sink.arrivals

        assert run_virtual(scenario()) == [2.0]  # one delay out, one back

    def test_wire_log_timestamps(self):
        async def scenario():
            bus = EventBus(LoopClock(asyncio.get_running_loop()))
            with bus.capture() as records:
                _, probe = await delayed_network(
                    FixedDelay(0.2), {"b": Sink()}, telemetry=bus
                )
                await asyncio.sleep(3.0)
                await probe.send(Envelope(Label.APP_DATA, "a", "b", b""))
            return records

        (record,) = run_virtual(scenario())
        assert isinstance(record.event, FrameDelayed)
        assert (record.ts, record.event.hold) == (3.0, 0.2)


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

    def test_study_is_deterministic(self):
        runs = [
            run_latency_study(n_members=3,
                              delay_model=ExponentialDelay(0.02, seed=1),
                              n_admin_rounds=2)
            for _ in range(2)
        ]
        for recorder in ("join_to_connected", "join_to_group_key",
                         "admin_round_trip"):
            first, second = (getattr(r, recorder).samples for r in runs)
            assert first == second and first

    @pytest.mark.parametrize("d", [0.01, 0.05])
    def test_fig1_hop_counts(self, d):
        """FIG-1: join→K_a = 2d, join→operational = 4d, admin = 1d."""
        report = run_latency_study(n_members=4, delay_model=FixedDelay(d),
                                   n_admin_rounds=3)
        assert abs(report.join_to_connected.mean - 2 * d) < 1e-9
        assert abs(report.join_to_group_key.mean - 4 * d) < 1e-9
        assert abs(report.admin_round_trip.mean - d) < 1e-9
        assert (len(report.join_to_connected), len(report.join_to_group_key),
                len(report.admin_round_trip)) == (4, 4, 12)
