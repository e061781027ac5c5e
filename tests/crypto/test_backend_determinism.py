"""Cross-backend determinism: whole-system replays, compared as bytes.

The conformance suite (test_conformance.py) proves the primitives
byte-identical; these tests prove nothing *above* the primitives leaks
backend identity either.  One chaos-soak seed (management plane under
loss + crash/restore) and one dataplane-soak seed (ratcheted multicast
under loss/dup/reorder with a leave and a rekey) are replayed once per
backend with the full telemetry stream exported as JSONL, and the
exports are compared byte-for-byte — the JSONL equivalent of ``cmp``.

If a backend ever diverged — a different nonce draw, a frame rejected
on one backend and accepted on the other, a retransmit firing a round
late — the logs would differ and this fails with the first differing
line, which names the event.
"""

import io

import pytest

from repro.crypto.provider import available_backends, using_provider
from repro.telemetry.events import EventBus
from repro.telemetry.export import attach_jsonl, validate_jsonl
from repro.util.clock import TickClock

BACKENDS = sorted(available_backends())


def first_divergence(a: str, b: str) -> str:
    for i, (line_a, line_b) in enumerate(zip(a.splitlines(),
                                             b.splitlines())):
        if line_a != line_b:
            return f"line {i}: {line_a!r} != {line_b!r}"
    return f"lengths differ: {len(a.splitlines())} vs {len(b.splitlines())}"


def chaos_soak_jsonl(backend: str) -> str:
    from repro.chaos import SoakConfig, run_soak

    config = SoakConfig(
        seed=17, n_members=3, duration=14.0,
        loss_window=(2.0, 8.0), delay_window=(2.0, 8.0),
        bursty_window=None, partition_window=None,
        crash_warm_at=4.0, restore_at=5.0, crash_failover_at=None,
        rekey_interval=3.0, converge_timeout=10.0,
    )
    with using_provider(backend):
        bus = EventBus()
        buffer = io.StringIO()
        exporter = attach_jsonl(bus, buffer)
        report = run_soak(config, telemetry=bus)
        exporter.close()
    assert report.converged and report.safe
    return buffer.getvalue()


def data_soak_jsonl(backend: str) -> str:
    from repro.dataplane.soak import DataSoakConfig, run_data_soak

    config = DataSoakConfig(seed=23, n_members=3, rounds=30,
                            leave_round=12, rekey_round=20, drain_rounds=10)
    with using_provider(backend):
        bus = EventBus(clock=TickClock())
        buffer = io.StringIO()
        exporter = attach_jsonl(bus, buffer)
        report = run_data_soak(config, telemetry=bus)
        exporter.close()
    assert report.safe
    return buffer.getvalue()


@pytest.mark.parametrize("scenario", [chaos_soak_jsonl, data_soak_jsonl],
                         ids=["chaos-soak", "dataplane-soak"])
def test_soak_jsonl_identical_across_backends(scenario):
    exports = {name: scenario(name) for name in BACKENDS}
    reference = exports["reference"]
    assert validate_jsonl(io.StringIO(reference)), \
        "scenario exported no telemetry — the comparison would be vacuous"
    for name, log in exports.items():
        assert log == reference, \
            f"{name} diverged from reference: {first_divergence(log, reference)}"


def data_member_wire_log(backend: str) -> list:
    """A seeded ``DataMember`` exchange through the relay with the first
    frame lost on its way in: DATA_MSG, DATA_ACK, and a DATA_NACK refill
    — every byte posted, in order."""
    from repro.attacks.base import build_data
    from repro.wire.labels import Label

    with using_provider(backend):
        scenario = build_data(["alice", "bob", "carol"], seed=31)
        net = scenario.net
        lost = []

        def lose_first_data_frame(envelope):
            if envelope.label is Label.DATA_MSG and not lost:
                lost.append(envelope)
                return []
            return None

        net.set_interceptor(lose_first_data_frame)
        alice = scenario.members["alice"]
        for payload in (b"lost on the way in", b"arrives first"):
            net.post_all(alice.send_data(payload))
        net.run()
        assert alice.sender.pending == 0 and alice.sender.retransmits == 2
        assert [p for (_s, _q, p) in scenario.members["bob"].inbox] == \
            [b"arrives first", b"lost on the way in"]
        return [(e.label.name, e.sender, e.recipient, e.body)
                for e in net.wire_log]


def test_data_member_exchange_identical_across_backends():
    logs = {name: data_member_wire_log(name) for name in BACKENDS}
    labels = {entry[0] for entry in logs["reference"]}
    assert {"DATA_MSG", "DATA_ACK", "DATA_NACK"} <= labels
    for name, log in logs.items():
        assert log == logs["reference"], f"{name} diverged from reference"
