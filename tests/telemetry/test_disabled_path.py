"""The disabled telemetry path does no telemetry work — as a count.

The contract the ≤ 2 % disabled-overhead bound protects is "an
``EventBus`` nobody subscribed to (and no profiler bound) costs one
truth test per emit site".  The wall-clock benches check that as a
ratio, which on a shared box spreads wider than its own bound; this
checks the same invariant as exact zeros, which cannot flake: no
``EventBus.emit`` call, no ``frame_id`` hash, no ``TelemetryEvent``
constructed — through join → rekey → app frame → data message with its
ACKs → leave, on each of the three production surfaces.  The same
traffic on a bus somebody listens to is the control: all three counts
move, so a zero means "guarded", not "the probe is blind".
"""

import sys
from collections import Counter
from itertools import cycle

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.dataplane.member import DataMember
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol
from repro.telemetry import events as telemetry_events
from repro.telemetry.events import EventBus, TelemetryEvent

from tests.shard_world import ShardWorld


def _event_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _event_classes(sub)


@pytest.fixture
def work(monkeypatch):
    """Counts of the three kinds of telemetry work, process-wide."""
    counts = Counter()
    emit, frame_id = EventBus.emit, telemetry_events.frame_id

    def counting_emit(bus, event):
        counts["emit"] += 1
        emit(bus, event)

    def counting_init(init):
        def __init__(event, *args, **kwargs):
            counts["events"] += 1
            init(event, *args, **kwargs)
        return __init__

    def counting_frame_id(envelope):
        counts["frame_id"] += 1
        return frame_id(envelope)

    monkeypatch.setattr(EventBus, "emit", counting_emit)
    # Every event dataclass has its own generated __init__.  (Patching
    # __new__ on the base would be one line, but CPython does not
    # restore object.__new__'s argument check when it is taken off.)
    for cls in _event_classes(TelemetryEvent):
        if "__init__" in vars(cls):
            monkeypatch.setattr(
                cls, "__init__", counting_init(vars(cls)["__init__"])
            )
    # Emit sites bind the name at import: patch every module that did.
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and vars(module).get("frame_id") is frame_id):
            monkeypatch.setattr(module, "frame_id", counting_frame_id)
    return counts


def _group(bus, wrap):
    """A leader and three members on ``bus``; ``wrap`` turns each
    :class:`MemberProtocol` into the endpoint that is wired."""
    rng = DeterministicRandom(19)
    net = SyncNetwork(telemetry=bus)
    directory = UserDirectory()
    leader = GroupLeader(
        "leader", directory, rng=rng.fork("leader"), telemetry=bus
    )
    wire(net, "leader", leader)
    members = {}
    for uid in ("alice", "bob", "carol"):
        creds = directory.register_password(uid, f"pw-{uid}")
        core = MemberProtocol(creds, "leader", rng.fork(uid), telemetry=bus)
        members[uid] = wrap(core)
        wire(net, uid, members[uid])
        net.post(core.start_join())
        net.run()
    net.post_all(leader.rekey_now())
    net.run()
    return net, leader, members


def core_traffic(bus):
    """(i) ``GroupLeader`` + ``MemberProtocol``."""
    net, leader, members = _group(bus, lambda core: core)
    net.post(members["alice"].seal_app(b"app frame"))
    net.run()
    net.post(members["carol"].start_leave())
    net.run()
    assert leader.members == ["alice", "bob"]
    assert leader.stats.relayed_frames == 2


def shard_traffic(bus):
    """(ii) ``ShardHost.enqueue``/``pump`` + ``FabricMember``."""
    world = ShardWorld(19, pumped=True, telemetry=bus)
    budgets = cycle([64])
    world.play(
        [("join", g, u, True) for u in range(3) for g in range(2)]
        + [("app", 0, 0, True), ("data", 1, 2, True), ("leave", 0, 2, True)],
        lambda chunk: world.serve_pumped(chunk, budgets),
    )
    assert world.pumps and world.shard.stats.delivered
    assert world.shard.leader("grp-a").members == ["grp-a.u0", "grp-a.u1"]


def data_traffic(bus):
    """(iii) ``DataMember``: a ratcheted message and every ACK for it."""
    net, leader, members = _group(
        bus, lambda core: DataMember(core, telemetry=bus)
    )
    net.post(members["alice"].member.seal_app(b"app frame"))
    net.post_all(members["alice"].send_data(b"data message"))
    net.run()
    assert [p for _s, _q, p in members["bob"].inbox] == [b"data message"]
    assert members["alice"].sender.fully_acked == 1
    net.post(members["carol"].member.start_leave())
    net.run()
    assert leader.members == ["alice", "bob"]


SURFACES = [core_traffic, shard_traffic, data_traffic]


@pytest.mark.parametrize("traffic", SURFACES)
def test_unsubscribed_bus_does_no_telemetry_work(work, traffic):
    traffic(EventBus())
    assert dict(work) == {}


@pytest.mark.parametrize("traffic", SURFACES)
def test_control_the_probe_sees_a_subscribed_bus(work, traffic):
    bus = EventBus()
    with bus.capture() as records:
        traffic(bus)
    assert work["emit"] == work["events"] == len(records) > 0
    assert work["frame_id"] > 0

