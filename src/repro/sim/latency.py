"""Latency studies over the delay-modelled network.

The §3.2 message diagram fixes the hop counts of every operation; with
a delay model attached the virtual-time loop measures them:

* **join-to-member**: AuthInitReq → AuthKeyDist → AuthAckKey = 2 one-way
  delays until the member holds K_a (the third message is the leader's
  confirmation and does not gate the member).
* **join-to-group-key**: the member is operational once the leader's
  first admin message lands — the membership view and the group key,
  queued together at the join, are one batched X — 4 one-way delays
  end to end on an idle leader.
* **admin round trip**: AdminMsg + Ack = 2 delays.

:func:`run_latency_study` measures all three across a member population
and returns recorders, so the FIG-1 benchmark can assert the
linear-in-delay shapes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.chaos.loop import LoopClock, run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import (
    AdminDelivered,
    GroupKeyChanged,
    Joined,
    UserDirectory,
)
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.net.adversary import Adversary
from repro.net.memnet import MemoryNetwork
from repro.sim.netmodel import DelayModel, FixedDelay
from repro.telemetry.metrics import Histogram

#: Virtual seconds between joins — far enough apart that each completes
#: alone — and between admin rounds, so each quiesces before the next.
JOIN_SPACING = 10.0
ROUND_SPACING = 50.0


@dataclass
class LatencyReport:
    """Latency distributions from one study."""

    join_to_connected: Histogram
    join_to_group_key: Histogram
    admin_round_trip: Histogram


class _StampedCore:
    """A sans-IO core whose events carry the loop time they occurred at."""

    def __init__(self, core, loop: asyncio.AbstractEventLoop) -> None:
        self._core = core
        self._loop = loop

    def handle(self, envelope):
        outgoing, events = self._core.handle(envelope)
        now = self._loop.time()
        return outgoing, [(now, event) for event in events]


def run_latency_study(
    n_members: int = 4,
    delay_model: DelayModel | None = None,
    n_admin_rounds: int = 5,
    seed: int = 0,
) -> LatencyReport:
    """Measure join and admin latencies under a delay model."""
    delay_model = delay_model if delay_model is not None else FixedDelay(0.01)
    return run_virtual(_study(n_members, delay_model, n_admin_rounds, seed))


async def _study(
    n_members: int, delay_model: DelayModel, n_admin_rounds: int, seed: int
) -> LatencyReport:
    loop = asyncio.get_running_loop()
    rng = DeterministicRandom(seed)
    net = MemoryNetwork()
    adversary = Adversary()
    adversary.set_policy(delay_model)
    net.attach_adversary(adversary)
    directory = UserDirectory()
    leader = GroupLeader("leader", directory, rng=rng.fork("leader"),
                         clock=LoopClock(loop))
    members: dict[str, MemberProtocol] = {}
    for i in range(n_members):
        user_id = f"user-{i:03d}"
        creds = directory.register_password(user_id, f"pw-{i}")
        members[user_id] = MemberProtocol(creds, "leader", rng.fork(user_id))

    runtimes: dict[str, LeaderRuntime] = {}
    for address, core in {"leader": leader, **members}.items():
        runtimes[address] = LeaderRuntime(
            _StampedCore(core, loop), await net.attach(address)
        )
        runtimes[address].start()

    join_started: dict[str, float] = {}
    for user_id, member in members.items():
        join_started[user_id] = loop.time()
        await runtimes[user_id].endpoint.send(member.start_join())
        await asyncio.sleep(JOIN_SPACING)

    # Admin delivery on the established group: one-way delay plus
    # processing, from the leader's send to each member's AdminDelivered.
    round_started: dict[str, float] = {}
    for i in range(n_admin_rounds):
        round_started[f"r{i}"] = loop.time()
        for out in leader.broadcast_admin(TextPayload(f"r{i}")):
            await runtimes["leader"].endpoint.send(out)
        await asyncio.sleep(ROUND_SPACING)

    report = LatencyReport(Histogram(), Histogram(), Histogram())
    for user_id in members:
        queue = runtimes[user_id].events
        stamped = [queue.get_nowait() for _ in range(queue.qsize())]
        for kind, recorder in ((Joined, report.join_to_connected),
                               (GroupKeyChanged, report.join_to_group_key)):
            first = next(
                (when for when, e in stamped if isinstance(e, kind)), None
            )
            if first is not None:
                recorder.record(first - join_started[user_id])
        for when, event in stamped:
            text = getattr(getattr(event, "payload", None), "text", None)
            if isinstance(event, AdminDelivered) and text in round_started:
                report.admin_round_trip.record(when - round_started[text])
    for runtime in runtimes.values():
        await runtime.stop()
    return report
