"""Ready-made simulation scenarios.

:func:`run_churn` drives a full improved-protocol group through a
join/leave/message workload on the virtual-time loop and reports
rekey counts, relay volume, membership-view consistency, and admin-
channel latencies.  This is what `bench_rekey` sweeps across policies
and group sizes (the paper's "application-dependent policy" knob).
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.chaos.loop import LoopClock, run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import RekeyPolicy, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.sim.workload import ChurnWorkload, MessageWorkload, WorkloadKind
from repro.telemetry.events import EventBus
from repro.telemetry.export import LiveSummary


@dataclass
class ChurnScenario:
    """Parameters for a churn simulation."""

    n_users: int = 8
    duration: float = 60.0
    join_rate: float = 0.5
    mean_session: float = 20.0
    message_rate: float = 2.0
    rekey_policy: RekeyPolicy = RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE
    rekey_interval: float = 10.0
    seed: int = 0


@dataclass
class ChurnReport:
    """Results of one churn simulation."""

    scenario: ChurnScenario
    final_members: list[str] = field(default_factory=list)
    views_consistent: bool = True
    rekeys: int = 0
    relayed: int = 0
    joins: int = 0
    leaves: int = 0

    def summary(self) -> str:
        return (
            f"churn(n={self.scenario.n_users}, policy="
            f"{self.scenario.rekey_policy}): joins={self.joins} "
            f"leaves={self.leaves} rekeys={self.rekeys} "
            f"relayed={self.relayed} consistent={self.views_consistent}"
        )


def run_churn(
    scenario: ChurnScenario, telemetry: EventBus | None = None
) -> ChurnReport:
    """Run one churn scenario to completion.

    With ``telemetry``, the bus clock is swapped to the simulation
    clock and every protocol core emits onto it — a churn run then
    yields a deterministic, virtual-time event log.
    """
    return run_virtual(_churn(scenario, telemetry))


async def _churn(
    scenario: ChurnScenario, telemetry: EventBus | None
) -> ChurnReport:
    loop = asyncio.get_running_loop()
    clock = LoopClock(loop)
    rng = DeterministicRandom(scenario.seed)
    net = SyncNetwork(telemetry=telemetry)
    if telemetry is not None:
        telemetry.set_clock(clock)

    directory = UserDirectory()
    leader = GroupLeader(
        "leader",
        directory,
        config=LeaderConfig(
            rekey_policy=scenario.rekey_policy,
            rekey_interval=scenario.rekey_interval,
        ),
        rng=rng.fork("leader"),
        clock=clock,
        telemetry=telemetry,
    )
    wire(net, "leader", leader)

    user_ids = [f"user-{i:02d}" for i in range(scenario.n_users)]
    members: dict[str, MemberProtocol] = {}
    for user_id in user_ids:
        creds = directory.register_password(user_id, f"pw-{user_id}")
        member = MemberProtocol(
            creds, "leader", rng.fork(user_id), telemetry=telemetry
        )
        members[user_id] = member
        wire(net, user_id, member)

    def pump() -> None:
        net.run()

    # The workload: (time, action) pairs, run in time order with ties
    # in the order they are listed here.
    actions: list[tuple[float, Callable[[], None]]] = []
    churn = ChurnWorkload(
        user_ids,
        join_rate=scenario.join_rate,
        mean_session=scenario.mean_session,
        seed=scenario.seed,
    )
    for event in churn.events(scenario.duration):
        member = members[event.user_id]
        if event.kind is WorkloadKind.JOIN:
            def do_join(m=member) -> None:
                if m.state is MemberState.NOT_CONNECTED:
                    net.post(m.start_join())
                    pump()
            actions.append((event.time, do_join))
        else:
            def do_leave(m=member) -> None:
                if m.state is MemberState.CONNECTED:
                    net.post(m.start_leave())
                    pump()
            actions.append((event.time, do_leave))

    # Message traffic: connected members chat; others skip their turn.
    traffic = MessageWorkload(
        user_ids, rate=scenario.message_rate, seed=scenario.seed + 1
    )
    for event in traffic.events(scenario.duration):
        member = members[event.user_id]

        def do_send(m=member, payload=event.payload) -> None:
            if m.state is MemberState.CONNECTED and m.has_group_key:
                net.post(m.seal_app(payload))
                pump()
        actions.append((event.time, do_send))

    # Periodic leader ticks for time-based rekeying.
    if RekeyPolicy.PERIODIC in scenario.rekey_policy:
        def tick() -> None:
            net.post_all(leader.tick())
            pump()
        when = scenario.rekey_interval / 4
        while when <= scenario.duration:
            actions.append((when, tick))
            when += scenario.rekey_interval / 4

    # One coroutine awaits each action's time and calls it, so an action
    # that raises fails the run instead of vanishing into the loop's
    # exception handler.
    for when, action in sorted(actions, key=lambda a: a[0]):
        arrived = loop.create_future()
        loop.call_at(when, arrived.set_result, None)
        await arrived
        action()
    pump()

    # Consistency: every connected member's view equals the leader's.
    leader_view = set(leader.members)
    consistent = all(
        members[uid].membership == leader_view
        for uid in leader.members
        if members[uid].state is MemberState.CONNECTED
    )

    report = ChurnReport(
        scenario=scenario,
        final_members=leader.members,
        views_consistent=consistent,
        rekeys=leader.stats.rekeys,
        relayed=leader.stats.relayed_frames,
        joins=leader.stats.joins,
        leaves=leader.stats.leaves,
    )
    return report


_POLICIES = {
    "membership": RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE,
    "on-leave": RekeyPolicy.ON_LEAVE,
    "periodic": RekeyPolicy.PERIODIC,
    "manual": RekeyPolicy.MANUAL,
}


def _cmd_churn(args, bus) -> int:
    summary = None if bus is None else bus.subscribe(LiveSummary())
    report = run_churn(
        ChurnScenario(
            n_users=args.users,
            duration=args.duration,
            rekey_policy=_POLICIES[args.policy],
            seed=args.seed,
        ),
        telemetry=bus,
    )
    print(report.summary())
    if summary is not None:
        print(summary.render())
    return 0 if report.views_consistent else 1


def register(sub) -> None:
    churn = sub.add_parser("churn", help="run a churn simulation")
    churn.add_argument("--users", type=int, default=8)
    churn.add_argument("--duration", type=float, default=60.0)
    churn.add_argument("--policy", default="membership",
                       choices=tuple(_POLICIES))
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--telemetry", metavar="PATH",
                       help="export the telemetry event stream as JSONL")
    churn.set_defaults(
        select="command",
        dispatch={"churn": (_cmd_churn, "telemetry", True, "")},
    )
