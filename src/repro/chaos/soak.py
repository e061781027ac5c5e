"""Seeded chaos soak scenarios + the recovery matrix.

A soak drives N supervised members and a set of leaders through a
:class:`~repro.net.faults.FaultPlan` (loss, bursty loss, delay/reorder,
partitions, leader crashes) on the virtual-time loop, while a monitor
continuously asserts the paper's safety invariants on the live state:

* **prefix** (§5.4) — every member's accepted admin list is a prefix of
  what its leader sent it, byte for byte;
* **no duplication / no stale key** — the group-key epochs a member
  accepts within one session are strictly increasing, so a replayed
  or reordered key distribution can never re-install an old key

(both through :func:`repro.enclaves.modelcheck.session_violations`, the
one §5.4 session probe every soak shares).

Once the plan's faults heal, the run must *converge*: every member
connected to the current manager, holding its current group key, all
admin channels drained.  The same plans run against the legacy (§2.2)
stack, where loss-duplicated or reordered ``new_key`` messages are
accepted (no freshness — §2.3) and a crashed leader strands the group;
the recovery matrix makes that contrast a runnable artifact, like the
attack matrix.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace

from repro.chaos.loop import LoopClock, run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import RekeyPolicy, UserDirectory
from repro.enclaves.itgm.leader import LeaderConfig
from repro.enclaves.itgm.member import Follower
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.enclaves.itgm.supervisor import (
    LeaderOrchestrator,
    ResilientMemberClient,
)
from repro.enclaves.legacy.leader import LegacyGroupLeader
from repro.enclaves.legacy.member import LegacyMemberProtocol, LegacyMemberState
from repro.enclaves.modelcheck import session_violations
from repro.exceptions import StateError
from repro.net.adversary import Adversary
from repro.net.faults import FaultPlan, LeaderEventKind
from repro.net.memnet import MemoryNetwork
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus
from repro.telemetry.export import LiveSummary
from repro.telemetry.health import HealthProbe
from repro.telemetry.metrics import MetricsRegistry


#: Seconds between one member's application messages, and between the
#: monitor's live §5.4 samples.
APP_INTERVAL = 1.0
MONITOR_INTERVAL = 0.5
#: The itgm stack's managers: one leader and one failover standby.
N_MANAGERS = 2
#: The loss window's i.i.d. drop and duplicate rates, and the delay
#: window's hold probability and longest hold (seconds).
DROP_RATE = 0.3
DUPLICATE_RATE = 0.05
DELAY_RATE = 0.25
MAX_HOLD = 0.5
#: The leaders' protocol timers (seconds).
TICK_INTERVAL = 0.25
HEARTBEAT_INTERVAL = 0.5


@dataclass
class SoakConfig:
    """One seeded chaos scenario.  ``None`` windows/events are skipped."""

    stack: str = "itgm"            # "itgm" | "legacy"
    seed: int = 7
    n_members: int = 5
    duration: float = 60.0
    #: i.i.d. loss window (start, end).
    loss_window: tuple[float, float] | None = (4.0, 20.0)
    #: Delay/reorder window.
    delay_window: tuple[float, float] | None = (4.0, 20.0)
    #: Gilbert-Elliott bursty sub-window.
    bursty_window: tuple[float, float] | None = (12.0, 18.0)
    #: Partition window (managers + half the members vs. the rest).
    partition_window: tuple[float, float] | None = (22.0, 30.0)
    #: Leader crash with warm restore.
    crash_warm_at: float | None = 10.0
    restore_at: float | None = 11.0
    #: Leader crash with failover to the next standby.
    crash_failover_at: float | None = 34.0
    #: Protocol timers.
    rekey_interval: float = 5.0
    converge_timeout: float = 20.0


@dataclass
class SoakReport:
    """Outcome of one soak run."""

    stack: str
    seed: int
    duration: float
    converged: bool
    converge_time: float | None
    violations: list[str]
    final_leader: str | None
    final_epoch: int | None
    n_members: int
    n_converged: int
    metrics: dict
    fault_stats: dict[str, dict]
    notes: list[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return not self.violations

    def format_table(self) -> str:
        """The printed recovery-metrics table."""
        counters = self.metrics.get("counters", {})
        latencies = self.metrics.get("latencies", {})
        lines = [
            f"chaos soak — stack={self.stack} seed={self.seed} "
            f"duration={self.duration:.0f}s",
            f"  converged          : "
            + ("NO" if not self.converged
               else "yes" if self.converge_time is None
               else f"yes (t={self.converge_time:.1f}s)"),
            f"  members reconverged: {self.n_converged}/{self.n_members}"
            + (f" on {self.final_leader}" if self.final_leader else "")
            + (f" epoch {self.final_epoch}"
               if self.final_epoch is not None else ""),
            f"  safety violations  : {len(self.violations)}",
        ]
        for violation in self.violations[:8]:
            lines.append(f"    ! {violation}")
        for name in ("suspicions", "rejoins", "attempts", "crashes",
                     "warm_restores", "failovers", "rekeys",
                     "frames_routed", "app_rounds", "journal_appends",
                     "journal_fsyncs", "journal_compactions",
                     "journal_replays", "journal_records_replayed"):
            if name in counters:
                lines.append(f"  {name:<19}: {counters[name]}")
        rec = latencies.get("rejoin")
        if rec and rec["count"]:
            lines.append(
                "  rejoin latency     : "
                f"p50={rec['p50']:.2f}s p99={rec['p99']:.2f}s "
                f"max={rec['max']:.2f}s (n={rec['count']})"
            )
        for name, stats in sorted(self.fault_stats.items()):
            detail = " ".join(f"{k}={v}" for k, v in stats.items())
            lines.append(f"  fault {name:<13}: {detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# -- plan construction -------------------------------------------------------


def clip_to_duration(config: SoakConfig) -> SoakConfig:
    """Fit the fault timeline into (possibly short) ``config.duration``.

    The default :class:`SoakConfig` schedule assumes a 60-second run; a
    shorter ``--duration`` would otherwise leave faults active past the
    point where convergence is checked, guaranteeing failure.  The rule:
    every fault must heal — and every leader event must fire — by 60%
    of the duration, leaving the rest for recovery.  Windows starting
    past that horizon are dropped; windows straddling it are clipped.
    At the default 60-second duration this is the identity.
    """
    horizon = 0.6 * config.duration

    def clip(window: tuple[float, float] | None):
        if window is None or window[0] >= horizon:
            return None
        return (window[0], min(window[1], horizon))

    clipped = replace(
        config,
        loss_window=clip(config.loss_window),
        delay_window=clip(config.delay_window),
        bursty_window=clip(config.bursty_window),
        partition_window=clip(config.partition_window),
    )
    if clipped.restore_at is None or clipped.restore_at > horizon:
        clipped.crash_warm_at = None
        clipped.restore_at = None
    if (
        clipped.crash_failover_at is not None
        and clipped.crash_failover_at > horizon
    ):
        clipped.crash_failover_at = None
    return clipped


def build_default_plan(
    config: SoakConfig,
    member_addresses: list[str],
    manager_addresses: list[str],
) -> FaultPlan:
    """Translate a :class:`SoakConfig` into a :class:`FaultPlan`."""
    plan = FaultPlan(seed=config.seed)
    if config.loss_window is not None:
        plan.loss(*config.loss_window, drop_rate=DROP_RATE,
                  duplicate_rate=DUPLICATE_RATE)
    if config.delay_window is not None:
        plan.delay(*config.delay_window, min_hold=0.05,
                   max_hold=MAX_HOLD, delay_rate=DELAY_RATE)
    if config.bursty_window is not None:
        plan.bursty(*config.bursty_window)
    if config.partition_window is not None:
        near = member_addresses[: len(member_addresses) // 2]
        far = member_addresses[len(member_addresses) // 2:]
        plan.partition(
            *config.partition_window,
            [set(manager_addresses) | set(near), set(far)],
        )
    if config.crash_warm_at is not None and config.restore_at is not None:
        plan.crash_warm(config.crash_warm_at, config.restore_at)
    if config.crash_failover_at is not None:
        plan.crash_failover(config.crash_failover_at)
    return plan


def _window_stats(plan: FaultPlan) -> dict[str, dict]:
    stats: dict[str, dict] = {}
    for i, window in enumerate(plan.windows):
        policy = window.policy
        entry = {}
        for attr in ("dropped", "duplicated", "delayed", "severed", "bursts"):
            value = getattr(policy, attr, None)
            if value is not None:
                entry[attr] = value
        stats[f"{i}:{window.name}"] = entry
    return stats


# -- the improved (itgm) stack soak ------------------------------------------


async def _soak_itgm(
    config: SoakConfig, telemetry: EventBus | None = None
) -> SoakReport:
    loop = asyncio.get_running_loop()
    rng = DeterministicRandom(config.seed)
    metrics = MetricsRegistry()
    violations: list[str] = []
    notes: list[str] = []

    probe: HealthProbe | None = None
    if telemetry is not None:
        # Stamp events in virtual time so per-seed logs are identical.
        telemetry.set_clock(LoopClock(loop))
        probe = HealthProbe()
        probe.subscribe_to(telemetry)

    member_ids = [f"user-{i}" for i in range(config.n_members)]
    manager_ids = [f"mgr-{i}" for i in range(N_MANAGERS)]
    directory = UserDirectory()
    creds = {
        uid: directory.register_password(uid, f"pw-{uid}")
        for uid in member_ids
    }

    net = MemoryNetwork(telemetry=telemetry)
    adversary = Adversary(telemetry=telemetry)
    net.attach_adversary(adversary)
    plan = build_default_plan(config, member_ids, manager_ids)
    adversary.set_policy(plan.as_policy(loop.time, telemetry=telemetry))

    # The leaders journal onto a simulated disk, so crash/restore goes
    # through real write-ahead replay.
    orchestrator = LeaderOrchestrator(
        net, directory, manager_ids,
        config=LeaderConfig(
            rekey_policy=(RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE
                          | RekeyPolicy.PERIODIC),
            rekey_interval=config.rekey_interval,
        ),
        rng=rng.fork("mgrs"),
        clock=LoopClock(loop),
        tick_interval=TICK_INTERVAL,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        telemetry=telemetry,
        disk=SimDisk(rng=rng.fork("disk")),
    )
    await orchestrator.start()

    members = {
        uid: ResilientMemberClient(
            {
                m: Follower(
                    creds[uid], m, rng=rng.fork(uid).fork(f"toward-{m}"),
                    telemetry=telemetry,
                )
                for m in manager_ids
            },
            net,
            rng=rng.fork(uid),
            telemetry=telemetry,
        )
        for uid in member_ids
    }
    for supervisor in members.values():
        await supervisor.join()

    def sample_safety() -> None:
        for uid, supervisor in members.items():
            leader = orchestrator.managers.managers[supervisor.active]
            violations.extend(
                f"{uid}<-{supervisor.active}: {violation}"
                for violation in session_violations(
                    supervisor.follower.protocol.admin_log,
                    leader.admin_send_log(uid),
                )
            )

    async def monitor() -> None:
        while True:
            await asyncio.sleep(MONITOR_INTERVAL)
            sample_safety()

    async def workload() -> None:
        round_no = 0
        while True:
            await asyncio.sleep(APP_INTERVAL)
            round_no += 1
            for uid, supervisor in members.items():
                if supervisor.connected:
                    try:
                        await supervisor.send_app(
                            f"{uid}-r{round_no}".encode()
                        )
                    except StateError:
                        pass
            metrics.counter("app_rounds").incr()

    async def leader_events() -> None:
        for event in sorted(plan.leader_events, key=lambda e: e.at):
            delay = event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if event.kind is LeaderEventKind.CRASH_WARM:
                await orchestrator.crash(flush=True)
            elif event.kind is LeaderEventKind.RESTORE:
                await orchestrator.restore_warm()
            elif event.kind is LeaderEventKind.CRASH_FAILOVER:
                await orchestrator.failover()

    tasks = [
        loop.create_task(monitor()),
        loop.create_task(workload()),
        loop.create_task(leader_events()),
    ]

    await asyncio.sleep(config.duration - loop.time())
    tasks[1].cancel()  # stop the workload; let recovery finish cleanly

    def converged_now() -> tuple[bool, int]:
        leader = orchestrator.current_leader
        fingerprint = leader.group_key_fingerprint
        target = orchestrator.current_id
        count = 0
        for uid, supervisor in members.items():
            if (
                supervisor.connected
                and supervisor.active == target
                and supervisor.group_key_fingerprint == fingerprint
                and leader.outbox_depth(uid) == 0
            ):
                count += 1
        return count == len(members), count

    converge_time: float | None = None
    deadline = loop.time() + config.converge_timeout
    while loop.time() < deadline:
        done, _count = converged_now()
        if done:
            converge_time = loop.time()
            break
        await asyncio.sleep(0.25)
    converged, n_converged = converged_now()
    sample_safety()

    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except asyncio.CancelledError:
            pass
    for supervisor in members.values():
        if supervisor.gave_up:
            notes.append(f"{supervisor.user_id}: recovery exhausted")
        await supervisor.stop()
    await orchestrator.stop()

    metrics.counter("frames_routed").incr(net.frames_routed)
    metrics.counter("crashes").incr(orchestrator.crashes)
    metrics.counter("warm_restores").incr(orchestrator.warm_restores)
    metrics.counter("failovers").incr(orchestrator.failovers)
    rejoin = metrics.histogram("rejoin")
    for supervisor in members.values():
        metrics.counter("suspicions").incr(supervisor.suspicions)
        metrics.counter("rejoins").incr(supervisor.rejoins)
        metrics.counter("attempts").incr(supervisor.attempts)
        # The first "rejoin" is the initial join; recovery latencies
        # are the rest.
        for latency in supervisor.rejoin_latencies[1:]:
            rejoin.record(latency)
    metrics.counter("rekeys").incr(
        sum(leader.stats.rekeys
            for leader in orchestrator.managers.managers.values())
    )
    for name, value in orchestrator.journal_counters().items():
        metrics.counter(name).incr(value)

    if probe is not None:
        violations.extend(probe.violations)
    deduped = sorted(set(violations))
    return SoakReport(
        stack="itgm",
        seed=config.seed,
        duration=config.duration,
        converged=converged,
        converge_time=converge_time,
        violations=deduped,
        final_leader=orchestrator.current_id,
        final_epoch=orchestrator.current_leader.group_epoch,
        n_members=len(members),
        n_converged=n_converged,
        metrics=metrics.snapshot(),
        fault_stats=_window_stats(plan),
        notes=notes,
    )


# -- the legacy (§2.2) stack soak --------------------------------------------


async def _soak_legacy(
    config: SoakConfig, telemetry: EventBus | None = None
) -> SoakReport:
    loop = asyncio.get_running_loop()
    rng = DeterministicRandom(config.seed)
    metrics = MetricsRegistry()
    violations: list[str] = []
    notes: list[str] = []

    if telemetry is not None:
        telemetry.set_clock(LoopClock(loop))

    member_ids = [f"user-{i}" for i in range(config.n_members)]
    leader_id = "mgr-0"
    directory = UserDirectory()
    creds = {
        uid: directory.register_password(uid, f"pw-{uid}")
        for uid in member_ids
    }

    # The legacy cores predate the event bus (the point of the recovery
    # matrix is their *lack* of observability hooks), but the wire-level
    # fates are still visible.
    net = MemoryNetwork(telemetry=telemetry)
    adversary = Adversary(telemetry=telemetry)
    net.attach_adversary(adversary)
    plan = build_default_plan(config, member_ids, [leader_id])
    adversary.set_policy(plan.as_policy(loop.time, telemetry=telemetry))

    leader = LegacyGroupLeader(
        leader_id, directory,
        rekey_policy=RekeyPolicy.MANUAL, rng=rng.fork("leader"),
    )
    leader_endpoint = await net.attach(leader_id)
    leader_driver = LeaderRuntime(leader, leader_endpoint)
    leader_driver.start()
    alive = {"leader": True}
    #: Every group key the leader ever issued, in issuance order.
    issued: list[str] = []

    protocols: dict[str, LegacyMemberProtocol] = {}
    drivers: dict[str, LeaderRuntime] = {}
    for uid in member_ids:
        protocol = LegacyMemberProtocol(creds[uid], leader_id, rng.fork(uid))
        endpoint = await net.attach(uid)
        driver = LeaderRuntime(protocol, endpoint)
        driver.start()
        protocols[uid] = protocol
        drivers[uid] = driver
        # Joins happen in the clean window before any fault starts;
        # legacy has no retransmission, so a lossy join would just hang.
        await endpoint.send(protocol.start_join())
        await asyncio.sleep(0.05)
    if leader.group_key_fingerprint is not None:
        issued.append(leader.group_key_fingerprint)

    async def rekey_task() -> None:
        while True:
            await asyncio.sleep(config.rekey_interval)
            if alive["leader"] and leader.members:
                for out in leader.rekey_now():
                    await leader_endpoint.send(out)
                assert leader.group_key_fingerprint is not None
                issued.append(leader.group_key_fingerprint)
                metrics.counter("rekeys").incr()

    async def workload() -> None:
        round_no = 0
        while True:
            await asyncio.sleep(APP_INTERVAL)
            round_no += 1
            for uid, protocol in protocols.items():
                if protocol.state is LegacyMemberState.CONNECTED:
                    try:
                        await drivers[uid].endpoint.send(
                            protocol.seal_app(f"{uid}-r{round_no}".encode())
                        )
                    except StateError:
                        pass
            metrics.counter("app_rounds").incr()

    async def leader_events() -> None:
        for event in sorted(plan.leader_events, key=lambda e: e.at):
            delay = event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if event.kind in (LeaderEventKind.CRASH_WARM,
                              LeaderEventKind.CRASH_FAILOVER):
                if alive["leader"]:
                    alive["leader"] = False
                    await leader_driver.stop()
                    metrics.counter("crashes").incr()
                    notes.append(
                        f"leader crashed at t={event.at:.0f}s — the "
                        "legacy stack has no restore or failover path; "
                        "members are stranded"
                    )
            # RESTORE: nothing to do — legacy keeps no snapshot.

    tasks = [
        loop.create_task(rekey_task()),
        loop.create_task(workload()),
        loop.create_task(leader_events()),
    ]
    await asyncio.sleep(config.duration - loop.time())
    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except asyncio.CancelledError:
            pass

    # Safety: a member may never install a key twice (duplication) nor
    # install an older key after a newer one (stale reversion).  The
    # legacy new_key has no freshness, so duplicated/delayed frames do
    # exactly that — §2.3's replay flaw, triggered by benign faults.
    for uid, protocol in protocols.items():
        history = protocol.group_key_history
        seen: set[str] = set()
        for fingerprint in history:
            if fingerprint in seen:
                violations.append(
                    f"{uid}: group key {fingerprint[:8]} installed twice "
                    "(replayed new_key accepted)"
                )
            seen.add(fingerprint)
        indices = [issued.index(f) for f in history if f in issued]
        if any(b < a for a, b in zip(indices, indices[1:])):
            violations.append(
                f"{uid}: stale group key accepted (reordered new_key "
                f"re-installed an older key; install order {indices})"
            )

    current = leader.group_key_fingerprint
    n_converged = sum(
        1 for protocol in protocols.values()
        if alive["leader"]
        and protocol.state is LegacyMemberState.CONNECTED
        and protocol.group_key_fingerprint == current
    )
    converged = alive["leader"] and n_converged == len(protocols)
    if not alive["leader"]:
        n_converged = 0

    await leader_driver.stop()
    for driver in drivers.values():
        await driver.stop()
    metrics.counter("frames_routed").incr(net.frames_routed)

    return SoakReport(
        stack="legacy",
        seed=config.seed,
        duration=config.duration,
        converged=converged,
        converge_time=None,
        violations=sorted(set(violations)),
        final_leader=leader_id if alive["leader"] else None,
        final_epoch=None,
        n_members=len(protocols),
        n_converged=n_converged,
        metrics=metrics.snapshot(),
        fault_stats=_window_stats(plan),
        notes=notes,
    )


def run_soak(
    config: SoakConfig | None = None,
    telemetry: EventBus | None = None,
) -> SoakReport:
    """Run one soak scenario deterministically on the virtual clock.

    With ``telemetry``, the whole stack emits onto the given bus, the
    bus clock is swapped to virtual time (so per-seed logs are
    byte-identical), and a live :class:`HealthProbe` folds event-level
    invariant violations into the report.
    """
    config = config if config is not None else SoakConfig()
    if config.stack == "itgm":
        return run_virtual(_soak_itgm(config, telemetry))
    if config.stack == "legacy":
        return run_virtual(_soak_legacy(config, telemetry))
    raise ValueError(f"unknown stack {config.stack!r}")


# -- the recovery matrix -----------------------------------------------------


@dataclass(frozen=True)
class RecoveryRow:
    """One (scenario, stack) cell of the recovery matrix."""

    scenario: str
    stack: str
    converged: bool
    violations: int
    detail: str


def _scenario_config(scenario: str, stack: str, seed: int) -> SoakConfig:
    """A config exercising exactly one fault family (or all of them)."""
    base = SoakConfig(
        stack=stack, seed=seed, duration=30.0,
        loss_window=None, delay_window=None, bursty_window=None,
        partition_window=None, crash_warm_at=None, restore_at=None,
        crash_failover_at=None, rekey_interval=3.0, converge_timeout=15.0,
    )
    if scenario == "loss":
        base.loss_window = (3.0, 18.0)
        base.delay_window = (3.0, 18.0)
    elif scenario == "partition":
        base.partition_window = (5.0, 13.0)
    elif scenario == "crash-warm":
        base.crash_warm_at, base.restore_at = 8.0, 9.0
    elif scenario == "crash-failover":
        base.crash_failover_at = 8.0
    elif scenario == "full-soak":
        return SoakConfig(stack=stack, seed=seed)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return base


SCENARIOS = ("loss", "partition", "crash-warm", "crash-failover",
             "full-soak")


def run_recovery_matrix(seed: int = 7) -> list[RecoveryRow]:
    """crash × partition × loss × legacy-vs-improved, as data."""
    rows = []
    for scenario in SCENARIOS:
        for stack in ("legacy", "itgm"):
            report = run_soak(_scenario_config(scenario, stack, seed))
            if report.converged and not report.violations:
                detail = "recovered; all members on current key"
            elif report.violations:
                detail = report.violations[0]
            elif report.notes:
                detail = report.notes[0]
            else:
                detail = (
                    f"{report.n_converged}/{report.n_members} members "
                    "reconverged"
                )
            rows.append(RecoveryRow(
                scenario=scenario,
                stack=stack,
                converged=report.converged,
                violations=len(report.violations),
                detail=detail,
            ))
    return rows


def format_recovery_matrix(rows: list[RecoveryRow]) -> str:
    """Align the matrix for terminal output, attack-matrix style."""
    header = f"{'scenario':<16} {'stack':<7} {'converged':<10} " \
             f"{'violations':<11} outcome"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.scenario:<16} {row.stack:<7} "
            f"{'yes' if row.converged else 'NO':<10} "
            f"{row.violations:<11} {row.detail}"
        )
    return "\n".join(lines)


def _cmd_matrix(args, _bus) -> int:
    rows = run_recovery_matrix(seed=args.seed)
    print(format_recovery_matrix(rows))
    bad = [
        row for row in rows
        if row.stack == "itgm" and (not row.converged or row.violations)
    ]
    if bad:
        print(f"\n{len(bad)} improved-stack scenario(s) failed!")
        return 1
    print("\nimproved stack recovered everywhere with zero violations")
    return 0


def _cmd_soak(args, bus) -> int:
    config = clip_to_duration(SoakConfig(
        stack=args.stack, seed=args.seed, duration=args.duration,
        n_members=args.members,
    ))
    summary = None if bus is None else bus.subscribe(LiveSummary())
    report = run_soak(config, telemetry=bus)
    print(report.format_table())
    if summary is not None:
        print(summary.render())
    if args.stack == "itgm":
        return 0 if report.converged and report.safe else 1
    return 0


def register(sub) -> None:
    chaos = sub.add_parser(
        "chaos", help="run a chaos soak / the recovery matrix"
    )
    chaos.add_argument("--stack", choices=("itgm", "legacy"),
                       default="itgm")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--duration", type=float, default=60.0)
    chaos.add_argument("--members", type=int, default=5)
    chaos.add_argument("--matrix", action="store_true",
                       help="run the full recovery matrix instead")
    chaos.add_argument("--telemetry", metavar="PATH",
                       help="export the telemetry event stream as JSONL "
                            "(ignored with --matrix)")
    chaos.set_defaults(select="matrix", dispatch={
        True: (_cmd_matrix, None, False, ""),
        False: (_cmd_soak, "telemetry", True, ""),
    })
