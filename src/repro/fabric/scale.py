"""The many-group soak: §5 safety fabric-wide, plus isolation.

Runs N independent groups placed by the directory onto M shard hosts
over the in-memory network, under seeded churn (`sim.workload`),
seeded network faults (`net.faults`), a live migration, and a shard
crash with directory failover — all on the virtual-time loop, so a
given seed replays byte-identically.

What the run asserts, continuously and at the end:

* **§5.4 per group** — every connected member's accepted admin list is
  a prefix of its hosting leader's send log, group-key epochs strictly
  increase (the probe the single-group chaos soak uses,
  :func:`repro.enclaves.modelcheck.session_violations`).
* **Zero cross-group leakage** — an adversary task actively rewraps
  one group's sealed traffic toward other shards (existing group id →
  dies on the foreign group's key; fabricated group id → rejected by
  the demux) and the run requires every attempt to be rejected, loudly,
  with the rejections visible in telemetry.  Independently, every
  application payload a member accepts must carry its own group's tag.
* **Reconvergence** — after the fault windows heal, every member that
  wants to be joined is connected to the leader *currently* hosting
  its group (post-migration, post-crash placement), holds that
  leader's current group key, and has an empty admin outbox.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.chaos.loop import LoopClock, run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import (
    AppMessage,
    RekeyPolicy,
    UserDirectory,
)
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import LeaderConfig
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.enclaves.itgm.supervisor import ResilientMemberClient
from repro.enclaves.modelcheck import session_violations
from repro.fabric.balancer import RebalancePolicy
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.migration import (
    migrate_group,
    rehost_cold,
    run_migration_demo,
)
from repro.fabric.shard import ShardHost
from repro.net.adversary import Adversary
from repro.net.faults import FaultPlan
from repro.net.memnet import MemoryNetwork
from repro.sim.workload import ChurnWorkload, WorkloadKind
from repro.storage.recovery import replay_records
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import (
    EventBus,
    ForeignGroupRejected,
    GroupRedirected,
    ShardFailed,
    frame_id,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.wire.message import Envelope, wrap_group


MEMBERS_PER_GROUP = 3
#: Per-group churn (aggregate join arrivals/s and mean session).
CHURN_JOIN_RATE = 0.35
CHURN_MEAN_SESSION = 6.0
#: Fraction of the duration during which churn events may fire; after
#: the horizon every member is mustered back in so the convergence
#: check covers the full fabric.
CHURN_HORIZON = 0.55
#: Seconds between a member's application messages, between the
#: outsider's cross-group posts and between the monitor's §5.4 samples.
APP_INTERVAL = 1.0
CROSS_POST_INTERVAL = 1.5
MONITOR_INTERVAL = 0.5
#: The loss window's i.i.d. drop and duplicate rates, and the delay
#: window's hold probability and longest hold (seconds).
DROP_RATE = 0.12
DUPLICATE_RATE = 0.04
DELAY_RATE = 0.2
MAX_HOLD = 0.3
#: The shard runtimes' protocol timers (seconds).
TICK_INTERVAL = 0.25
HEARTBEAT_INTERVAL = 0.5
#: Virtual seconds a migrated group, and after the faults the whole
#: fabric, may take to reconverge.
CONVERGE_TIMEOUT = 20.0


@dataclass
class FabricConfig:
    """One seeded fabric soak scenario."""

    seed: int = 7
    n_groups: int = 16
    n_shards: int = 4
    duration: float = 40.0
    #: Network fault windows (None disables).
    loss_window: tuple[float, float] | None = None
    delay_window: tuple[float, float] | None = None
    #: Fabric lifecycle events (None disables).
    migrate_at: float | None = None
    rebalance_at: float | None = None
    crash_shard_at: float | None = None

    @classmethod
    def full(cls, seed: int = 7, **overrides) -> "FabricConfig":
        """The everything-on scenario used by CLI soak and the tests."""
        base = dict(
            seed=seed,
            loss_window=(4.0, 12.0),
            delay_window=(4.0, 12.0),
            migrate_at=14.0,
            rebalance_at=17.0,
            crash_shard_at=19.0,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class FabricReport:
    """Outcome of one fabric soak run."""

    seed: int
    duration: float
    n_groups: int
    n_shards: int
    n_members: int
    converged: bool
    converge_time: float | None
    n_desired: int
    n_converged: int
    violations: list[str]
    #: Adversarial cross-posting: every attempt must be rejected.
    cross_post_attempts: int
    cross_post_rejected: int
    foreign_post_attempts: int
    foreign_post_rejected: int
    #: Payloads accepted by members of the wrong group (must be 0).
    cross_group_deliveries: int
    app_delivered: int
    redirects: int
    rejoins: int
    migrations: list[dict]
    #: Virtual seconds from the directory flip until every desired
    #: member of the migrated group reconnected (None = no migration
    #: or it never reconverged).
    migration_downtime: float | None
    rebalance_proposals: list[str]
    crashed_shard: str | None
    regrouped: int
    directory_version: int
    placements: dict[str, str]
    notes: list[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return not self.violations

    @property
    def isolated(self) -> bool:
        """Did every cross-group attempt die loudly, with no leakage?"""
        return (
            self.cross_group_deliveries == 0
            and self.cross_post_rejected == self.cross_post_attempts
            and self.foreign_post_rejected == self.foreign_post_attempts
        )

    def format_table(self) -> str:
        lines = [
            f"fabric soak — seed={self.seed} groups={self.n_groups} "
            f"shards={self.n_shards} members={self.n_members} "
            f"duration={self.duration:.0f}s",
            "  converged          : "
            + ("NO" if not self.converged
               else f"yes (t={self.converge_time:.1f}s)"
               if self.converge_time is not None else "yes"),
            f"  members reconverged: {self.n_converged}/{self.n_desired}",
            f"  safety violations  : {len(self.violations)}",
        ]
        for violation in self.violations[:8]:
            lines.append(f"    ! {violation}")
        lines.append(
            f"  cross-group posts  : {self.cross_post_attempts} attempted, "
            f"{self.cross_post_rejected} rejected on the foreign key"
        )
        lines.append(
            f"  phantom-group posts: {self.foreign_post_attempts} attempted, "
            f"{self.foreign_post_rejected} rejected by the demux"
        )
        lines.append(
            f"  cross-group leaks  : {self.cross_group_deliveries}"
        )
        lines.append(
            f"  app delivered      : {self.app_delivered}"
            f"  redirects: {self.redirects}  rejoins: {self.rejoins}"
        )
        for migration in self.migrations:
            lines.append(
                f"  migration          : {migration['group']} "
                f"{migration['source']} -> {migration['target']} "
                f"(seq {migration['record_seq']}, {migration['kind']})"
            )
        if self.migration_downtime is not None:
            lines.append(
                f"  migration downtime : {self.migration_downtime:.2f}s "
                "virtual (flip -> members rejoined)"
            )
        for proposal in self.rebalance_proposals:
            lines.append(f"  rebalance proposal : {proposal}")
        if self.crashed_shard is not None:
            lines.append(
                f"  shard crash        : {self.crashed_shard} "
                f"({self.regrouped} groups re-homed by the directory)"
            )
        lines.append(
            f"  directory version  : {self.directory_version}"
        )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# -- runtimes ----------------------------------------------------------------


class _ShardRuntime(LeaderRuntime):
    """Pumps one :class:`ShardHost` over one network endpoint; the
    receive, tick and heartbeat loops are :class:`LeaderRuntime`'s."""

    def __init__(self, host: ShardHost, endpoint) -> None:
        super().__init__(
            host, endpoint,
            tick_interval=TICK_INTERVAL,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        )
        self.host = host
        self.alive = True

    async def crash(self) -> None:
        """Power-cut the host: tasks die, endpoint detaches, disk drops
        its unsynced tail (with ``fsync_every=1`` there is none)."""
        self.alive = False
        await self.stop()
        self.host.disk.crash(keep="none")


# -- the soak ----------------------------------------------------------------


async def _run_fabric(
    config: FabricConfig, telemetry: EventBus | None
) -> FabricReport:
    loop = asyncio.get_running_loop()
    rng = DeterministicRandom(config.seed)
    registry = MetricsRegistry()
    violations: list[str] = []
    notes: list[str] = []

    # Always run over a live bus: the isolation assertions count
    # rejections *as observed in telemetry*, not via side channels.
    bus = telemetry if telemetry is not None else EventBus()
    bus.set_clock(LoopClock(loop))

    counts = {
        "foreign_rejected": 0,
        "cross_rejected": 0,
        "redirects": 0,
        "shard_failures": 0,
    }
    evil_frames: set[str] = set()

    def observe(record) -> None:
        event = record.event
        if isinstance(event, ForeignGroupRejected):
            counts["foreign_rejected"] += 1
        elif isinstance(event, GroupRedirected):
            counts["redirects"] += 1
        elif isinstance(event, ShardFailed):
            counts["shard_failures"] += 1
        elif getattr(event, "frame", None) in evil_frames:
            # Any rejection family will do (integrity for the foreign
            # seal, state for a non-member sender) — what matters is
            # that the forged frame's id shows up rejected at all.
            counts["cross_rejected"] += 1

    bus.subscribe(observe)

    # -- topology ------------------------------------------------------------

    shard_ids = [f"shard-{i}" for i in range(config.n_shards)]
    group_ids = [f"grp-{i:02d}" for i in range(config.n_groups)]
    # 16 vnodes per shard (the directory's own default is 32): every
    # seeded placement, and so every pinned stream, depends on it.
    fabric = GroupDirectory(
        shard_ids, vnodes=16,
        rng=rng.fork("directory"), telemetry=bus,
    )

    net = MemoryNetwork(telemetry=bus)
    adversary = Adversary(telemetry=bus)
    net.attach_adversary(adversary)
    plan = FaultPlan(seed=config.seed)
    if config.loss_window is not None:
        plan.loss(*config.loss_window, drop_rate=DROP_RATE,
                  duplicate_rate=DUPLICATE_RATE)
    if config.delay_window is not None:
        plan.delay(*config.delay_window, min_hold=0.05,
                   max_hold=MAX_HOLD, delay_rate=DELAY_RATE)
    adversary.set_policy(plan.as_policy(loop.time, telemetry=bus))

    leader_config = LeaderConfig(
        rekey_policy=RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE,
    )
    shards: dict[str, _ShardRuntime] = {}
    for shard_id in shard_ids:
        disk = SimDisk(rng=rng.fork(f"disk-{shard_id}"))
        host = ShardHost(
            shard_id, disk,
            rng=rng.fork(f"host-{shard_id}"),
            clock=LoopClock(loop),
            telemetry=bus,
        )
        endpoint = await net.attach(shard_id)
        shards[shard_id] = _ShardRuntime(host, endpoint)

    users: dict[str, UserDirectory] = {}
    members: dict[str, dict[str, ResilientMemberClient]] = {}
    for group_id in group_ids:
        record = fabric.create_group(group_id)
        directory = UserDirectory()
        users[group_id] = directory
        members[group_id] = {}
        for j in range(MEMBERS_PER_GROUP):
            uid = f"{group_id}.u{j}"
            creds = directory.register_password(uid, f"pw-{uid}")
            fm = FabricMember(
                creds, group_id, fabric,
                rng=rng.fork(uid), telemetry=bus,
            )
            members[group_id][uid] = ResilientMemberClient(
                {group_id: fm}, net, rng=rng.fork(uid), telemetry=bus,
            )
            await members[group_id][uid].start()
        shards[record.shard_id].host.host_group(
            group_id, directory,
            storage_key=record.storage_key,
            config=leader_config,
        )

    for runtime in shards.values():
        runtime.start()

    def hosting(group_id: str):
        """The live (host, leader) currently serving a group, or None."""
        shard_id = fabric.record(group_id).shard_id
        runtime = shards[shard_id]
        if not runtime.alive or not runtime.host.hosts(group_id):
            return None
        return runtime.host.leader(group_id)

    # -- continuous safety ---------------------------------------------------

    def sample_safety() -> None:
        for group_id, group in members.items():
            leader = hosting(group_id)
            if leader is None:
                continue
            in_session = set(leader.members)
            for uid, member in group.items():
                if not member.follower.connected or uid not in in_session:
                    # §5.4 is a property of one *live* session.  A member
                    # still holding a session with a previous incarnation
                    # of a migrated / re-homed group has no counterpart
                    # log at the current leader; it is about to be
                    # redirected into a fresh session, which will then be
                    # sampled.  (Mirrors the chaos soak, which samples
                    # against ``supervisor.active`` — the incarnation the
                    # session is actually with.)
                    continue
                violations.extend(
                    f"{uid}<-{group_id}: {violation}"
                    for violation in session_violations(
                        member.follower.protocol.admin_log,
                        leader.admin_send_log(uid),
                    )
                )

    async def monitor() -> None:
        while True:
            await asyncio.sleep(MONITOR_INTERVAL)
            sample_safety()

    # -- workloads -----------------------------------------------------------

    churn_until = CHURN_HORIZON * config.duration

    async def churn(group_id: str) -> None:
        workload = ChurnWorkload(
            sorted(members[group_id]),
            join_rate=CHURN_JOIN_RATE,
            mean_session=CHURN_MEAN_SESSION,
            seed=int.from_bytes(
                rng.fork(f"churn-{group_id}").random_bytes(4), "big"
            ),
        )
        for event in workload.events(churn_until):
            delay = event.time - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            member = members[group_id][event.user_id]
            if event.kind is WorkloadKind.JOIN:
                registry.counter("fabric_joins", group=group_id).incr()
                await member.join()
            elif event.kind is WorkloadKind.LEAVE:
                await member.leave()

    async def muster() -> None:
        """Bring every member (back) in after the churn horizon, so the
        end-of-run convergence check spans the whole fabric."""
        delay = churn_until + 1.0 - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        for group in members.values():
            for member in group.values():
                if not member.desired:
                    await member.join()

    async def app_traffic() -> None:
        round_no = 0
        while True:
            await asyncio.sleep(APP_INTERVAL)
            round_no += 1
            for group_id, group in members.items():
                for uid, member in group.items():
                    if member.connected:
                        await member.send_app(
                            f"{group_id}|{uid}|r{round_no}".encode()
                        )

    # -- the adversary: active cross-posting ---------------------------------

    cross_attempts = 0
    foreign_attempts = 0
    lifecycle_busy = asyncio.Lock()

    async def cross_poster() -> None:
        """Rewrap one group's sealed frame for another group's shard.

        Injected via ``deliver_raw`` (bypassing the fault policy), so
        every attempt reaches a shard and the report can demand
        attempts == rejections exactly.
        """
        nonlocal cross_attempts, foreign_attempts
        turn = 0
        while True:
            await asyncio.sleep(CROSS_POST_INTERVAL)
            async with lifecycle_busy:
                turn += 1
                src = group_ids[turn % len(group_ids)]
                dst = group_ids[(turn + 1) % len(group_ids)]
                sender = next(
                    (m for m in members[src].values() if m.connected), None
                )
                leader = hosting(dst)
                if sender is None or leader is None:
                    continue
                # A sealed frame from src's key space, readdressed to
                # dst's leader: the demux routes it, dst's key kills it.
                legit = sender.follower.protocol.seal_app(
                    f"LEAK|{src}|{turn}".encode()
                )
                forged = Envelope(
                    legit.label, legit.sender, dst, legit.body
                )
                evil_frames.add(frame_id(forged))
                cross_attempts += 1
                await net.deliver_raw(wrap_group(
                    dst, forged, fabric.record(dst).shard_id
                ))
                # And a frame scoped to a group id nobody hosts.
                phantom = wrap_group(
                    "grp-phantom", legit, fabric.record(dst).shard_id
                )
                foreign_attempts += 1
                await net.deliver_raw(phantom)

    # -- fabric lifecycle events ---------------------------------------------

    migrations: list[dict] = []
    migration_downtime: float | None = None
    rebalance_lines: list[str] = []
    crashed_shard: str | None = None
    regrouped = 0

    async def do_migration(group_id: str, kind: str) -> dict | None:
        source_id = fabric.record(group_id).shard_id
        source = shards[source_id]
        target_id = min(
            (s for s in fabric.shard_ids if s != source_id),
            key=lambda s: (len(fabric.groups_on(s)), s),
        )
        target = shards[target_id]
        if not (source.alive and target.alive):
            return None
        _leader, report = migrate_group(
            fabric, source.host, target.host, group_id,
            users[group_id],
            config=leader_config,
            rng=rng.fork(f"migrate-{group_id}"),
            telemetry=bus,
        )
        entry = {
            "group": group_id,
            "source": report.source,
            "target": report.target,
            "record_seq": report.record_seq,
            "old_fingerprint": report.old_fingerprint,
            "kind": kind,
        }
        migrations.append(entry)
        return entry

    async def wait_group_converged(group_id: str, timeout: float) -> bool:
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            leader = hosting(group_id)
            if leader is not None:
                fingerprint = leader.group_key_fingerprint
                wanted = [
                    m for m in members[group_id].values() if m.desired
                ]
                if wanted and all(
                    m.follower.connected
                    and m.group_key_fingerprint == fingerprint
                    for m in wanted
                ):
                    return True
            await asyncio.sleep(0.25)
        return False

    async def lifecycle() -> None:
        nonlocal migration_downtime, crashed_shard, regrouped
        events: list[tuple[float, str]] = []
        if config.migrate_at is not None:
            events.append((config.migrate_at, "migrate"))
        if config.rebalance_at is not None:
            events.append((config.rebalance_at, "rebalance"))
        if config.crash_shard_at is not None:
            events.append((config.crash_shard_at, "crash"))
        for at, kind in sorted(events):
            delay = at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            async with lifecycle_busy:
                if kind == "migrate":
                    # Deterministic choice: the first group on the most
                    # loaded shard (ties by shard id).
                    load = fabric.load()
                    busiest = max(
                        sorted(load), key=lambda s: (load[s], s)
                    )
                    group_id = fabric.groups_on(busiest)[0]
                    flip = loop.time()
                    moved = await do_migration(group_id, "explicit")
                    if moved and await wait_group_converged(
                        group_id, CONVERGE_TIMEOUT
                    ):
                        migration_downtime = loop.time() - flip
                elif kind == "rebalance":
                    # Publish join rates, then let the policy speak.
                    for group_id in group_ids:
                        joins = registry.counter(
                            "fabric_joins", group=group_id
                        ).value
                        registry.gauge(
                            "fabric_join_rate", group=group_id
                        ).set(joins / max(loop.time(), 1.0))
                    policy = RebalancePolicy(rng=rng.fork("balancer"))
                    proposals = policy.propose(fabric, registry)
                    for proposal in proposals:
                        rebalance_lines.append(
                            f"{proposal.group_id}: {proposal.source} -> "
                            f"{proposal.target} ({proposal.reason})"
                        )
                        await do_migration(proposal.group_id, "rebalance")
                elif kind == "crash":
                    load = fabric.load()
                    victims = [
                        s for s in sorted(load) if shards[s].alive
                    ]
                    if len(victims) < 2:
                        continue
                    victim = max(victims, key=lambda s: (load[s], s))
                    crashed_shard = victim
                    runtime = shards[victim]
                    n_groups = len(runtime.host.groups)
                    keys = {
                        g: fabric.storage_key(g)
                        for g in runtime.host.groups
                    }
                    paths = {
                        g: runtime.host.journal_path(g)
                        for g in runtime.host.groups
                    }
                    await runtime.crash()
                    bus.emit(ShardFailed(victim, n_groups))
                    # Directory failover: entries re-point to survivors,
                    # then each group is re-hosted from its durable
                    # journal prefix.
                    moved = fabric.fail_shard(victim)
                    regrouped = len(moved)
                    runtime.host.disk.restart()
                    for group_id in moved:
                        data = runtime.host.disk.read(paths[group_id])
                        result = replay_records(data, keys[group_id])
                        new_home = shards[fabric.record(group_id).shard_id]
                        new_home.host.host_group(
                            group_id, users[group_id],
                            storage_key=keys[group_id],
                            config=leader_config,
                            state=rehost_cold(result.state),
                            start_seq=result.last_seq + 1,
                            rng=rng.fork(f"rehost-{group_id}"),
                        )

    tasks = [
        loop.create_task(monitor()),
        loop.create_task(app_traffic()),
        loop.create_task(cross_poster()),
        loop.create_task(muster()),
        loop.create_task(lifecycle()),
    ] + [
        loop.create_task(churn(group_id)) for group_id in group_ids
    ]

    await asyncio.sleep(config.duration - loop.time())
    # Stop the noise (workload + adversary); let recovery finish.
    for task in tasks[1:3]:
        task.cancel()

    # -- convergence ---------------------------------------------------------

    def converged_now() -> tuple[bool, int, int]:
        desired = 0
        good = 0
        for group_id, group in members.items():
            leader = hosting(group_id)
            fingerprint = (
                leader.group_key_fingerprint if leader else None
            )
            for uid, member in group.items():
                if not member.desired:
                    continue
                desired += 1
                if (
                    leader is not None
                    and member.follower.connected
                    and member.group_key_fingerprint == fingerprint
                    and leader.outbox_depth(uid) == 0
                ):
                    good += 1
        return good == desired, desired, good

    converge_time: float | None = None
    deadline = loop.time() + CONVERGE_TIMEOUT
    while loop.time() < deadline:
        done, _desired, _good = converged_now()
        if done:
            converge_time = loop.time()
            break
        await asyncio.sleep(0.25)
    converged, n_desired, n_converged = converged_now()
    sample_safety()
    if not converged:
        # Name the stragglers — a soak that fails to converge should say
        # exactly who is stuck and how.
        for group_id, group in sorted(members.items()):
            leader = hosting(group_id)
            for uid, member in sorted(group.items()):
                if not member.desired:
                    continue
                fp = member.group_key_fingerprint
                want = leader.group_key_fingerprint if leader else None
                depth = leader.outbox_depth(uid) if leader else -1
                if (
                    leader is None or not member.follower.connected
                    or fp != want or depth != 0
                ):
                    notes.append(
                        f"stuck: {uid} state={member.follower.state.name} "
                        f"key={fp} want={want} outbox={depth} "
                        f"leader={'up' if leader else 'DOWN'}"
                    )

    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except asyncio.CancelledError:
            pass

    # -- isolation audit -----------------------------------------------------

    app_delivered = 0
    cross_deliveries = 0
    rejoins = 0
    for group_id, group in members.items():
        for uid, member in group.items():
            rejoins += member.follower.rejoins
            while not member.events.empty():
                event = member.events.get_nowait()
                if not isinstance(event, AppMessage):
                    continue
                payload = event.payload
                parts = payload.split(b"|")
                if len(parts) != 3:
                    continue  # heartbeat beacons etc.
                app_delivered += 1
                if parts[0].decode() != group_id:
                    cross_deliveries += 1
                    violations.append(
                        f"{uid}: accepted cross-group payload "
                        f"{payload[:40]!r}"
                    )

    for group in members.values():
        for member in group.values():
            await member.stop()
    for runtime in shards.values():
        await runtime.stop()
    bus.unsubscribe(observe)

    if counts["cross_rejected"] != cross_attempts:
        violations.append(
            f"cross-post rejections {counts['cross_rejected']} != "
            f"attempts {cross_attempts} (a forged frame went unanswered)"
        )
    if counts["foreign_rejected"] != foreign_attempts:
        violations.append(
            f"phantom-group rejections {counts['foreign_rejected']} != "
            f"attempts {foreign_attempts}"
        )

    return FabricReport(
        seed=config.seed,
        duration=config.duration,
        n_groups=config.n_groups,
        n_shards=config.n_shards,
        n_members=config.n_groups * MEMBERS_PER_GROUP,
        converged=converged,
        converge_time=converge_time,
        n_desired=n_desired,
        n_converged=n_converged,
        violations=sorted(set(violations)),
        cross_post_attempts=cross_attempts,
        cross_post_rejected=counts["cross_rejected"],
        foreign_post_attempts=foreign_attempts,
        foreign_post_rejected=counts["foreign_rejected"],
        cross_group_deliveries=cross_deliveries,
        app_delivered=app_delivered,
        redirects=counts["redirects"],
        rejoins=rejoins,
        migrations=migrations,
        migration_downtime=migration_downtime,
        rebalance_proposals=rebalance_lines,
        crashed_shard=crashed_shard,
        regrouped=regrouped,
        directory_version=fabric.version,
        placements=fabric.placements(),
        notes=notes,
    )


def run_fabric_soak(
    config: FabricConfig | None = None,
    telemetry: EventBus | None = None,
) -> FabricReport:
    """Run one fabric soak deterministically on the virtual clock."""
    config = config if config is not None else FabricConfig.full()
    return run_virtual(_run_fabric(config, telemetry))


def _cmd_demo(args, _bus) -> int:
    """Scripted sharded-hosting tour: placement, demux, isolation."""
    seed = args.seed
    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    users = UserDirectory()
    shard_ids = ["shard-a", "shard-b"]
    fabric = GroupDirectory(shard_ids, rng=rng.fork("directory"))
    shards = {
        shard_id: ShardHost(
            shard_id, SimDisk(rng=rng.fork(f"disk-{shard_id}")),
            rng=rng.fork(shard_id),
        )
        for shard_id in shard_ids
    }
    for shard_id, host in shards.items():
        wire(net, shard_id, host)

    print(f"fabric demo — {len(shard_ids)} shards, seed={seed}")
    members: dict[str, FabricMember] = {}
    for g in range(3):
        group_id = f"grp-{g}"
        record = fabric.create_group(group_id)
        shards[record.shard_id].host_group(
            group_id, users, storage_key=record.storage_key
        )
        for m in range(2):
            uid = f"{group_id}.u{m}"
            creds = users.register_password(uid, f"pw-{uid}")
            fm = FabricMember(creds, group_id, fabric, rng=rng.fork(uid))
            members[uid] = fm
            wire(net, uid, fm)
            net.post_all(fm.start_join())
            net.run()
        print(f"  {group_id:<8} placed on {record.shard_id} "
              f"(directory v{record.version}), members joined: "
              f"{shards[record.shard_id].leader(group_id).members}")

    for group_id in ("grp-0", "grp-1", "grp-2"):
        net.post(members[f"{group_id}.u0"].seal_app(
            f"hello {group_id}".encode()
        ))
        net.run()

    # Cross-post grp-0's sealed frame into grp-1's key space, plus a
    # frame scoped to a group nobody hosts: both die loudly.
    legit = members["grp-0.u0"].protocol.seal_app(b"LEAK")
    victim = fabric.record("grp-1")
    forged = Envelope(legit.label, legit.sender, "grp-1", legit.body)
    net.post(wrap_group("grp-1", forged, victim.shard_id))
    net.post(wrap_group("grp-phantom", legit, victim.shard_id))
    net.run()

    delivered = sum(
        len(net.events_of(uid, AppMessage)) for uid in members
    )
    print(f"  app deliveries     : {delivered} "
          "(one echo-free relay per fellow member)")
    for shard_id, host in sorted(shards.items()):
        s = host.stats
        print(f"  {shard_id:<8} demux     : {s.frames_in} in, "
              f"{s.delivered} delivered, {s.foreign_rejected} foreign "
              f"rejected, {s.malformed} malformed")
    foreign = sum(h.stats.foreign_rejected for h in shards.values())
    leaked = sum(
        1 for uid, fm in members.items()
        for e in net.events_of(uid, AppMessage)
        if b"LEAK" in e.payload
    )
    print(f"  isolation          : cross-post leaked to {leaked} members; "
          f"{foreign} phantom-group frame(s) rejected by the demux")
    return 0 if leaked == 0 and foreign >= 1 else 1


def _cmd_migrate(args, _bus) -> int:
    demo = run_migration_demo(args.seed)
    print(demo.format_report())
    return 0 if demo.ok else 1


def _cmd_soak(args, bus) -> int:
    report = run_fabric_soak(
        FabricConfig.full(
            seed=args.seed,
            n_groups=args.groups,
            n_shards=args.shards,
            duration=args.duration,
        ),
        telemetry=bus,
    )
    print(report.format_table())
    return 0 if (
        report.safe and report.isolated and report.converged
    ) else 1


def register(sub) -> None:
    fabric = sub.add_parser(
        "fabric",
        help="drive the multi-group fabric (demo / soak / migrate)",
    )
    fabric.add_argument("mode", choices=("demo", "soak", "migrate"),
                        help="scripted shard demo, seeded many-group "
                             "soak, or live-migration walkthrough")
    fabric.add_argument("--seed", type=int, default=7)
    fabric.add_argument("--groups", type=int, default=16,
                        help="groups in the soak")
    fabric.add_argument("--shards", type=int, default=4,
                        help="shard hosts in the soak")
    fabric.add_argument("--duration", type=float, default=40.0,
                        help="virtual seconds of soak workload")
    fabric.add_argument("--telemetry", metavar="PATH",
                        help="export the run's event stream as JSONL "
                             "(schema-validated before exit)")
    fabric.set_defaults(select="mode", dispatch={
        "demo": (_cmd_demo, "telemetry", False, ""),
        "migrate": (_cmd_migrate, "telemetry", False, ""),
        "soak": (_cmd_soak, "telemetry", True, ""),
    })
