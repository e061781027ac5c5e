"""Self-healing member runtime + leader crash/restart orchestration.

The improved protocol denies *silently* (§2.3 fix), so a member cannot
distinguish a dead leader from one that is ignoring it: liveness
detection must be timer-driven.  :class:`ResilientMemberClient` is the
one asyncio shell around the sans-IO rejoin discipline,
:class:`~repro.enclaves.itgm.member.Follower`: one endpoint, one
receive loop, one follower per leader it may follow, and a watchdog fed
by *authenticated* traffic (leader heartbeats, admin messages, relayed
app data), with exponential backoff + jitter on rejoin and failover
across the followers in order.  The chaos soak drives it over standby
managers, the fabric soak over one
:class:`~repro.fabric.member.FabricMember` per member, and a member of
one leader is one follower under it.

:class:`LeaderOrchestrator` is the other half: it runs the current
manager as a :class:`~repro.enclaves.itgm.runtime.LeaderRuntime`, can
crash it (endpoint detached, frames to it vanish — a real crash, not a
graceful stop), restore it *warm* by replaying its write-ahead journal,
or fail over *cold* to the next standby manager.

Design notes:

* Liveness refreshes only on events that required a key to produce
  (never on ``Rejected``/``Denied``), so injected junk cannot spoof a
  live leader.
* A leader never accepts a fresh ``AuthInitReq`` while it holds an
  active session for the user, so rejoining a *live* leader (partition
  heal, spurious suspicion) closes the stale session first: the
  follower's cached ``ReqClose`` rides ahead of every join frame and
  every retransmission until a join lands.
* A half-open join is *resumed*, never abandoned: each leader's
  follower keeps its protocol across attempts, and a leave that arrives
  mid-handshake waits for the join to land.
* Recovery is terminal: after ``max_rounds`` passes over the followers,
  :class:`~repro.exceptions.RecoveryFailed` surfaces as a
  :class:`~repro.telemetry.events.RecoveryGaveUp` event and
  :attr:`ResilientMemberClient.gave_up` — a clean error, not a hang.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import RandomSource, SystemRandom
from repro.enclaves.common import (
    Denied,
    Event,
    Rejected,
    UserDirectory,
)
from repro.enclaves.itgm.failover import ManagerSet
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.member import Follower, MemberState
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.exceptions import ConnectionClosed, RecoveryFailed, StateError
from repro.telemetry.events import (
    EventBus,
    LeaderCrashed,
    LeaderFailover,
    LeaderRestored,
    RecoveryGaveUp,
    RejoinCompleted,
    WatchdogFired,
    resolve_bus,
)
from repro.util.clock import Clock
from repro.wire.message import Envelope


@dataclass
class SupervisorConfig:
    """Timers and budgets for the self-healing member."""

    #: Seconds of authenticated silence before the leader is suspected.
    liveness_timeout: float = 2.5
    #: Watchdog poll interval.
    check_interval: float = 0.25
    #: Budget for one join attempt against one leader.
    join_timeout: float = 1.0
    #: Retransmission interval of a half-open join (close included).
    retransmit_interval: float = 0.25
    #: Exponential backoff between failed attempts (doubling, capped).
    backoff_base: float = 0.25
    backoff_max: float = 2.0
    #: Jitter fraction: each backoff is scaled by 1 ± jitter/2.
    jitter: float = 0.5
    #: Full passes over the followers before giving up.
    max_rounds: int = 8

    def __post_init__(self) -> None:
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_max < 0:
            raise ValueError("backoff_max must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")


class ResilientMemberClient:
    """A member that detects leader death and heals itself.

    ``followers`` maps each leader this member may follow to its
    :class:`Follower`, in failover order.  Every follower keeps its
    session state for the client's lifetime; inbound frames go to the
    one currently followed (:attr:`active`).  :meth:`join` and
    :meth:`leave` set the member's intent; the supervision task does
    the rest.
    """

    def __init__(
        self,
        followers: dict[str, Follower],
        network,
        config: SupervisorConfig | None = None,
        rng: RandomSource | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        if not followers:
            raise ValueError("need a follower for at least one leader")
        for leader_id, follower in followers.items():
            if follower.leader_id != leader_id:
                raise ValueError(
                    f"the follower filed under {leader_id!r} follows "
                    f"{follower.leader_id!r}"
                )
        self.followers = dict(followers)
        self._network = network
        self.user_id = next(iter(followers.values())).user_id
        self.config = config if config is not None else SupervisorConfig()
        self._jitter_rng = (
            rng if rng is not None else SystemRandom()
        ).fork("supervisor-jitter")

        self._telemetry = resolve_bus(telemetry)
        self._endpoint = None
        self._tasks: list[asyncio.Task] = []
        #: The leader followed now (or being joined).
        self.active = next(iter(followers))
        #: Whether the member wants to be in the group.
        self.desired = False
        self._leave_after_join = False
        #: Set when the active follower becomes keyed and when the
        #: intent changes; what an attempt or an idle tick awaits.
        self._wake = asyncio.Event()
        #: Set, then replaced, when the active follower becomes keyed
        #: and when the shell gives up: what :meth:`wait_keyed` awaits.
        self._settled = asyncio.Event()
        self._last_alive = 0.0
        self.gave_up = False
        #: Why the most recent join attempt failed (for the terminal
        #: RecoveryGaveUp event and operator forensics).
        self.last_error = ""

        #: Every protocol event of the followed sessions, in order.
        self.events: asyncio.Queue[Event] = asyncio.Queue()
        # Recovery observability.
        self.suspicions = 0
        self.rejoins = 0
        self.attempts = 0
        self.rejoin_latencies: list[float] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def follower(self) -> Follower:
        """The follower of the leader we currently follow."""
        return self.followers[self.active]

    @property
    def connected(self) -> bool:
        return self.follower.keyed

    @property
    def group_key_fingerprint(self) -> str | None:
        return self.follower.protocol.group_key_fingerprint

    async def start(self) -> None:
        """Attach the endpoint and start the receive and supervision
        tasks; the member joins once :meth:`join` asks it to."""
        if self._tasks:
            return
        self._endpoint = await self._network.attach(self.user_id)
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._recv_loop()),
            loop.create_task(self._run()),
        ]

    async def join(self) -> None:
        """Want to be in the group: the handshake starts at once."""
        await self.start()
        self._leave_after_join = False
        if not self.desired:
            self.desired = True
            self._wake.set()

    async def leave(self) -> None:
        """Want to be out of the group.  A half-open join finishes (is
        keyed) first — abandoning it would strand the leader's session."""
        if self.follower.keyed:
            self.desired = False
            await self._send([self.follower.start_leave()])
        elif self.desired and self.follower.state is not (
            MemberState.NOT_CONNECTED
        ):
            self._leave_after_join = True
        else:
            self.desired = False

    async def stop(self) -> None:
        """Stop both tasks and release the address."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if self._endpoint is not None:
            await self._endpoint.close()
            self._endpoint = None

    async def wait_keyed(self) -> None:
        """Wait until the followed leader has keyed this member; raise
        :class:`~repro.exceptions.RecoveryFailed` if the shell has given
        up.  No timeout of its own: wrap it in :func:`asyncio.wait_for`."""
        while not self.follower.keyed:
            if self.gave_up:
                raise RecoveryFailed(self.last_error)
            await self._settled.wait()

    async def wait_done(self) -> None:
        """Wait until the supervision task exits (only on give-up)."""
        if self._tasks:
            await asyncio.shield(self._tasks[1])

    # -- the two tasks -----------------------------------------------------

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    async def _send(self, frames: list[Envelope]) -> None:
        for frame in frames:
            await self._endpoint.send(frame)

    async def _recv_loop(self) -> None:
        """Feed every inbound frame to the active follower; events that
        took a key to produce (never Rejected/Denied) feed the watchdog."""
        try:
            while True:
                envelope = await self._endpoint.recv()
                follower = self.follower
                was_keyed = follower.keyed
                out, events = follower.handle(envelope)
                await self._send(out)
                for event in events:
                    if not isinstance(event, (Rejected, Denied)):
                        self._last_alive = self._now()
                    self.events.put_nowait(event)
                if follower.keyed and not was_keyed:
                    self._wake.set()
                    self._settle()
                    if self._leave_after_join:
                        # Keyed, so the leader has our AuthAckKey: only
                        # now does it accept the close.
                        self._leave_after_join = False
                        await self.leave()
        except (ConnectionClosed, asyncio.CancelledError):
            pass

    def _settle(self) -> None:
        self._settled.set()
        self._settled = asyncio.Event()

    async def _sleep(self, timeout: float) -> None:
        """Sleep up to ``timeout``, or until woken (cleared first: the
        callers check what they wait for just before)."""
        self._wake.clear()
        try:
            await asyncio.wait_for(self._wake.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def _run(self) -> None:
        try:
            while True:
                silence = self._now() - self._last_alive
                if not self.desired:
                    await self._sleep(self.config.check_interval)
                elif not self.follower.connected:
                    await self._reconnect()
                elif silence >= self.config.liveness_timeout:
                    self.suspicions += 1
                    if self._telemetry:
                        self._telemetry.emit(WatchdogFired(
                            self.user_id, self.active, silence
                        ))
                    await self._reconnect()
                else:
                    await self._sleep(self.config.check_interval)
        except RecoveryFailed as exc:
            self.gave_up = True
            if not self.last_error:
                self.last_error = str(exc)
            self._settle()
            if self._telemetry:
                self._telemetry.emit(RecoveryGaveUp(
                    self.user_id, self.attempts, self.last_error
                ))

    # -- recovery -----------------------------------------------------------

    def _rotation(self) -> list[str]:
        """Leader order starting from the one we currently follow."""
        order = list(self.followers)
        i = order.index(self.active)
        return order[i:] + order[:i]

    def _backoff(self, attempt: int) -> float:
        """``min(max, base * 2**attempt)`` scaled by ``1 + jitter*(u - 0.5)``
        for one uniform draw ``u``; no draw when ``jitter`` is 0."""
        cfg = self.config
        delay = min(cfg.backoff_max, cfg.backoff_base * 2.0 ** attempt)
        if cfg.jitter == 0.0:
            return delay
        return delay * (1.0 + cfg.jitter * (self._jitter_rng.uniform() - 0.5))

    async def _reconnect(self) -> None:
        """Cycle leaders with backoff until joined (or no longer
        wanted); terminal on budget."""
        down_since = self._now()
        attempts_here = 0
        rotation = self._rotation()
        for _round in range(self.config.max_rounds):
            for leader_id in rotation:
                self.attempts += 1
                if await self._attempt(leader_id):
                    now = self._now()
                    downtime = now - down_since
                    self.rejoins += 1
                    self.rejoin_latencies.append(downtime)
                    self._last_alive = now
                    if self._telemetry:
                        self._telemetry.emit(RejoinCompleted(
                            self.user_id, leader_id,
                            attempts_here + 1, downtime,
                        ))
                    return
                if not self.desired:
                    return
                await asyncio.sleep(self._backoff(attempts_here))
                attempts_here += 1
                if not self.desired:
                    return
        raise RecoveryFailed(
            f"{self.user_id}: no leader reachable after "
            f"{self.config.max_rounds} rounds over {rotation}"
        )

    async def _attempt(self, leader_id: str) -> bool:
        """One join attempt against one leader; True once keyed.

        A stale session is abandoned (its close cached), a half-open
        join resumed; the frames go out again every
        ``retransmit_interval`` and the attempt ends the moment the
        follower is keyed.
        """
        cfg = self.config
        self.active = leader_id
        follower = self.follower
        if follower.connected:
            follower.reset_for_rejoin()
        frames = (
            follower.retransmit_last()
            if follower.state is MemberState.WAITING_FOR_KEY
            else follower.start_join()
        )

        async def resend(frames: list[Envelope]) -> None:
            while True:
                await self._send(frames)
                if follower.keyed or not self.desired:
                    return
                await self._sleep(cfg.retransmit_interval)
                frames = follower.retransmit_last()

        try:
            await asyncio.wait_for(resend(frames), cfg.join_timeout)
        except asyncio.TimeoutError:
            self.last_error = f"join {leader_id} timed out (denied or lost)"
        return follower.keyed

    # -- member actions ------------------------------------------------------

    async def send_app(self, payload: bytes) -> None:
        if not self.connected:
            raise StateError(f"{self.user_id} is not connected")
        await self._send([self.follower.seal_app(payload)])


# -- leader-side orchestration ----------------------------------------------


class LeaderOrchestrator:
    """Runs one manager at a time; crashes, restores, and fails over.

    A :class:`~repro.enclaves.itgm.failover.ManagerSet` (:attr:`managers`
    — ordinary :class:`GroupLeader` instances ``mgr-0``, ``mgr-1``, ...
    sharing one directory, and the succession rule) whose primary is
    driven as an asyncio :class:`LeaderRuntime` on a shared network.  A
    crash closes the endpoint — in-flight and future frames to that
    address vanish, as on a real dead host.
    """

    def __init__(
        self,
        network,
        directory: UserDirectory,
        manager_ids: list[str],
        config: LeaderConfig | None = None,
        rng: RandomSource | None = None,
        clock: Clock | None = None,
        tick_interval: float | None = 0.25,
        heartbeat_interval: float | None = 0.5,
        telemetry: EventBus | None = None,
        disk=None,
    ) -> None:
        if not manager_ids:
            raise ValueError("need at least one manager")
        self.network = network
        self.directory = directory
        self._clock = clock
        self._tick_interval = tick_interval
        self._heartbeat_interval = heartbeat_interval
        self._telemetry = resolve_bus(telemetry)
        rng = rng if rng is not None else SystemRandom()
        self._rng = rng
        # Every manager journals onto this (simulated) disk — a private
        # one unless the caller wants to inject faults or inspect it —
        # and crash recovery replays the journal.
        if disk is None:
            from repro.storage.simdisk import SimDisk

            disk = SimDisk(rng=rng.fork("disk"))
        self._disk = disk
        self._storage_key = KeyMaterial(
            rng.fork("journal-storage").key_material(KEY_LEN)
        )
        self._journals: dict[str, object] = {}
        self._all_journals: list = []
        self.journal_replays = 0
        self.journal_records_replayed = 0
        #: Who is primary, who has failed and who succeeds whom.
        self.managers = ManagerSet.create(
            len(manager_ids), directory, config=config, rng=rng,
            manager_ids=manager_ids, clock=clock,
            telemetry=self._telemetry,
        )
        self.runtime: LeaderRuntime | None = None
        self.crashes = 0
        self.warm_restores = 0
        self.failovers = 0

    @property
    def current_id(self) -> str:
        return self.managers.primary_id

    @property
    def current_leader(self) -> GroupLeader:
        return self.managers.primary

    async def start(self) -> None:
        """Bring the current manager online."""
        if self.runtime is not None:
            raise StateError("a manager is already running")
        await self._launch(self.current_id)

    def _attach_journal(self, manager_id: str) -> None:
        from repro.storage.journal import Journal

        journal = Journal(
            self._disk, f"{manager_id}.wal", self._storage_key,
            rng=self._rng.fork(
                f"journal-{manager_id}-{len(self._all_journals)}"
            ),
            node=manager_id,
            telemetry=self._telemetry,
        )
        journal.attach(self.managers.managers[manager_id])
        self._journals[manager_id] = journal
        self._all_journals.append(journal)

    def journal_counters(self) -> dict[str, int]:
        """Accumulated durability counters across every journal epoch."""
        return {
            "journal_appends": sum(j.appends for j in self._all_journals),
            "journal_fsyncs": sum(j.fsyncs for j in self._all_journals),
            "journal_compactions": sum(
                j.compactions for j in self._all_journals
            ),
            "journal_replays": self.journal_replays,
            "journal_records_replayed": self.journal_records_replayed,
        }

    async def _launch(self, manager_id: str) -> None:
        self._attach_journal(manager_id)
        endpoint = await self.network.attach(manager_id)
        self.runtime = LeaderRuntime(
            self.managers.managers[manager_id],
            endpoint,
            tick_interval=self._tick_interval,
            heartbeat_interval=self._heartbeat_interval,
        )
        self.runtime.start()

    async def stop(self) -> None:
        """Graceful stop (no crash semantics)."""
        if self.runtime is not None:
            await self.runtime.stop()
            self.runtime = None

    # -- fault injection ----------------------------------------------------

    async def crash(self, flush: bool = False) -> None:
        """Kill the running manager.

        The journal is what :meth:`restore_warm` comes back from.
        ``flush`` syncs its tail first (clean-ish shutdown); without it
        the power cut leaves only what fsync had already covered.
        """
        if self.runtime is None:
            raise StateError("no manager is running")
        if flush:
            self._journals[self.current_id].sync()
        self._disk.crash("all" if flush else "none")
        self._disk.restart()
        await self.runtime.stop()
        self.runtime = None
        self.crashes += 1
        if self._telemetry:
            self._telemetry.emit(LeaderCrashed(self.current_id, flush))

    async def restore_warm(self) -> None:
        """Restart the crashed manager by replaying its journal."""
        from repro.storage.recovery import recover_leader

        if self.runtime is not None:
            raise StateError("a manager is already running")
        old = self.current_leader
        leader, result = recover_leader(
            self._disk, f"{self.current_id}.wal",
            self._storage_key, self.directory,
            config=old.config, rng=old._rng, clock=self._clock,
            telemetry=self._telemetry, node=self.current_id,
        )
        self.journal_replays += 1
        self.journal_records_replayed += result.records
        self.managers.managers[self.current_id] = leader
        await self._launch(self.current_id)
        self.warm_restores += 1
        if self._telemetry:
            self._telemetry.emit(LeaderRestored(self.current_id))

    async def failover(self) -> str:
        """Promote the next live standby; the dead primary stays dead.

        Raises :class:`StateError` when every manager has failed —
        the clean terminal outcome, mirrored on the member side by
        :class:`~repro.telemetry.events.RecoveryGaveUp`.
        """
        if self.runtime is not None:
            await self.crash(flush=False)
        dead = self.current_id
        candidate = self.managers.fail_primary()
        await self._launch(candidate)
        self.failovers += 1
        if self._telemetry:
            self._telemetry.emit(LeaderFailover(dead, candidate))
        return candidate
