"""Self-healing member runtime + leader crash/restart orchestration.

The improved protocol denies *silently* (§2.3 fix), so a member cannot
distinguish a dead leader from one that is ignoring it: liveness
detection must be timer-driven.  :class:`ResilientMemberClient` wraps
:class:`~repro.enclaves.itgm.client.MemberClient` with exactly that — a
watchdog fed by *authenticated* traffic (leader heartbeats, admin
messages, relayed app data), exponential backoff + jitter on
rejoin, and automatic failover across an ordered manager list.

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
  heal, spurious suspicion) requires closing the stale session first.
  The supervisor caches the sealed ReqClose per manager and resends it
  before each join attempt — byte-identical resends are always safe.
* A half-open join (leader in WaitingForKeyAck) is *resumed*, not
  abandoned: the per-manager protocol object is kept, and its
  AuthInitReq retransmitted, because the leader will only ever answer
  that handshake until it completes.
* Recovery is terminal: after ``max_rounds`` passes over the manager
  list, :class:`~repro.exceptions.RecoveryFailed` surfaces as a
  :class:`RecoveryExhausted` event and :attr:`gave_up` — a clean error,
  not a hang.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import RandomSource, SystemRandom
from repro.enclaves.common import (
    Credentials,
    Denied,
    Event,
    Rejected,
    UserDirectory,
)
from repro.enclaves.itgm.client import MemberClient
from repro.enclaves.itgm.failover import ManagerSet
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.member import MemberState
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.exceptions import ProtocolError, RecoveryFailed, StateError
from repro.net.transport import Endpoint
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


# -- supervisor events -------------------------------------------------------


@dataclass(frozen=True)
class LeaderSuspected(Event):
    """The watchdog saw no authenticated traffic for too long."""

    leader_id: str
    silence: float


@dataclass(frozen=True)
class RejoinedGroup(Event):
    """Recovery succeeded: connected and keyed at ``leader_id``."""

    leader_id: str
    attempts: int
    downtime: float


@dataclass(frozen=True)
class RecoveryExhausted(Event):
    """Every rejoin avenue failed; the supervisor gave up."""

    attempts: int


@dataclass
class SupervisorConfig:
    """Timers and budgets for the self-healing member."""

    #: Seconds of authenticated silence before the leader is suspected.
    liveness_timeout: float = 2.5
    #: Watchdog poll interval.
    check_interval: float = 0.25
    #: Budget for one join attempt against one manager.
    join_timeout: float = 1.0
    #: AuthInitReq retransmission interval while joining.
    retransmit_interval: float = 0.25
    #: Exponential backoff between failed attempts (doubling, capped).
    backoff_base: float = 0.25
    backoff_max: float = 2.0
    #: Jitter fraction: each backoff is scaled by 1 ± jitter/2.
    jitter: float = 0.5
    #: Full passes over the manager list before giving up.
    max_rounds: int = 8

    def __post_init__(self) -> None:
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_max < 0:
            raise ValueError("backoff_max must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")


class _SharedEndpoint(Endpoint):
    """An endpoint wrapper whose close() is a no-op.

    The supervisor keeps one real network endpoint for the member's
    whole life but cycles through per-manager :class:`MemberClient`
    instances; each client's ``stop()`` closes its endpoint, which must
    not tear down the shared address.
    """

    def __init__(self, inner: Endpoint) -> None:
        self._inner = inner

    @property
    def address(self) -> str:
        return self._inner.address

    async def send(self, envelope: Envelope) -> None:
        await self._inner.send(envelope)

    async def recv(self) -> Envelope:
        return await self._inner.recv()

    async def close(self) -> None:
        pass  # the supervisor owns the real endpoint's lifetime


class ResilientMemberClient:
    """A member that detects leader death and heals itself.

    One :class:`MemberClient` per manager is kept for the supervisor's
    lifetime (the sans-IO protocol core supports multiple sessions), all
    sharing one network endpoint; exactly one client's receive loop runs
    at a time.  ``credentials_for`` maps manager id -> this user's
    credentials toward that manager (identical entries under password
    provisioning, per-manager under DH).
    """

    def __init__(
        self,
        credentials_for: dict[str, Credentials],
        manager_order: list[str],
        network,
        config: SupervisorConfig | None = None,
        rng: RandomSource | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        if not manager_order:
            raise ValueError("manager_order must not be empty")
        for manager_id in manager_order:
            if manager_id not in credentials_for:
                raise ValueError(f"no credentials for manager {manager_id!r}")
        self._credentials_for = credentials_for
        self.manager_order = list(manager_order)
        self._network = network
        self.user_id = next(iter(credentials_for.values())).user_id
        self.config = config if config is not None else SupervisorConfig()
        self._rng = rng if rng is not None else SystemRandom()
        self._jitter_rng = self._rng.fork("supervisor-jitter")

        self._telemetry = resolve_bus(telemetry)
        self._endpoint = None          # real MemoryEndpoint
        self._shared: _SharedEndpoint | None = None
        self._clients: dict[str, MemberClient] = {}
        self._pending_close: dict[str, Envelope] = {}
        self.active: str | None = None
        self._task: asyncio.Task | None = None
        self._last_alive = 0.0
        self.gave_up = False
        #: Why the most recent join attempt failed (for the terminal
        #: RecoveryGaveUp event and operator forensics).
        self.last_error = ""

        #: Supervisor + forwarded protocol events, in order.
        self.events: asyncio.Queue[Event] = asyncio.Queue()
        # Recovery observability.
        self.suspicions = 0
        self.rejoins = 0
        self.attempts = 0
        self.rejoin_latencies: list[float] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def client(self) -> MemberClient | None:
        """The client bound to the manager we currently follow."""
        return self._clients.get(self.active) if self.active else None

    @property
    def connected(self) -> bool:
        c = self.client
        return (
            c is not None
            and c.protocol.state is MemberState.CONNECTED
            and c.protocol.has_group_key
        )

    @property
    def group_key_fingerprint(self) -> str | None:
        c = self.client
        return c.protocol.group_key_fingerprint if c else None

    async def start(self) -> None:
        """Attach the endpoint and start the supervision task."""
        if self._task is not None:
            return
        self._endpoint = await self._network.attach(self.user_id)
        self._shared = _SharedEndpoint(self._endpoint)
        self._last_alive = self._now()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop supervision, all client loops, and release the address."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for client in self._clients.values():
            await client.stop()
        if self._endpoint is not None:
            await self._endpoint.close()
            self._endpoint = None

    async def wait_done(self) -> None:
        """Wait until the supervision task exits (only on give-up)."""
        if self._task is not None:
            await asyncio.shield(self._task)

    # -- supervision loop ---------------------------------------------------

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    async def _run(self) -> None:
        try:
            await self._reconnect()
            while True:
                await asyncio.sleep(self.config.check_interval)
                self._drain_active()
                silence = self._now() - self._last_alive
                if silence >= self.config.liveness_timeout:
                    self.suspicions += 1
                    assert self.active is not None
                    self.events.put_nowait(
                        LeaderSuspected(self.active, silence)
                    )
                    if self._telemetry:
                        self._telemetry.emit(WatchdogFired(
                            self.user_id, self.active, silence
                        ))
                    await self._reconnect()
        except RecoveryFailed as exc:
            self.gave_up = True
            if not self.last_error:
                self.last_error = str(exc)
            self.events.put_nowait(RecoveryExhausted(self.attempts))
            if self._telemetry:
                self._telemetry.emit(RecoveryGaveUp(
                    self.user_id, self.attempts, self.last_error
                ))

    def _drain_active(self) -> None:
        """Forward the active client's events; authenticated ones feed
        the watchdog (Rejected/Denied never do — junk is not liveness)."""
        client = self.client
        if client is None:
            return
        while not client.events.empty():
            event = client.events.get_nowait()
            if not isinstance(event, (Rejected, Denied)):
                self._last_alive = self._now()
            self.events.put_nowait(event)

    # -- recovery -----------------------------------------------------------

    def _rotation(self) -> list[str]:
        """Manager order starting from the one we currently follow."""
        if self.active is None or self.active not in self.manager_order:
            return list(self.manager_order)
        i = self.manager_order.index(self.active)
        return self.manager_order[i:] + self.manager_order[:i]

    def _backoff(self, attempt: int) -> float:
        """``min(max, base * 2**attempt)`` scaled by ``1 + jitter*(u - 0.5)``
        for one uniform draw ``u``; no draw when ``jitter`` is 0."""
        cfg = self.config
        delay = min(cfg.backoff_max, cfg.backoff_base * 2.0 ** attempt)
        if cfg.jitter == 0.0:
            return delay
        return delay * (1.0 + cfg.jitter * (self._jitter_rng.uniform() - 0.5))

    async def _reconnect(self) -> None:
        """Cycle managers with backoff until joined; terminal on budget."""
        down_since = self._now()
        attempts_here = 0
        rotation = self._rotation()
        for _round in range(self.config.max_rounds):
            for manager_id in rotation:
                self.attempts += 1
                if await self._attempt(manager_id):
                    now = self._now()
                    downtime = now - down_since
                    self.rejoins += 1
                    self.rejoin_latencies.append(downtime)
                    self.active = manager_id
                    self._last_alive = now
                    self.events.put_nowait(
                        RejoinedGroup(manager_id, attempts_here + 1, downtime)
                    )
                    if self._telemetry:
                        self._telemetry.emit(RejoinCompleted(
                            self.user_id, manager_id,
                            attempts_here + 1, downtime,
                        ))
                    return
                await asyncio.sleep(self._backoff(attempts_here))
                attempts_here += 1
        raise RecoveryFailed(
            f"{self.user_id}: no manager reachable after "
            f"{self.config.max_rounds} rounds over {rotation}"
        )

    def _client_for(self, manager_id: str) -> MemberClient:
        client = self._clients.get(manager_id)
        if client is None:
            assert self._shared is not None
            client = MemberClient(
                self._credentials_for[manager_id],
                manager_id,
                self._shared,
                rng=self._rng.fork(f"toward-{manager_id}"),
                telemetry=self._telemetry,
            )
            self._clients[manager_id] = client
        return client

    async def _attempt(self, manager_id: str) -> bool:
        """One join attempt against one manager; True on success."""
        cfg = self.config
        # Only one receive loop at a time: park the previous client.
        if self.active is not None and self.active != manager_id:
            await self._clients[self.active].stop()
        client = self._client_for(manager_id)
        protocol = client.protocol
        if protocol.state is MemberState.CONNECTED:
            # Stale session (the leader went silent on us).  Close it
            # locally and tell the leader — a live leader refuses a
            # fresh AuthInitReq while this session is open.
            self._pending_close[manager_id] = protocol.start_leave()
        client.start()
        if protocol.state is MemberState.WAITING_FOR_KEY:
            # Resume the half-open handshake instead of starting a new
            # one the leader would reject.
            return await self._resume_join(manager_id, client)
        assert self._shared is not None
        close_frame = self._pending_close.get(manager_id)
        if close_frame is not None:
            await self._shared.send(close_frame)
        try:
            await client.join(
                timeout=cfg.join_timeout,
                retransmit_interval=cfg.retransmit_interval,
            )
        except ProtocolError as exc:
            self.last_error = f"join {manager_id} failed: {exc}"
            return False
        self._pending_close.pop(manager_id, None)
        self.active = manager_id
        return True

    async def _resume_join(
        self, manager_id: str, client: MemberClient
    ) -> bool:
        """Drive a half-open join to completion by retransmission.

        If a close for this manager's *previous* session is still
        pending (it may have been lost along with our AuthInitReq, and
        a live leader rejects a fresh handshake while the old session
        is open), resend it ahead of the handshake every time.
        """
        cfg = self.config
        assert self._shared is not None
        deadline = self._now() + cfg.join_timeout
        while self._now() < deadline:
            close_frame = self._pending_close.get(manager_id)
            if close_frame is not None:
                await self._shared.send(close_frame)
            frame = client.protocol.retransmit_last()
            if frame is not None:
                await self._shared.send(frame)
            await asyncio.sleep(cfg.retransmit_interval)
            if self._joined(client):
                break
        if self._joined(client):
            self._pending_close.pop(manager_id, None)
            return True
        self.last_error = (
            f"resumed join toward {manager_id} timed out"
        )
        return False

    @staticmethod
    def _joined(client: MemberClient) -> bool:
        return (
            client.protocol.state is MemberState.CONNECTED
            and client.protocol.has_group_key
        )

    # -- member actions (delegate to the active client) ---------------------

    async def send_app(self, payload: bytes) -> None:
        client = self.client
        if client is None or not self.connected:
            raise StateError(f"{self.user_id} is not connected")
        await client.send_app(payload)


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

    @property
    def running(self) -> bool:
        return self.runtime is not None

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
        :class:`RecoveryExhausted`.
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
