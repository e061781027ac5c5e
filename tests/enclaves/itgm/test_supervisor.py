"""Tests for the self-healing member and the leader orchestrator.

Everything runs on the virtual-time loop, so heartbeat timeouts,
backoff sleeps, and crash/restore races are exact and instant.
"""

import asyncio

import pytest

from repro.chaos.loop import LoopClock, run_virtual
from repro.crypto.rng import DeterministicRandom, SystemRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.itgm import (
    Follower,
    LeaderOrchestrator,
    ResilientMemberClient,
    SupervisorConfig,
    TextPayload,
)
from repro.enclaves.itgm.member import MemberState
from repro.exceptions import RecoveryFailed, StateError
from repro.net import MemoryNetwork
from repro.net.adversary import Adversary, Verdict
from repro.telemetry.events import (
    EventBus,
    RecoveryGaveUp,
    RejoinCompleted,
)
from repro.wire.labels import Label

MANAGERS = ["mgr-0", "mgr-1"]

FAST = SupervisorConfig(
    liveness_timeout=1.0,
    check_interval=0.1,
    join_timeout=0.5,
    retransmit_interval=0.1,
    backoff_base=0.1,
    backoff_max=0.5,
    max_rounds=4,
)


def build(n_members=2, manager_ids=MANAGERS, seed=3, config=FAST,
          disk=None, telemetry=None):
    net = MemoryNetwork()
    directory = UserDirectory()
    rng = DeterministicRandom(seed)
    member_ids = [f"user-{i}" for i in range(n_members)]
    creds = {
        uid: directory.register_password(uid, f"pw-{uid}")
        for uid in member_ids
    }
    orchestrator = LeaderOrchestrator(
        net, directory, list(manager_ids),
        rng=rng.fork("mgrs"),
        clock=LoopClock(asyncio.get_event_loop()),
        tick_interval=0.1, heartbeat_interval=0.25,
        disk=disk, telemetry=telemetry,
    )
    members = {
        uid: supervise(creds[uid], manager_ids, net, config=config,
                       rng=rng.fork(uid), telemetry=telemetry)
        for uid in member_ids
    }
    return net, orchestrator, members


def supervise(creds, manager_ids, network, config=None, rng=None,
              telemetry=None):
    """One member following ``manager_ids`` in order, on one address."""
    rng = rng if rng is not None else SystemRandom()
    return ResilientMemberClient(
        {
            m: Follower(creds, m, rng=rng.fork(f"toward-{m}"),
                        telemetry=telemetry)
            for m in manager_ids
        },
        network, config=config, rng=rng, telemetry=telemetry,
    )


async def start_all(orchestrator, members):
    await orchestrator.start()
    for supervisor in members.values():
        await supervisor.join()
    await asyncio.sleep(0.2)


async def stop_all(orchestrator, members):
    for supervisor in members.values():
        await supervisor.stop()
    await orchestrator.stop()


async def wait_until(predicate, timeout=30.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while asyncio.get_event_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.1)
    return predicate()


def bus_events(records, kind, node):
    """``node``'s ``kind`` events among captured bus records."""
    return [r.event for r in records
            if isinstance(r.event, kind) and r.event.node == node]


def events_of(supervisor, kind):
    out = []
    while not supervisor.events.empty():
        event = supervisor.events.get_nowait()
        if isinstance(event, kind):
            out.append(event)
    return out


class TestSelfHealing:
    def test_initial_join_connects_everyone(self):
        async def scenario():
            _, orchestrator, members = build()
            await start_all(orchestrator, members)
            try:
                for supervisor in members.values():
                    assert supervisor.connected
                    assert supervisor.active == "mgr-0"
                assert orchestrator.current_leader.members == sorted(members)
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_warm_restore_is_invisible_to_members(self):
        """A crash shorter than the liveness timeout, restored warm,
        causes no suspicion and keeps every session's nonce chain."""
        async def scenario():
            _, orchestrator, members = build()
            await start_all(orchestrator, members)
            try:
                await orchestrator.crash(flush=True)
                await asyncio.sleep(0.3)
                await orchestrator.restore_warm()
                await asyncio.sleep(2.0)
                for supervisor in members.values():
                    assert supervisor.connected
                    assert supervisor.suspicions == 0
                # The restored leader still serves the admin channel.
                await orchestrator.runtime.broadcast_admin(
                    TextPayload("post-restore")
                )
                assert await wait_until(lambda: all(
                    TextPayload("post-restore")
                    in s.follower.protocol.admin_log
                    for s in members.values()
                ))
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_warm_restore_with_pending_outboxes_and_retransmit_cache(self):
        """Crash with one admin in flight per member and more queued:
        the journal carries the retransmission cache and the
        outboxes, and the restored leader drains both."""
        async def scenario():
            _, orchestrator, members = build()
            await start_all(orchestrator, members)
            try:
                leader = orchestrator.current_leader
                # Queue three payloads back to back: the first is in
                # flight (stop-and-wait), the rest sit in each outbox.
                for text in ("one", "two", "three"):
                    leader.broadcast_admin(TextPayload(text))
                for uid in members:
                    assert leader.outbox_depth(uid) == 2
                await orchestrator.crash(flush=True)
                await asyncio.sleep(0.3)
                await orchestrator.restore_warm()
                restored = orchestrator.current_leader
                assert restored is not leader
                assert await wait_until(lambda: all(
                    [p.text for p in s.follower.protocol.admin_log
                     if isinstance(p, TextPayload)] ==
                    ["one", "two", "three"]
                    for s in members.values()
                ))
                for uid in members:
                    assert restored.outbox_depth(uid) == 0
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_failover_to_standby(self):
        async def scenario():
            bus = EventBus()
            records = []
            bus.subscribe(records.append)
            _, orchestrator, members = build(telemetry=bus)
            await start_all(orchestrator, members)
            try:
                await orchestrator.failover()
                assert orchestrator.current_id == "mgr-1"
                assert await wait_until(lambda: all(
                    s.connected and s.active == "mgr-1"
                    for s in members.values()
                ))
                fingerprint = (
                    orchestrator.current_leader.group_key_fingerprint
                )
                assert await wait_until(lambda: all(
                    s.group_key_fingerprint == fingerprint
                    for s in members.values()
                ))
                for supervisor in members.values():
                    assert supervisor.suspicions >= 1
                    rejoined = bus_events(
                        records, RejoinCompleted, supervisor.user_id
                    )
                    assert rejoined[-1].leader == "mgr-1"
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_rejoin_live_leader_after_spurious_suspicion(self):
        """If the leader was merely unreachable (not dead), the member
        must close its stale session before the leader accepts a fresh
        handshake — the supervisor does this transparently."""
        async def scenario():
            net, orchestrator, members = build(n_members=1)
            await start_all(orchestrator, members)
            supervisor = next(iter(members.values()))
            try:
                # Silence everything until the member suspects mgr-0.
                adversary = Adversary()
                net.attach_adversary(adversary)
                adversary.set_policy(lambda f: Verdict.drop())
                assert await wait_until(lambda: supervisor.suspicions >= 1)
                adversary.set_policy(None)
                assert await wait_until(lambda: supervisor.connected)
                assert supervisor.active == "mgr-0"
                assert supervisor.rejoins >= 2
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_lost_close_after_a_heal_costs_no_attempt(self):
        """Partition a connected member from its live leader until the
        watchdog fires, heal, and lose the first ReqClose after the
        heal: the cached close rides every retransmission, so the member
        rejoins within the attempt that lost it."""
        async def scenario():
            net, orchestrator, members = build(n_members=1)
            await start_all(orchestrator, members)
            supervisor = next(iter(members.values()))
            adversary = Adversary()
            net.attach_adversary(adversary)
            lost_in = []

            def partition_then_lose_first_close(frame):
                if not supervisor.suspicions:
                    return Verdict.drop()  # healed when the watchdog fires
                if frame.envelope.label is Label.REQ_CLOSE and not lost_in:
                    lost_in.append(supervisor.attempts)
                    return Verdict.drop()
                return Verdict.deliver()

            try:
                adversary.set_policy(partition_then_lose_first_close)
                assert await wait_until(lambda: supervisor.suspicions >= 1)
                assert await wait_until(lambda: supervisor.connected)
                assert lost_in
                assert supervisor.attempts == lost_in[0]
                assert supervisor.active == "mgr-0"
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_recovery_exhaustion_is_terminal_not_a_hang(self):
        """Both managers dead: the supervisor burns its rounds, emits
        RecoveryGaveUp, and its task exits cleanly."""
        async def scenario():
            bus = EventBus()
            records = []
            bus.subscribe(records.append)
            _, orchestrator, members = build(n_members=1, telemetry=bus)
            await start_all(orchestrator, members)
            supervisor = next(iter(members.values()))
            try:
                await orchestrator.crash()
                await asyncio.wait_for(supervisor.wait_done(), timeout=120)
                assert supervisor.gave_up
                exhausted = bus_events(
                    records, RecoveryGaveUp, supervisor.user_id
                )
                assert len(exhausted) == 1
                assert exhausted[0].attempts >= FAST.max_rounds * 2
                with pytest.raises(StateError):
                    await supervisor.send_app(b"nope")
                with pytest.raises(RecoveryFailed, match="mgr-"):
                    await supervisor.wait_keyed()
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_app_traffic_refreshes_liveness(self):
        async def scenario():
            _, orchestrator, members = build()
            await start_all(orchestrator, members)
            try:
                uid = sorted(members)[0]
                await members[uid].send_app(b"ping")
                await asyncio.sleep(0.2)
                other = sorted(members)[1]
                drained = events_of(members[other], object)
                assert any(
                    getattr(e, "payload", None) == b"ping" for e in drained
                )
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())


class TestOrchestrator:
    def test_failover_exhaustion_raises_clean_error(self):
        """When the standby list runs dry, failover() raises StateError
        instead of spinning — the leader-side terminal outcome."""
        async def scenario():
            _, orchestrator, members = build()
            await orchestrator.start()
            try:
                await orchestrator.failover()   # mgr-0 -> mgr-1
                with pytest.raises(StateError, match="all group managers"):
                    await orchestrator.failover()  # nothing left
                assert orchestrator.managers.failed == {"mgr-0", "mgr-1"}
                assert orchestrator.runtime is None
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_succession_walks_the_manager_set(self):
        """mgr-0 → mgr-1 → mgr-2 → (mgr-0 recovered, back in rotation)
        → StateError: the one succession rule, seen through the
        orchestrator's ManagerSet."""
        async def scenario():
            _, orchestrator, members = build(
                manager_ids=["mgr-0", "mgr-1", "mgr-2"]
            )
            managers = orchestrator.managers
            await orchestrator.start()
            try:
                assert managers.primary_id == "mgr-0"
                assert await orchestrator.failover() == "mgr-1"
                assert await orchestrator.failover() == "mgr-2"
                assert managers.failed == {"mgr-0", "mgr-1"}
                clock = managers.primary._clock
                managers.recover("mgr-0")
                assert managers.failed == {"mgr-1"}
                assert await orchestrator.failover() == "mgr-0"
                assert managers.primary_id == orchestrator.current_id
                assert orchestrator.runtime.leader is managers.primary
                # The recovered manager runs on the same timeline.
                assert managers.primary._clock is clock
                with pytest.raises(StateError, match="all group managers"):
                    await orchestrator.failover()
                assert managers.failed == {"mgr-0", "mgr-1", "mgr-2"}
                assert orchestrator.failovers == 3
                assert orchestrator.runtime is None
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_no_disk_argument_still_journals_and_restores_warm(self):
        """``disk=None`` is a private SimDisk, not "no journal": an
        unflushed crash comes back warm from what fsync had covered."""
        async def scenario():
            _, orchestrator, members = build()
            await start_all(orchestrator, members)
            try:
                assert orchestrator.journal_counters()["journal_appends"] > 0
                rejoins = {uid: s.rejoins for uid, s in members.items()}
                await orchestrator.crash(flush=False)
                await orchestrator.restore_warm()
                await asyncio.sleep(2.0)
                assert orchestrator.journal_counters()["journal_replays"] == 1
                assert orchestrator.current_leader.members == sorted(members)
                for uid, supervisor in members.items():
                    assert supervisor.connected
                    assert supervisor.rejoins == rejoins[uid]
                    assert supervisor.suspicions == 0
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_crash_requires_running_manager(self):
        async def scenario():
            _, orchestrator, members = build()
            with pytest.raises(StateError):
                await orchestrator.crash()

        run_virtual(scenario())


class TestDurableOrchestrator:
    """The orchestrator on a simulated disk: journal-backed recovery."""

    def test_unflushed_crash_recovers_from_journal(self):
        """With the write-ahead journal the state is already durable —
        warm restore works even after an unflushed power cut."""
        async def scenario():
            from repro.storage.simdisk import SimDisk

            disk = SimDisk(rng=DeterministicRandom(77))
            _, orchestrator, members = build(disk=disk)
            await start_all(orchestrator, members)
            try:
                await asyncio.sleep(0.5)
                await orchestrator.crash(flush=False)
                await asyncio.sleep(0.3)
                await orchestrator.restore_warm()
                await asyncio.sleep(2.0)
                for supervisor in members.values():
                    assert supervisor.connected
                counters = orchestrator.journal_counters()
                assert counters["journal_replays"] == 1
                assert counters["journal_records_replayed"] >= 1
                assert counters["journal_appends"] >= 1
                await orchestrator.runtime.broadcast_admin(
                    TextPayload("post-journal-restore")
                )
                assert await wait_until(lambda: all(
                    TextPayload("post-journal-restore")
                    in s.follower.protocol.admin_log
                    for s in members.values()
                ))
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())

    def test_sessions_continue_without_reauth(self):
        """Journal recovery at fsync_every=1 is warm: member rejoin
        counters do not move across the crash/restore cycle."""
        async def scenario():
            from repro.storage.simdisk import SimDisk

            disk = SimDisk(rng=DeterministicRandom(78))
            _, orchestrator, members = build(disk=disk)
            await start_all(orchestrator, members)
            try:
                await asyncio.sleep(0.5)
                rejoins_before = {
                    uid: s.rejoins for uid, s in members.items()
                }
                await orchestrator.crash(flush=False)
                await orchestrator.restore_warm()
                await asyncio.sleep(2.0)
                for uid, supervisor in members.items():
                    assert supervisor.connected
                    assert supervisor.rejoins == rejoins_before[uid]
                    assert supervisor.suspicions == 0
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())


class TestRecoveryGaveUpEvent:
    def test_terminal_event_carries_member_attempts_and_error(self):
        """Satellite: retry exhaustion emits a terminal telemetry event
        with the member id, the attempt count, and the last error."""
        from repro.telemetry.events import EventBus, RecoveryGaveUp

        async def scenario():
            bus = EventBus()
            with bus.capture() as records:
                _, orchestrator, members = build(
                    n_members=1, telemetry=bus
                )
                await start_all(orchestrator, members)
                supervisor = next(iter(members.values()))
                try:
                    await orchestrator.crash()
                    await asyncio.wait_for(
                        supervisor.wait_done(), timeout=120
                    )
                finally:
                    await stop_all(orchestrator, members)
            assert supervisor.gave_up
            events = [r.event for r in records
                      if isinstance(r.event, RecoveryGaveUp)]
            assert len(events) == 1
            event = events[0]
            assert event.node == supervisor.user_id
            assert event.attempts >= FAST.max_rounds * 2
            assert event.last_error
            assert "mgr-" in event.last_error

        run_virtual(scenario())


class TestRetransmitLoopFix:
    def test_retransmissions_stop_once_connected(self):
        """Once ``wait_keyed()`` returns the shell sends no more
        handshake frames: nothing keeps hitting the leader's session
        with stale ones."""
        async def scenario():
            from repro.enclaves.itgm import GroupLeader, LeaderRuntime

            net = MemoryNetwork()
            directory = UserDirectory()
            creds = directory.register_password("alice", "pw")
            leader = GroupLeader("leader", directory)
            runtime = LeaderRuntime(
                leader, await net.attach("leader"), heartbeat_interval=0.25
            )
            runtime.start()
            client = supervise(
                creds, ["leader"], net,
                config=SupervisorConfig(retransmit_interval=0.05),
            )
            await client.join()
            await asyncio.wait_for(client.wait_keyed(), 5)
            rejected_before = leader._sessions["alice"].stats.rejected
            await asyncio.sleep(1.0)
            assert (
                leader._sessions["alice"].stats.rejected == rejected_before
            )
            assert client.attempts == 1
            await client.stop()
            await runtime.stop()

        run_virtual(scenario())


class TestExplicitLeave:
    def test_lost_close_after_a_leave_costs_no_attempt(self):
        """A member leaves and its one ReqClose is lost, so the leader
        keeps the session; the next ``join()`` sends the cached close
        ahead of its AuthInitReq and is keyed by that first send, well
        within its first attempt."""
        async def scenario():
            net, orchestrator, members = build(
                n_members=1, manager_ids=["mgr-0"]
            )
            await start_all(orchestrator, members)
            supervisor = next(iter(members.values()))
            adversary = Adversary()
            net.attach_adversary(adversary)
            try:
                adversary.drop_next(
                    lambda f: f.envelope.label is Label.REQ_CLOSE
                )
                await supervisor.leave()
                await asyncio.sleep(0.5)
                leader = orchestrator.current_leader
                assert leader.members == [supervisor.user_id]
                attempts = supervisor.attempts
                loop = asyncio.get_running_loop()
                started = loop.time()
                await supervisor.join()
                await asyncio.wait_for(supervisor.wait_keyed(), 5)
                assert loop.time() - started < FAST.retransmit_interval / 2
                assert supervisor.attempts == attempts + 1
                assert leader.members == [supervisor.user_id]
            finally:
                await stop_all(orchestrator, members)

        run_virtual(scenario())


def lone_supervisor(config=None, rng=None):
    """A supervisor that is never started: enough to call ``_backoff``."""
    creds = UserDirectory().register_password("alice", "pw-alice")
    return supervise(creds, ["mgr-0"], MemoryNetwork(), config=config,
                     rng=rng)


class TestBackoff:
    """``_backoff(n)`` is ``min(max, base * 2**n) * (1 + jitter*(u - 0.5))``
    for one ``uniform()`` draw ``u`` from the supervisor's jitter fork."""

    def test_exponential_growth(self):
        sup = lone_supervisor(SupervisorConfig(backoff_max=100.0, jitter=0.0))
        assert [sup._backoff(n) for n in range(4)] == [0.25, 0.5, 1.0, 2.0]

    def test_cap(self):
        sup = lone_supervisor(SupervisorConfig(jitter=0.0))
        assert sup._backoff(10) == 2.0

    def test_centered_formula_bit_exact(self):
        sup = lone_supervisor(rng=DeterministicRandom(42))
        draws = DeterministicRandom(42).fork("supervisor-jitter")
        for n in range(6):
            u = int.from_bytes(draws.random_bytes(8), "big") / 2**64
            expected = min(2.0, 0.25 * 2.0 ** n) * (1.0 + 0.5 * (u - 0.5))
            assert sup._backoff(n) == expected

    def test_zero_jitter_draws_nothing(self):
        sup = lone_supervisor(SupervisorConfig(jitter=0.0),
                              rng=DeterministicRandom(1))
        assert [sup._backoff(n) for n in range(3)] == [0.25, 0.5, 1.0]
        untouched = DeterministicRandom(1).fork("supervisor-jitter")
        assert sup._jitter_rng.random_bytes(8) == untouched.random_bytes(8)

    def test_one_uniform_draw_per_attempt(self):
        sup = lone_supervisor(rng=DeterministicRandom(11))
        sup._backoff(0)
        reference = DeterministicRandom(11).fork("supervisor-jitter")
        reference.random_bytes(8)
        assert sup._jitter_rng.random_bytes(4) == reference.random_bytes(4)

    def test_centered_bounds(self):
        sup = lone_supervisor(rng=DeterministicRandom(7))
        for n in range(50):
            raw = min(2.0, 0.25 * 2.0 ** n)
            assert raw * 0.75 <= sup._backoff(n) <= raw * 1.25

    def test_unseeded_members_do_not_back_off_in_lockstep(self):
        """Without a seeded source the draws come from the system RNG,
        so two members' first backoffs differ instead of both being
        exactly ``backoff_base``."""
        first = [sup._backoff(0)
                 for sup in (lone_supervisor(), lone_supervisor())]
        assert len(set(first)) == 2
        assert all(0.25 * 0.75 <= d <= 0.25 * 1.25 for d in first)

    def test_deterministic_per_seed(self):
        a = lone_supervisor(rng=DeterministicRandom(5))
        b = lone_supervisor(rng=DeterministicRandom(5))
        assert ([a._backoff(n) for n in range(8)]
                == [b._backoff(n) for n in range(8)])


class TestSupervisorConfig:
    @pytest.mark.parametrize("field, value", [
        ("backoff_base", -1.0),
        ("backoff_max", -0.1),
        ("jitter", 1.5),
        ("jitter", -0.1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SupervisorConfig(**{field: value})

    def test_range_ends_accepted(self):
        SupervisorConfig(backoff_base=0.0, backoff_max=0.0, jitter=0.0)
        SupervisorConfig(jitter=1.0)
