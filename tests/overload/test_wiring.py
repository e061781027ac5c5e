"""Overload machinery wired through the stack's layers.

Each integration point defaults to *off* (None) — these tests prove
both directions: the no-op default changes nothing, and the armed path
bounds the behaviour it guards.
"""

import asyncio

import pytest

from repro.chaos.loop import run_virtual
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.exceptions import QuorumError, StateError
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.shard import ShardHost, redirect_envelope
from repro.overload.deadline import AdaptiveDeadline, LatencyTracker, RetryBudget
from repro.overload.mailbox import BoundedMailbox, MailboxConfig
from repro.quorum.byzantine import build_quorum_scenario
from repro.quorum.replicas import QuorumLeaderSet
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus, RetryBudgetExhausted
from repro.wire.labels import Label
from repro.wire.message import Envelope


def exhaustion_events(bus_log):
    return [e for e in bus_log if isinstance(e, RetryBudgetExhausted)]


class TestFabricMemberRedirectBudget:
    def build(self, budget=None, telemetry=None):
        rng = DeterministicRandom(9)
        fabric = GroupDirectory(["shard-0", "shard-1"], rng=rng.fork("d"))
        record = fabric.create_group("grp")
        users = UserDirectory()
        creds = users.register_password("alice", "pw")
        member = FabricMember(
            creds, "grp", fabric, rng=rng.fork("alice"),
            retry_budget=budget, telemetry=telemetry,
        )
        return fabric, record, member

    def redirect(self, record):
        return redirect_envelope(record.shard_id, "alice", "grp", None)

    def test_default_chases_forever(self):
        _, record, member = self.build()
        member.start_join()
        for _ in range(20):
            out = member.handle(self.redirect(record))[0]
            assert out  # every redirect is chased
        assert member.chases_dropped == 0

    def test_budget_stops_the_chase(self):
        bus = EventBus()
        seen = []
        bus.subscribe(
            lambda r: seen.append(r.event)
            if isinstance(r.event, RetryBudgetExhausted) else None
        )
        budget = RetryBudget(ratio=0.0, window=10, min_reserve=2)
        _, record, member = self.build(budget=budget, telemetry=bus)
        member.start_join()
        chased = 0
        for _ in range(10):
            if member.handle(self.redirect(record))[0]:
                chased += 1
        assert chased == 2  # the reserve, then a clean stop
        assert member.chases_dropped == 8
        assert seen and seen[0].operation == "redirect-chase"

    def test_fresh_joins_replenish(self):
        budget = RetryBudget(ratio=1.0, window=10, min_reserve=0)
        _, record, member = self.build(budget=budget)
        member.start_join()  # deposits one chase
        assert member.handle(self.redirect(record))[0]
        assert not member.handle(self.redirect(record))[0]


class TestQuorumViewChangeBudget:
    def build(self, budget):
        rng = DeterministicRandom(13)
        directory = UserDirectory()
        return QuorumLeaderSet(
            directory, rng=rng, view_change_budget=budget
        )

    def test_reserve_then_refusal(self):
        qs = self.build(RetryBudget(ratio=0.0, window=10, min_reserve=1))
        qs.view_change("rep-1", "operator: flaky")  # spends the reserve
        with pytest.raises(QuorumError, match="budget exhausted"):
            qs.view_change("rep-2", "operator: also flaky")
        # The refused replica was NOT evicted.
        assert qs.evicted == {"rep-1"}

    def test_certified_work_earns_evictions(self):
        scn = build_quorum_scenario(["alice", "bob"], seed=5)
        qs = scn.qs
        # Arm the budget post-hoc with nothing banked: the joins above
        # already certified mutations, so deposits only start now.
        qs._view_change_budget = RetryBudget(
            ratio=1.0, window=10, min_reserve=0
        )
        with pytest.raises(QuorumError, match="budget exhausted"):
            qs.view_change("rep-1", "no work banked yet")
        # One fresh certified mutation deposits one eviction.
        scn.net.post_all(qs.leader.rekey_now())
        scn.net.run()
        qs.view_change("rep-1", "operator: flaky")
        assert "rep-1" in qs.evicted

    def test_no_budget_is_seed_behaviour(self):
        qs = self.build(None)
        qs.view_change("rep-1", "a")
        qs.view_change("rep-2", "b")  # unlimited without a budget


class TestShardBoundedIntake:
    def build(self, mailbox=None):
        rng = DeterministicRandom(4)
        host = ShardHost(
            "shard-0", SimDisk(rng=rng.fork("disk")),
            rng=rng.fork("host"), mailbox=mailbox,
        )
        return host

    def test_no_mailbox_enqueue_is_loud(self):
        host = self.build()
        with pytest.raises(StateError, match="no bounded intake"):
            host.enqueue(Envelope(Label.APP_DATA, "a", "shard-0", b""))
        with pytest.raises(StateError):
            host.pump(1)

    def test_enqueue_sheds_past_capacity(self):
        mailbox = BoundedMailbox("shard-0", MailboxConfig(capacity=2))
        host = self.build(mailbox=mailbox)
        frames = [
            Envelope(Label.APP_DATA, "m", "shard-0", bytes([i]))
            for i in range(5)
        ]
        accepted = [host.enqueue(f) for f in frames]
        assert accepted == [True, True, False, False, False]
        assert host.stats.shed == 3

    def test_pump_drains_through_the_demux(self):
        mailbox = BoundedMailbox("shard-0", MailboxConfig(capacity=8))
        host = self.build(mailbox=mailbox)
        # A frame for a never-hosted group demuxes to a loud rejection
        # — enough to prove the pump drives handle().
        from repro.enclaves.common import Rejected
        from repro.wire.message import wrap_group
        inner = Envelope(Label.AUTH_INIT_REQ, "alice", "ghost-grp", b"")
        host.enqueue(wrap_group("ghost-grp", inner, "shard-0"))
        _, events = host.pump(8)
        assert [type(e) for e in events] == [Rejected]
        assert host.stats.frames_in == 1
        assert host.stats.foreign_rejected == 1
        assert mailbox.depth == 0


class TestSupervisorRetryBudget:
    """A member reconnecting into a void gives up when the budget dries,
    well before the max_rounds brake."""

    def test_budget_caps_reconnect_attempts(self):
        from repro.enclaves.itgm import (
            ResilientMemberClient,
            SupervisorConfig,
        )
        from repro.net import MemoryNetwork

        config = SupervisorConfig(
            liveness_timeout=1.0, check_interval=0.1,
            join_timeout=0.2, retransmit_interval=0.1,
            backoff_base=0.05, backoff_max=0.1, max_rounds=8,
        )

        async def scenario():
            net = MemoryNetwork()
            directory = UserDirectory()
            creds = directory.register_password("u", "pw")
            bus = EventBus()
            seen = []
            bus.subscribe(
                lambda r: seen.append(r.event)
                if isinstance(r.event, RetryBudgetExhausted) else None
            )
            supervisor = ResilientMemberClient(
                {"mgr-0": creds, "mgr-1": creds},
                ["mgr-0", "mgr-1"], net,
                config=config, rng=DeterministicRandom(2),
                telemetry=bus,
                retry_budget=RetryBudget(
                    ratio=0.0, window=10, min_reserve=2
                ),
            )
            # No manager is running: every attempt fails.
            await supervisor.start()
            await supervisor.wait_done()
            await supervisor.stop()
            return supervisor, seen

        supervisor, seen = run_virtual(scenario())
        assert supervisor.gave_up
        # 2 reserve retries + the original attempt = 3, not
        # max_rounds * managers = 16.
        assert supervisor.attempts == 3
        assert seen and seen[0].operation == "reconnect"

    def test_adaptive_deadline_tightens_after_joins(self):
        tracker = LatencyTracker()
        deadline = AdaptiveDeadline(
            tracker, multiplier=4.0, floor=0.05, cap=10.0, warmup=1
        )
        # What the data plane's ACK round trips feed: fast operations.
        for _ in range(10):
            deadline.observe(0.02)
        assert deadline.current() < 0.5  # far below the 1s static default
