"""End-to-end telemetry: instrumented stacks, correlation, determinism."""

import io
from dataclasses import replace

from repro.chaos import SoakConfig, run_soak, soak
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol
from repro.telemetry import (
    EVENT_TYPES,
    EventBus,
    HealthProbe,
    attach_jsonl,
    frame_id,
    validate_jsonl,
)
from repro.telemetry.events import (
    FrameInjected,
    IntegrityRejected,
    JoinCompleted,
    JoinStarted,
    RejoinCompleted,
    RekeyInstalled,
    ReplayRejected,
)
from repro.util.clock import TickClock
from repro.wire.labels import Label


def instrumented_session(seed=0):
    """One member joining one leader, everything on a private bus."""
    bus = EventBus(clock=TickClock())
    rng = DeterministicRandom(seed)
    net = SyncNetwork(telemetry=bus)
    directory = UserDirectory()
    creds = directory.register_password("alice", "pw")
    leader = GroupLeader("leader", directory, rng=rng.fork("l"),
                         telemetry=bus)
    wire(net, "leader", leader)
    member = MemberProtocol(creds, "leader", rng.fork("m"), telemetry=bus)
    wire(net, "alice", member)
    return bus, net, leader, member


class TestInstrumentedHandshake:
    def test_join_emits_lifecycle_events(self):
        bus, net, leader, member = instrumented_session()
        with bus.capture() as records:
            net.post(member.start_join())
            net.run()
        names = [type(r.event).__name__ for r in records]
        assert "JoinStarted" in names
        assert "AuthAccepted" in names
        assert "JoinCompleted" in names
        assert "RekeyInstalled" in names
        # JoinStarted precedes JoinCompleted.
        assert names.index("JoinStarted") < names.index("JoinCompleted")

    def test_join_events_name_the_parties(self):
        bus, net, leader, member = instrumented_session()
        with bus.capture() as records:
            net.post(member.start_join())
            net.run()
        completed = [r.event for r in records
                     if isinstance(r.event, JoinCompleted)]
        assert completed and completed[0].node == "alice"
        assert completed[0].leader == "leader"

    def test_rekey_install_matches_leader_epoch(self):
        bus, net, leader, member = instrumented_session()
        with bus.capture() as records:
            net.post(member.start_join())
            net.run()
        installs = [r.event for r in records
                    if isinstance(r.event, RekeyInstalled)]
        assert installs[-1].epoch == leader._group_epoch

    def test_unsubscribed_bus_changes_nothing(self):
        # The instrumented stack with a silent bus behaves exactly like
        # the seed stack: same wire history, same final state.
        bus, net, leader, member = instrumented_session()
        net.post(member.start_join())
        net.run()
        plain_net = SyncNetwork()
        rng = DeterministicRandom(0)
        directory = UserDirectory()
        creds = directory.register_password("alice", "pw")
        plain_leader = GroupLeader("leader", directory, rng=rng.fork("l"))
        wire(plain_net, "leader", plain_leader)
        plain_member = MemberProtocol(creds, "leader", rng.fork("m"))
        wire(plain_net, "alice", plain_member)
        plain_net.post(plain_member.start_join())
        plain_net.run()
        assert [e.to_bytes() for e in net.wire_log] == \
               [e.to_bytes() for e in plain_net.wire_log]


class TestTwoRekeysInOneFrame:
    """A member that was mid-ack while the key rotated twice gets both
    ``NewGroupKeyPayload``s in one batched AdminMsg.  Each install must
    be reported with its *own* epoch — reading the member's epoch after
    the frame would stamp both with the second and trip the probe."""

    def test_each_install_carries_its_own_epoch_and_fingerprint(self):
        bus, net, leader, member = instrumented_session()
        probe = HealthProbe().subscribe_to(bus)
        net.post(member.start_join())
        net.run()
        first = leader.rekey_now()          # in flight, not delivered yet
        issued = {}
        for _ in range(2):                  # queue behind it
            assert leader.rekey_now() == []
            issued[leader.group_epoch] = leader.group_key_fingerprint
        with bus.capture() as records:
            net.post_all(first)
            net.run()
        installs = [r.event for r in records
                    if isinstance(r.event, RekeyInstalled)]
        batch = installs[1:]
        assert {e.epoch: e.fingerprint for e in batch} == issued
        assert len({e.caused_by for e in batch}) == 1
        assert batch[0].caused_by != installs[0].caused_by
        assert not probe.violations, probe.violations
        assert probe.checked == 4  # the join's key + three rotations


class TestReplayCorrelation:
    def test_replayed_rekey_rejected_under_same_frame_id(self):
        """The acceptance criterion in miniature: a replayed stale rekey
        frame is visible twice in the stream — ``FrameInjected``, then
        ``ReplayRejected`` — under one frame id, so the attack and the
        defence line up."""
        bus, net, leader, member = instrumented_session()
        net.post(member.start_join())
        net.run()
        net.post_all(leader.rekey_now())
        net.run()
        recorded = [e for e in net.wire_log
                    if e.label is Label.ADMIN_MSG
                    and e.recipient == "alice"][-1]
        # Advance the nonce chain past the recorded frame.
        net.post_all(leader.rekey_now())
        net.run()

        with bus.capture() as records:
            net.inject(recorded)
            net.run()
        injected = [r.event for r in records
                    if isinstance(r.event, FrameInjected)]
        rejected = [r.event for r in records
                    if isinstance(r.event, ReplayRejected)]
        assert injected and injected[0].frame == frame_id(recorded)
        assert rejected, "the stale replay must surface as ReplayRejected"
        assert rejected[0].frame == frame_id(recorded)
        assert rejected[0].node == "alice"
        assert "stale nonce" in rejected[0].reason


class TestAttackMatrixEvents:
    def test_blocked_replay_surfaces_on_default_bus(self):
        """The attack library builds its own stacks; they still land on
        the default bus, so blocked §2.3 attacks are observable without
        plumbing."""
        from repro.attacks.rekey_replay import RekeyReplayAttack
        from repro.telemetry import DEFAULT_BUS

        with DEFAULT_BUS.capture() as records:
            result = RekeyReplayAttack().run_itgm()
        assert not result.succeeded
        replays = [r.event for r in records
                   if isinstance(r.event, ReplayRejected)]
        assert replays, "blocked replay must surface as ReplayRejected"
        assert all(len(e.frame) == 12 for e in replays)

    def test_forged_removal_surfaces_as_integrity_rejection(self):
        from repro.attacks.forged_removal import ForgedRemovalAttack
        from repro.telemetry import DEFAULT_BUS

        with DEFAULT_BUS.capture() as records:
            result = ForgedRemovalAttack().run_itgm()
        assert not result.succeeded
        assert any(isinstance(r.event, IntegrityRejected)
                   for r in records)


def telemetry_soak_config():
    return SoakConfig(
        seed=5, n_members=3, duration=14.0,
        loss_window=(2.0, 8.0), delay_window=(2.0, 8.0),
        bursty_window=None, partition_window=None,
        crash_warm_at=4.0, restore_at=5.0, crash_failover_at=None,
        rekey_interval=3.0, converge_timeout=10.0,
    )


class TestSoakTelemetry:
    def test_jsonl_export_is_byte_identical_across_runs(self):
        def run_once():
            bus = EventBus()
            sink = io.StringIO()
            exporter = attach_jsonl(bus, sink)
            report = run_soak(telemetry_soak_config(), telemetry=bus)
            exporter.close()
            return report, sink.getvalue()

        report_a, text_a = run_once()
        report_b, text_b = run_once()
        assert report_a.converged and report_a.safe
        assert text_a == text_b
        assert text_a.count("\n") > 50

    def test_exported_stream_is_schema_valid(self):
        bus = EventBus()
        sink = io.StringIO()
        exporter = attach_jsonl(bus, sink)
        run_soak(telemetry_soak_config(), telemetry=bus)
        exporter.close()
        records = validate_jsonl(sink.getvalue().splitlines())
        names = {r["event"] for r in records}
        # The plan's faults and recoveries all left a trace.
        assert "FrameDropped" in names
        assert "LeaderCrashed" in names
        assert "LeaderRestored" in names
        assert "RekeyInstalled" in names
        assert "FaultWindowOpened" in names

    def test_virtual_timestamps_not_wall_clock(self):
        bus = EventBus()
        with bus.capture() as records:
            run_soak(telemetry_soak_config(), telemetry=bus)
        assert records
        # Loop time starts near zero and stays within the plan horizon;
        # a wall-clock timestamp would be ~1e9.
        assert all(0.0 <= r.ts < 100.0 for r in records)


class TestRecoveryTimeOnTheBus:
    def test_rejoin_downtime_is_the_supervisors_latency(self, monkeypatch):
        """Recovery time is recorded once: each member's
        ``RejoinCompleted.downtime`` values are its ``rejoin_latencies``,
        and no second record (a span) repeats them."""
        supervisors = []

        class Recorded(soak.ResilientMemberClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                supervisors.append(self)

        monkeypatch.setattr(soak, "ResilientMemberClient", Recorded)
        config = replace(
            telemetry_soak_config(), loss_window=None, delay_window=None,
            crash_warm_at=None, restore_at=None, crash_failover_at=4.0,
        )
        bus = EventBus()
        with bus.capture() as records:
            report = run_soak(config, telemetry=bus)
        assert report.converged
        assert len(supervisors) == config.n_members
        rejoins = [r.event for r in records
                   if isinstance(r.event, RejoinCompleted)]
        for supervisor in supervisors:
            assert len(supervisor.rejoin_latencies) == 2  # join + failover
            assert [e.downtime for e in rejoins
                    if e.node == supervisor.user_id] \
                == supervisor.rejoin_latencies
        assert len(rejoins) == 2 * len(supervisors)
        assert "SpanFinished" not in EVENT_TYPES
        assert not any(type(r.event).__name__ == "SpanFinished"
                       for r in records)


class TestJoinStartedEverywhere:
    def test_start_join_emits_without_network(self):
        bus = EventBus(clock=TickClock())
        rng = DeterministicRandom(3)
        directory = UserDirectory()
        creds = directory.register_password("bob", "pw")
        member = MemberProtocol(creds, "leader", rng, telemetry=bus)
        with bus.capture() as records:
            member.start_join()
        assert isinstance(records[0].event, JoinStarted)
