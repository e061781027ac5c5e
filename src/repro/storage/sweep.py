"""The crash-point sweep: durability's exhaustive acceptance test.

The claim under test (the same one a training-stack checkpoint layer
must make): **for every possible crash point, under every fault mode,
recovery restores a state equal to restoring some valid prefix of the
journaled mutations — or fails loudly.  Never silent corruption.**

Method, in the spirit of explicit-state model checking rather than
random soak testing:

1. *Reference run* — a fixed membership script (joins, broadcasts,
   rekey, leave, directed admin, rejoin, expel, app traffic) executes
   against a fault-free :class:`~repro.storage.simdisk.SimDisk`,
   capturing the leader's canonical sealed-snapshot JSON after the
   journal base and after every journaled mutation.  These are the
   *only* legitimate recovery targets; crashing can lose a suffix of
   history, never invent or reorder it.  The script's first half
   reaches the leader frame by frame (one record per frame); its
   second half is delivered the way a mailbox drain delivers it —
   whatever queued for the leader goes through one ``handle_many``
   flush and one group-committed record — so a crash inside a flush
   may only ever recover to a flush *boundary*.
2. *Crash runs* — for every disk-write index ``i`` in the reference
   run and every fault mode (fail-stop keeping the cache, torn write,
   lost un-fsynced suffix), rerun the same seeded script with a
   fail-stop scheduled at write ``i``.  Catch the
   :class:`~repro.exceptions.DiskCrashed`, power-cycle, recover, and
   require the recovered state to be one of the reference canonicals
   (or a loud :class:`~repro.exceptions.RecoveryError`, which is only
   legitimate when the crash beat the very first base write).
3. *Bit rot* — corrupt one byte of each record of a cleanly written
   journal and require replay to truncate to the canonical prefix
   before the rotten record (loud failure when the base itself rots).
4. *Epilogue* — after each successful crash-run recovery, rewire the
   network to the recovered leader and drive the group back to life:
   retransmission drains, desynced members re-authenticate, a fresh
   rekey and broadcast must reach everyone, and the §5.4 invariants
   (admin-log prefix, strictly increasing accepted epochs) must hold
   for every member.  With ``fsync_every=1`` the write-ahead
   discipline additionally guarantees *warm* recovery: no member that
   was connected at crash time needs to re-authenticate.  The unit of
   that discipline is the flush: a crash at a flush's append or fsync
   must have withheld *every* frame the flush produced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.leader_session import LeaderState
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.enclaves.itgm.persistence import snapshot_leader
from repro.enclaves.modelcheck import session_violations
from repro.exceptions import DiskCrashed, RecoveryError
from repro.storage.journal import Journal
from repro.storage.recovery import recover_leader
from repro.storage.simdisk import DiskFaults, SimDisk

MEMBER_IDS = ("alice", "bob", "carol")

#: Fault modes and the :class:`DiskFaults` shape each one sweeps.
CRASH_MODES = ("failstop", "torn", "lost")
ALL_MODES = CRASH_MODES + ("bitrot",)


@dataclass(frozen=True, slots=True)
class SweepConfig:
    seed: int = 7
    modes: tuple[str, ...] = ALL_MODES
    #: Sweep every ``stride``-th write index (1 = exhaustive).
    stride: int = 1
    fsync_every: int = 1
    #: Deltas per compaction during crash runs (``None`` disables).
    #: Small by default so the sweep crosses compaction boundaries.
    compact_threshold: int | None = 8

    def __post_init__(self) -> None:
        unknown = set(self.modes) - set(ALL_MODES)
        if unknown:
            raise ValueError(f"unknown sweep modes {sorted(unknown)}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass
class SweepReport:
    seed: int
    modes: tuple[str, ...]
    total_writes: int = 0
    cases: int = 0
    warm: int = 0           # recovered to a valid prefix
    cold: int = 0           # loud RecoveryError (legitimate cold path)
    reauths: int = 0        # members that had to re-authenticate
    truncated: int = 0      # recoveries that discarded a torn tail
    flush_crashes: int = 0  # crashes that struck inside a handle_many flush
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.cases > 0

    def format_table(self) -> str:
        rows = [
            ("seed", self.seed),
            ("modes", ",".join(self.modes)),
            ("reference writes", self.total_writes),
            ("crash cases", self.cases),
            ("warm recoveries", self.warm),
            ("cold recoveries", self.cold),
            ("re-authentications", self.reauths),
            ("truncated tails", self.truncated),
            ("crashes inside a flush", self.flush_crashes),
            ("failures", len(self.failures)),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        lines.append(f"verdict{'':<{width - 7}}  "
                     f"{'PASS' if self.ok else 'FAIL'}")
        for failure in self.failures[:10]:
            lines.append(f"  ! {failure}")
        return "\n".join(lines)


# -- the scripted run --------------------------------------------------------


class _Run:
    """One seeded group with a journaled leader on a given disk."""

    def __init__(self, config: SweepConfig, disk: SimDisk) -> None:
        rng = DeterministicRandom(config.seed)
        self.net = SyncNetwork()
        self.directory = UserDirectory()
        self.leader = GroupLeader(
            "leader", self.directory, config=LeaderConfig(),
            rng=rng.fork("leader"),
        )
        wire(self.net, "leader", self.leader)
        self.members: dict[str, MemberProtocol] = {}
        for user_id in MEMBER_IDS:
            creds = self.directory.register_password(
                user_id, f"pw-{user_id}"
            )
            member = MemberProtocol(creds, "leader", rng.fork(user_id))
            self.members[user_id] = member
            wire(self.net, user_id, member)
        self.disk = disk
        self.storage_key = KeyMaterial(
            DeterministicRandom(config.seed).fork("storage")
            .key_material(KEY_LEN)
        )
        self.journal = Journal(
            disk, "leader.wal", self.storage_key,
            fsync_every=config.fsync_every,
            compact_threshold=config.compact_threshold,
            rng=rng.fork("seal"),
        )
        self._recovery_rng = rng.fork("recovery")
        self.config = config
        #: ``len(net.wire_log)`` when the ``handle_many`` flush now in
        #: progress began; ``None`` between flushes.
        self.flush_began: int | None = None

    def canonical(self, leader: GroupLeader | None = None) -> str:
        return json.dumps(
            snapshot_leader(leader if leader is not None else self.leader),
            sort_keys=True,
        )

    # The script: one entry per kind of mutating traffic the leader
    # supports, ordered so crashes land inside joins, rekeys, leaves,
    # rejoins, evictions, and pure relays alike.
    def steps(self):
        net, leader, members = self.net, self.leader, self.members
        yield lambda: (net.post(members["alice"].start_join()), net.run())
        yield lambda: (net.post(members["bob"].start_join()), net.run())
        yield lambda: (net.post_all(
            leader.broadcast_admin(TextPayload("fanout"))), net.run())
        yield lambda: (net.post(members["carol"].start_join()), net.run())
        yield lambda: (net.post_all(leader.rekey_now()), net.run())
        yield lambda: (net.post(members["bob"].start_leave()), net.run())
        yield lambda: (net.post_all(leader.send_admin_to(
            "alice", TextPayload("direct"))), net.run())
        yield lambda: (net.post(members["bob"].start_join()), net.run())
        yield lambda: (net.post_all(leader.expel("carol")), net.run())
        yield lambda: (net.post(members["alice"].seal_app(b"app")),
                       net.run())
        # From here on concurrent senders, delivered in flushes: each
        # flush below mixes handshakes, closes, acks and relays.
        yield lambda: (members["carol"]._reset_session(),  # was expelled
                       net.post(members["carol"].start_join()),
                       net.post(members["bob"].start_leave()),
                       net.post(members["alice"].seal_app(b"a1")),
                       self.run_batched())
        yield lambda: (net.post(members["bob"].start_join()),
                       net.post_all(leader.broadcast_admin(
                           TextPayload("batched"))),
                       self.run_batched())
        yield lambda: (net.post_all(leader.rekey_now()),
                       net.post_all([member.seal_app(b"a2")
                                     for member in members.values()]),
                       self.run_batched())
        yield lambda: (net.post(members["alice"].start_leave()),
                       net.post(members["carol"].start_leave()),
                       net.post(members["bob"].seal_app(b"a3")),
                       self.run_batched())

    def run_batched(self) -> None:
        """Pump to quiescence as a mailbox drain does: frames for the
        leader queue while the members talk, then go through one
        ``handle_many`` flush — one journal record — whose outputs are
        posted only once it returned."""
        net, leader = self.net, self.leader
        inbox: list = []

        def queue(envelope):
            inbox.append(envelope)
            return [], []

        net.register("leader", queue)
        while True:
            net.run()
            if not inbox:
                break
            flush, inbox[:] = list(inbox), []
            self.flush_began = len(net.wire_log)
            outgoing, _ = leader.handle_many(flush)
            self.flush_began = None
            net.post_all(outgoing)
        net.register("leader", leader.handle)

    def execute(self, capture=None) -> None:
        """Attach the journal and run the whole script.

        ``capture(leader)`` is invoked after the base write and after
        every journaled mutation (the reference run's canonical hook).
        """
        journal = self.journal
        if capture is not None:
            original = journal.record_mutation

            def recording(leader):
                before = journal.seq
                original(leader)
                if journal.seq != before:
                    capture(leader)

            journal.record_mutation = recording  # instance shadow
        journal.attach(self.leader)
        if capture is not None:
            capture(self.leader)
        for step in self.steps():
            step()


def _revive(run: _Run, recovered: GroupLeader, case: str,
            connected_at_crash: set[str], report: SweepReport) -> None:
    """Post-recovery epilogue: drain, repair, prove liveness and §5.4."""
    net, members = run.net, run.members
    net.register("leader", recovered.handle)
    net.run()  # deliver whatever was in flight at the crash

    # Retransmission drains: a leader one step behind a member (its ack
    # was in flight) resends its last frame; byte-identical retransmits
    # are absorbed by the §3.2 caches on both sides.
    for _ in range(6):
        net.post_all(recovered.retransmit_stalled())
        for member in members.values():
            if member.state is MemberState.WAITING_FOR_KEY:
                frame = member.retransmit_last()
                if frame is not None:
                    net.post(frame)
        net.run()

    # Membership per the recovered (journaled) state: a member whose
    # eviction was durable but whose eviction frames were withheld by
    # the crash *should* land on the re-authentication path.
    recovered_members = set(recovered.members)

    def synced(uid: str) -> bool:
        member = members[uid]
        if member.state is not MemberState.CONNECTED:
            return False
        if recovered.session_state(uid) is not LeaderState.CONNECTED:
            return False
        snd = [p.encode() for p in recovered.admin_send_log(uid)]
        rcv = [p.encode() for p in member.admin_log]
        return rcv == snd[:len(rcv)]

    for uid, member in members.items():
        if synced(uid):
            continue
        # Re-authentication fallback: clear both half-sessions, rejoin.
        if recovered.session_state(uid) not in (
            None, LeaderState.NOT_CONNECTED,
        ):
            net.post_all(recovered.abort_session(uid))
            net.run()
        if member.state is not MemberState.NOT_CONNECTED:
            member._reset_session()
        net.post(member.start_join())
        net.run()
        report.reauths += 1
        if (run.config.fsync_every == 1 and uid in connected_at_crash
                and uid in recovered_members):
            report.failures.append(
                f"{case}: {uid} was connected at crash time but had to "
                f"re-authenticate despite fsync_every=1"
            )

    # Fresh rekey + broadcast prove the recovered group is live.
    net.post_all(recovered.rekey_now())
    net.post_all(recovered.broadcast_admin(TextPayload("post-crash")))
    net.run()
    for uid, member in members.items():
        if member.state is not MemberState.CONNECTED:
            report.failures.append(f"{case}: {uid} not connected after "
                                   f"recovery epilogue")
            continue
        texts = [p.text for p in member.admin_log
                 if isinstance(p, TextPayload)]
        if "post-crash" not in texts:
            report.failures.append(
                f"{case}: {uid} missed the post-recovery broadcast"
            )
        if member.group_epoch != recovered.group_epoch:
            report.failures.append(
                f"{case}: {uid} epoch {member.group_epoch} != leader "
                f"epoch {recovered.group_epoch}"
            )
        for violation in session_violations(
            member.admin_log, recovered.admin_send_log(uid)
        ):
            report.failures.append(f"{case}: {uid}: {violation}")


# -- the sweep ---------------------------------------------------------------


def _mode_faults(mode: str, write_index: int) -> DiskFaults:
    if mode == "failstop":
        return DiskFaults(fail_at_write=write_index, torn_tail=False,
                          crash_keep="all")
    if mode == "torn":
        return DiskFaults(fail_at_write=write_index, torn_tail=True,
                          crash_keep="torn")
    if mode == "lost":
        return DiskFaults(fail_at_write=write_index, torn_tail=False,
                          crash_keep="none")
    raise ValueError(f"unknown crash mode {mode!r}")


def run_crash_sweep(config: SweepConfig | None = None) -> SweepReport:
    """Run the full crash-point sweep and return its report."""
    config = config if config is not None else SweepConfig()
    report = SweepReport(seed=config.seed, modes=config.modes)

    # 1. Reference run: the set of legitimate recovery targets.
    reference = _Run(config, SimDisk(
        rng=DeterministicRandom(config.seed).fork("disk")))
    canonicals: list[str] = []
    reference.execute(capture=lambda ldr: canonicals.append(
        reference.canonical(ldr)))
    valid_states = set(canonicals)
    report.total_writes = reference.disk.counters["writes"]

    # 2. Crash runs across every write boundary and fault mode.
    crash_modes = [m for m in config.modes if m in CRASH_MODES]
    for mode in crash_modes:
        for index in range(1, report.total_writes + 1, config.stride):
            case = f"{mode}@write{index}"
            report.cases += 1
            disk = SimDisk(
                rng=DeterministicRandom(config.seed).fork("disk"),
                faults=_mode_faults(mode, index),
            )
            run = _Run(config, disk)
            try:
                run.execute()
                report.failures.append(f"{case}: fault never fired")
                continue
            except DiskCrashed:
                pass
            if run.flush_began is not None:
                report.flush_crashes += 1
                if len(run.net.wire_log) != run.flush_began:
                    report.failures.append(
                        f"{case}: a flush released frames before its "
                        f"record was durable"
                    )
            connected_at_crash = {
                uid for uid, member in run.members.items()
                if member.state is MemberState.CONNECTED
                and member.has_group_key
            }
            disk.restart()
            try:
                recovered, result = recover_leader(
                    disk, "leader.wal", run.storage_key, run.directory,
                    config=run.leader.config,
                    rng=run._recovery_rng,
                )
            except RecoveryError:
                report.cold += 1
                if index > 1:
                    # Only a crash that beat the very first base write
                    # may leave nothing to recover: every later rewrite
                    # is atomic behind a rename.
                    report.failures.append(
                        f"{case}: cold recovery although a base "
                        f"snapshot was already durable"
                    )
                continue
            report.warm += 1
            if result.truncated:
                report.truncated += 1
            state = run.canonical(recovered)
            if state not in valid_states:
                report.failures.append(
                    f"{case}: recovered state is not any valid "
                    f"mutation prefix (replay: {result.reason})"
                )
                continue
            _revive(run, recovered, case, connected_at_crash, report)

    # 3. Bit rot: corrupt each record of a clean journal, replay only.
    if "bitrot" in config.modes:
        _bitrot_cases(config, report)
    return report


def _bitrot_cases(config: SweepConfig, report: SweepReport) -> None:
    from repro.storage.recovery import replay_records, scan_frames

    # A clean, uncompacted run so record k maps 1:1 to mutation k.
    clean_config = SweepConfig(
        seed=config.seed, modes=config.modes, stride=config.stride,
        fsync_every=config.fsync_every, compact_threshold=None,
    )
    run = _Run(clean_config, SimDisk(
        rng=DeterministicRandom(config.seed).fork("disk")))
    canonicals: list[str] = []
    run.execute(capture=lambda ldr: canonicals.append(run.canonical(ldr)))
    run.journal.sync()
    data = run.disk.read("leader.wal")
    offsets = []
    frames = scan_frames(data)
    while True:
        try:
            offset, body = next(frames)
        except StopIteration:
            break
        offsets.append((offset, len(body)))

    for k, (offset, body_len) in enumerate(offsets):
        if config.stride > 1 and k % config.stride:
            continue
        case = f"bitrot@record{k}"
        report.cases += 1
        disk = SimDisk(rng=DeterministicRandom(config.seed).fork("rot"))
        disk.preload("leader.wal", data)
        disk.corrupt("leader.wal", offset + 8 + body_len // 2)
        try:
            result = replay_records(
                disk.read("leader.wal"), run.storage_key
            )
        except RecoveryError:
            report.cold += 1
            if k > 0:
                report.failures.append(
                    f"{case}: base-less cold failure for a non-base "
                    f"record"
                )
            continue
        report.warm += 1
        if not result.truncated:
            report.failures.append(
                f"{case}: corrupt record was not detected"
            )
            continue
        report.truncated += 1
        # Truncation at record k replays mutations 0..k-1 exactly.
        state = json.dumps(result.state, sort_keys=True)
        expected = canonicals[k - 1] if k > 0 else None
        if state != expected:
            report.failures.append(
                f"{case}: truncated replay is not the mutation prefix "
                f"before the rotten record"
            )


def _cmd_durability(args, _bus) -> int:
    modes = (
        tuple(args.modes.split(",")) if args.modes else ALL_MODES
    )
    report = run_crash_sweep(SweepConfig(
        seed=args.seed, modes=modes, stride=args.stride,
        fsync_every=args.fsync_every,
    ))
    print(report.format_table())
    return 0 if report.ok else 1


def register(sub) -> None:
    durability = sub.add_parser(
        "durability",
        help="run the crash-point sweep over the leader journal",
    )
    durability.add_argument("--seed", type=int, default=7)
    durability.add_argument("--stride", type=int, default=1,
                            help="sweep every Nth write index "
                                 "(1 = exhaustive)")
    durability.add_argument("--modes", metavar="M1,M2",
                            help="comma-separated subset of "
                                 "failstop,torn,lost,bitrot")
    durability.add_argument("--fsync-every", type=int, default=1,
                            dest="fsync_every",
                            help="journal records per fsync")
    durability.set_defaults(
        select="command",
        dispatch={"durability": (_cmd_durability, None, False, "")},
    )
