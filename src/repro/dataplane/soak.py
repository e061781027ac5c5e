"""Mixed management + data chaos soak for the data plane.

One deterministic :class:`~repro.enclaves.harness.SyncNetwork` run
interleaves membership churn (a mid-run leave with rekey-on-leave, a
leader-initiated cadence rekey) with steady application traffic, while
a seeded fault interceptor drops, duplicates, and reorders **data**
frames (the management plane's loss behavior is the chaos layer's
subject; here it must merely keep working while data faults rage).

Asserted at the end of every run:

* **§5.4 invariants** on every live member — admin log a byte-prefix
  of the leader's send log, group-key epochs strictly increasing
  (:func:`repro.enclaves.modelcheck.session_violations`);
* **no duplicate delivery** — no member's application inbox contains
  the same payload twice, under duplication faults and retransmits;
* **completeness** — after the fault window closes and the retransmit
  timers drain, every live member holds every payload sent by every
  other live member (reliability actually recovered the losses);
* **zero post-leave decrypts** — the leaver's channel state and group
  key, captured at the moment of departure, open none of the data
  frames recorded after the leave committed (rekey-on-leave holds on
  the data plane), with every attempt landing as a typed rejection.

Everything — fault decisions, clocks, sequence numbers — derives from
the seed, so two runs with the same seed export byte-identical
telemetry JSONL (the CI determinism gate ``cmp``'s two exports).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRandom
from repro.dataplane.channel import DataChannel, decode_data_body
from repro.dataplane.member import DataMember
from repro.enclaves.common import RekeyPolicy, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.member import MemberProtocol
from repro.enclaves.modelcheck import session_violations
from repro.exceptions import (
    CodecError,
    EpochMismatchError,
    IntegrityError,
    RatchetError,
    StateError,
)
from repro.overload.deadline import RetryBudget
from repro.telemetry.events import DataShed, EventBus, resolve_bus
from repro.wire.labels import Label
from repro.wire.message import Envelope


#: Virtual seconds per round (must exceed the retransmit floor so
#: overdue frames actually retransmit during the drain tail).
DT = 0.5
#: Per-data-frame fault probabilities.
P_LOSS = 0.08
P_DUPLICATE = 0.05
P_REORDER = 0.08
#: Held (reordered) frames are released after this many rounds.
REORDER_HOLD = 2
#: Retry allowance for the soak's senders.  The production default
#: (0.2 retries per request) is sized for benign networks; a chaos
#: run faulting ~20% of data frames — ACKs included — needs real
#: headroom, or the completeness verdict just measures starvation.
RETRY_RATIO = 1.0
RETRY_RESERVE = 10


@dataclass
class DataSoakConfig:
    """Knobs for one seeded data-plane soak run."""

    seed: int = 0
    n_members: int = 4
    rounds: int = 40
    #: Round at which one member leaves (rekey-on-leave commits here).
    leave_round: int = 18
    #: Round of an extra leader-initiated cadence rekey.
    rekey_round: int = 28
    #: Fault-free rounds at the end so reliability can drain.
    drain_rounds: int = 8


@dataclass
class DataSoakReport:
    """Outcome of one soak run (``safe`` is the acceptance verdict)."""

    config: DataSoakConfig
    payloads_sent: int = 0
    frames_delivered: int = 0
    frames_shed: int = 0
    shed_by_reason: dict = field(default_factory=dict)
    skip_hits: int = 0
    skips_banked: int = 0
    retransmits: int = 0
    fully_acked: int = 0
    epochs_seen: int = 0
    post_leave_frames: int = 0
    post_leave_decrypts: int = 0
    post_leave_rejections: int = 0
    violations: list = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return not self.violations and self.post_leave_decrypts == 0

    def as_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "members": self.config.n_members,
            "rounds": self.config.rounds,
            "payloads_sent": self.payloads_sent,
            "frames_delivered": self.frames_delivered,
            "frames_shed": self.frames_shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "skip_hits": self.skip_hits,
            "skips_banked": self.skips_banked,
            "retransmits": self.retransmits,
            "fully_acked": self.fully_acked,
            "epochs_seen": self.epochs_seen,
            "post_leave_frames": self.post_leave_frames,
            "post_leave_decrypts": self.post_leave_decrypts,
            "post_leave_rejections": self.post_leave_rejections,
            "violations": list(self.violations),
            "safe": self.safe,
        }

    def format_table(self) -> str:
        d = self.as_dict()
        lines = [f"data soak · seed {d['seed']} · {d['members']} members · "
                 f"{d['rounds']} rounds"]
        lines.append("-" * max(len(lines[0]), 40))
        for key in ("payloads_sent", "frames_delivered", "frames_shed",
                    "skip_hits", "retransmits", "fully_acked", "epochs_seen",
                    "post_leave_frames", "post_leave_decrypts"):
            lines.append(f"  {key:<22} {d[key]}")
        for reason, count in d["shed_by_reason"].items():
            lines.append(f"  shed[{reason}]{'':<14} {count}")
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        lines.append(f"  verdict                {'SAFE' if self.safe else 'UNSAFE'}")
        return "\n".join(lines)


def _data_faults(
    rng: DeterministicRandom,
    held: list,
    active: "list[bool]",
):
    """Seeded interceptor: loss/dup/hold applied to data frames only."""

    def interceptor(envelope: Envelope):
        if not envelope.label.is_data or not active[0]:
            return None
        roll = rng.uniform()
        if roll < P_LOSS:
            return []
        if roll < P_LOSS + P_DUPLICATE:
            return [envelope, envelope]
        if roll < P_LOSS + P_DUPLICATE + P_REORDER:
            held.append([REORDER_HOLD, envelope])
            return []
        return None

    return interceptor


@dataclass
class _SoakState:
    """What the traffic phase hands the verdict phase."""

    net: SyncNetwork
    leader: GroupLeader
    members: dict
    member_ids: list
    leaver: str
    sent_log: list
    captured_channel: DataChannel | None
    captured_key: object
    captured_epoch: int
    leave_mark: int | None


def run_data_soak(
    config: DataSoakConfig, telemetry: EventBus | None = None
) -> DataSoakReport:
    """Run one seeded mixed management+data soak; see module docstring."""
    bus = resolve_bus(telemetry)
    report = DataSoakReport(config=config)
    shed_reasons: dict[str, int] = {}

    def count_shed(record) -> None:
        if isinstance(record.event, DataShed):
            shed_reasons[record.event.reason] = (
                shed_reasons.get(record.event.reason, 0) + 1
            )

    # Counters listen only during the traffic phase: the verdict phase
    # deliberately replays frames at captured channels, and those
    # probe rejections must not pollute the run's shed accounting.
    bus.subscribe(count_shed)
    try:
        state = _run_traffic(config, report, bus)
    finally:
        bus.unsubscribe(count_shed)
    report.shed_by_reason = shed_reasons
    _verdicts(config, report, state)
    return report


def _run_traffic(
    config: DataSoakConfig, report: DataSoakReport, bus: EventBus
) -> _SoakState:
    rng = DeterministicRandom(config.seed)
    now = [0.0]
    # Thread the run's bus through every emitting component: an
    # injected bus must observe the whole stack, not just the counters
    # this module subscribes itself (channels resolve to the process
    # default otherwise, and an injected bus would silently see nothing).
    net = SyncNetwork(telemetry=bus)
    directory = UserDirectory()
    leader = GroupLeader(
        "leader", directory,
        config=LeaderConfig(
            rekey_policy=RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE),
        rng=rng.fork("leader"),
        telemetry=bus,
    )
    wire(net, "leader", leader)

    member_ids = [f"user-{i}" for i in range(config.n_members)]
    members: dict[str, DataMember] = {}
    for uid in member_ids:
        creds = directory.register_password(uid, f"pw-{uid}")
        core = MemberProtocol(creds, "leader", rng.fork(uid))
        dm = DataMember(core, clock=lambda: now[0], telemetry=bus)
        dm.sender.budget = RetryBudget(
            ratio=RETRY_RATIO, min_reserve=RETRY_RESERVE)
        members[uid] = dm
        wire(net, uid, dm)
    for uid in member_ids:
        net.post(members[uid].member.start_join())
        net.run()

    held: list = []
    faults_on = [True]
    net.set_interceptor(_data_faults(rng.fork("faults"), held, faults_on))

    leaver = member_ids[-1]
    sent_log: list[tuple[str, int, bytes]] = []  # (sender, round, payload)
    captured_channel: DataChannel | None = None
    captured_key = None
    captured_epoch = -1
    leave_mark = None
    epochs = {leader.group_epoch}

    total_rounds = config.rounds + config.drain_rounds
    for rnd in range(total_rounds):
        now[0] = rnd * DT
        in_fault_window = rnd < config.rounds
        faults_on[0] = in_fault_window

        if rnd == config.leave_round:
            captured_channel = members[leaver].channel
            captured_key = members[leaver].member.group_key
            captured_epoch = members[leaver].channel.epoch
            net.post(members[leaver].member.start_leave())
            net.run()
            leave_mark = len(net.wire_log)
        if rnd == config.rekey_round:
            net.post_all(leader.rekey_now())
            net.run()

        if in_fault_window:
            senders = [uid for uid in member_ids
                       if uid != leaver or rnd < config.leave_round]
            sender = senders[rnd % len(senders)]
            payload = f"msg|{sender}|{rnd}".encode()
            net.post_all(members[sender].send_data(payload))
            sent_log.append((sender, rnd, payload))
            report.payloads_sent += 1

        # Release held (reordered) frames whose hold expired.
        for entry in held:
            entry[0] -= 1
        due = [e for e in held if e[0] <= 0]
        held[:] = [e for e in held if e[0] > 0]
        for _, envelope in due:
            net.post(envelope)

        net.run()
        for uid in member_ids:
            if uid == leaver and rnd >= config.leave_round:
                continue  # departed: its timers must not resurrect frames
            net.post_all(members[uid].tick())
        net.run()
        epochs.add(leader.group_epoch)

    report.epochs_seen = len(epochs)
    # Channel/sender counters snapshot here, before any verdict-phase
    # probing touches the (shared) captured channel objects.
    for uid in member_ids:
        report.frames_delivered += members[uid].channel.delivered
        report.frames_shed += members[uid].channel.shed
        stats = members[uid].channel.skip_stats()
        report.skip_hits += stats["skip_hits"]
        report.skips_banked += stats["skips_banked"]
        if members[uid].sender is not None:
            report.retransmits += members[uid].sender.retransmits
            report.fully_acked += members[uid].sender.fully_acked

    return _SoakState(
        net=net, leader=leader, members=members, member_ids=member_ids,
        leaver=leaver, sent_log=sent_log,
        captured_channel=captured_channel, captured_key=captured_key,
        captured_epoch=captured_epoch, leave_mark=leave_mark,
    )


def _verdicts(
    config: DataSoakConfig, report: DataSoakReport, state: _SoakState
) -> None:
    net, leader, members = state.net, state.leader, state.members
    member_ids, leaver = state.member_ids, state.leaver
    live = [uid for uid in member_ids if uid != leaver]

    # §5.4 on every live member.
    for uid in live:
        report.violations.extend(
            f"{uid}: {violation}"
            for violation in session_violations(
                members[uid].member.admin_log, leader.admin_send_log(uid)
            )
        )

    # No duplicate delivery; completeness across live members.
    for uid in live:
        payloads = [p for (_s, _q, p) in members[uid].inbox]
        if len(payloads) != len(set(payloads)):
            report.violations.append(f"{uid}: duplicate payload delivered")
        expected = {p for (s, _r, p) in state.sent_log
                    if s != uid and s != leaver}
        missing = expected - set(payloads)
        if missing:
            report.violations.append(
                f"{uid}: {len(missing)} payload(s) never delivered"
            )

    # Zero post-leave decrypts for the leaver's captured state.  Only
    # frames sealed at an epoch *after* the capture count: frames the
    # group sealed at the leaver's final epoch (late retransmits of
    # pre-leave traffic) are readable by construction — the leaver was
    # a legitimate member when that epoch's chains were seeded.
    if state.captured_channel is not None and state.leave_mark is not None:
        for frame in net.wire_log[state.leave_mark:]:
            if frame.label is not Label.DATA_MSG:
                continue
            try:
                _sender, epoch, _seq, _box = decode_data_body(frame.body)
            except CodecError:
                continue
            if epoch <= state.captured_epoch:
                continue
            report.post_leave_frames += 1
            if _try_open(state.captured_channel, state.captured_key, frame):
                report.post_leave_decrypts += 1
            else:
                report.post_leave_rejections += 1


def _try_open(captured_channel: DataChannel, captured_key, frame) -> bool:
    """Can the leaver's captured state read one post-leave frame?

    Two arms: the live channel state as captured (must shed as an
    epoch mismatch), and a fresh channel re-seeded from the captured
    group key at the frame's own epoch (must fail authentication —
    the chains derive from a key the leaver never received).
    """
    try:
        captured_channel.open(frame)
        return True
    except (RatchetError, IntegrityError, CodecError, StateError):
        pass
    if captured_key is not None:
        try:
            _, epoch, _, _ = decode_data_body(frame.body)
            forged = DataChannel("leaver-forged")
            forged.rebind(captured_key, epoch)
            forged.open(frame)
            return True
        except (RatchetError, IntegrityError, CodecError, StateError):
            pass
    return False


def _cmd_demo(args, _bus) -> int:
    """Scripted tour: ratcheted delivery, loss recovery, rekey-on-leave."""
    from repro.attacks.base import build_data

    seed = args.seed
    scenario = build_data(["alice", "bob", "carol"], seed=seed)
    net = scenario.net
    alice = scenario.members["alice"]
    bob = scenario.members["bob"]
    carol = scenario.members["carol"]
    print(f"data-plane demo — 3 members, seed={seed}")
    print(f"  group joined       : {scenario.leader.members} "
          f"(epoch {alice.member.group_epoch})")

    net.post_all(alice.send_data(b"dataplane hello"))
    net.run()
    print(f"  first payload      : delivered to bob+carol at chain "
          f"seq {bob.inbox[-1][1]} (per-sender ratchet, one key per frame)")

    # Lose bob's copy of the next frame; the one after arrives out of
    # order, bob banks the skipped key, NACKs the gap, and alice's
    # cached envelope fills it — end-to-end, without leader help.
    dropped: list = []

    def drop_once(envelope):
        if (envelope.label is Label.DATA_MSG
                and envelope.recipient == "bob" and not dropped):
            dropped.append(envelope)
            return []
        return None

    net.set_interceptor(drop_once)
    net.post_all(alice.send_data(b"lost on the wire"))
    net.run()
    net.set_interceptor(None)
    net.post_all(alice.send_data(b"arrives first"))
    net.run()
    stats = bob.channel.skip_stats()
    pre_leave_inbox = list(bob.inbox)
    recovered = [p for (_s, _q, p) in pre_leave_inbox]
    print(f"  loss recovery      : bob banked {stats['skips_banked']} "
          f"skipped key(s), NACK retransmit filled the gap "
          f"(skip hits: {stats['skip_hits']})")
    print(f"  bob's inbox        : {len(recovered)} payloads, "
          f"duplicates suppressed: "
          f"{bob.receiver.duplicates_suppressed}")

    # Carol leaves; rekey-on-leave bumps the epoch; her captured
    # channel opens nothing sealed afterwards.
    captured = carol.channel
    pre_epoch = alice.member.group_epoch
    net.post(carol.member.start_leave())
    net.run()
    mark = len(net.wire_log)
    net.post_all(alice.send_data(b"post-leave secret"))
    net.run()
    print(f"  rekey-on-leave     : carol left, epoch "
          f"{pre_epoch} -> {alice.member.group_epoch}, every chain "
          "re-seeded")
    leaked = 0
    rejections = 0
    for frame in net.wire_log[mark:]:
        if frame.label is not Label.DATA_MSG:
            continue
        try:
            captured.open(frame)
            leaked += 1
        except (RatchetError, IntegrityError, EpochMismatchError):
            rejections += 1
    print(f"  leaver's channel   : {leaked} post-leave decrypts, "
          f"{rejections} typed rejections")
    # Arrival order interleaves the retransmit; chain order (by seq)
    # must reconstruct alice's send order exactly.
    by_seq = [p for (_s, _q, p)
              in sorted(pre_leave_inbox, key=lambda t: t[1])]
    ok = (
        len(recovered) == 3
        and by_seq == [b"dataplane hello", b"lost on the wire",
                       b"arrives first"]
        and stats["skip_hits"] >= 1
        and leaked == 0
        and rejections >= 1
    )
    print("  verdict            : "
          + ("OK — delivered in order, loss recovered, leaver locked out"
             if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_attack(args, _bus) -> int:
    """The data-plane rows of the attack matrix, on their own."""
    from repro.attacks import DataReplayAttack, PastMemberDataAttack
    from repro.attacks.suite import print_attack_rows

    return print_attack_rows(
        [PastMemberDataAttack, DataReplayAttack], args.seed,
        "data-plane attacks — 'legacy' is the group-key-only data "
        "channel,\n'improved' the ratcheted channel with "
        "rekey-on-leave:\n",
        ("both attacks read the baseline and die on the ratchet",
         "deviation from the data-plane claim!"),
    )


def _cmd_soak(args, _bus) -> int:
    # The soak's stacks emit to the process-wide default bus, so the
    # JSONL export wraps the run the same way demo/attack do.
    report = run_data_soak(DataSoakConfig(
        seed=args.seed, n_members=args.members, rounds=args.rounds,
    ))
    print(report.format_table())
    return 0 if report.safe else 1


def register(sub) -> None:
    data = sub.add_parser(
        "data",
        help="drive the end-to-end data plane (demo / attack / soak)",
    )
    data.add_argument("mode", choices=("demo", "attack", "soak"),
                      help="scripted ratchet-and-recovery tour, "
                           "data-plane attack rows, or the seeded mixed "
                           "management+data chaos soak")
    data.add_argument("--seed", type=int, default=7)
    data.add_argument("--members", type=int, default=4,
                      help="members in the soak")
    data.add_argument("--rounds", type=int, default=40,
                      help="faulted rounds in the soak (a fault-free "
                           "drain tail follows)")
    data.add_argument("--out", metavar="PATH",
                      help="export the run's event stream as "
                           "deterministic JSONL")
    data.set_defaults(select="mode", dispatch={
        "demo": (_cmd_demo, "out", False, ""),
        "attack": (_cmd_attack, "out", False, ""),
        "soak": (_cmd_soak, "out", False, ""),
    })


__all__ = ["DataSoakConfig", "DataSoakReport", "run_data_soak"]
