"""Seeded overload soak: a flooding insider vs. both stacks.

The scenario the §2.3 threat model implies but the reproduction never
ran: a *joined* member (``mallory``) floods the leader with sealed APP
frames — mostly byte-identical replays, the cheapest insider flood —
at several times the leader's service rate, while honest members keep
joining (a trickle, then a 10× surge halfway through).  Two stacks run
the identical seeded workload:

* **unprotected** — the seed arrangement: one unbounded FIFO intake,
  first-come-first-served.  The backlog grows without bound, honest
  join frames queue behind thousands of flood frames, and the join
  p99 blows through the SLO (most surge joins never complete at all).
* **protected** — the same leader behind a
  :class:`~repro.overload.mailbox.BoundedMailbox` with per-sender
  fair-share admission and priority classes (joins outrank app
  traffic).  The queue stays bounded, the shed pain lands almost
  entirely on the flooder, and honest join p99 stays inside the SLO.

In both stacks every completed join rotates the group key (§2.2), and
the leader's :meth:`~repro.enclaves.itgm.leader.GroupLeader.tick`
runs every ``RETRANSMIT_INTERVAL`` as ``LeaderRuntime`` drives it, so
a shed ACK costs a resend, not a member stranded without later keys.

Everything runs on a :class:`~repro.util.clock.VirtualClock` with a
:class:`~repro.crypto.rng.DeterministicRandom` — two runs of the same
seed produce byte-identical telemetry JSONL (the CI check).  The
workload is a fixed schedule: the seed moves only key material, and
with it the JSONL frame ids, so every seed gives the same report
(apart from its ``seed`` field).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import (
    Joined,
    RekeyPolicy,
    UserDirectory,
)
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.leader_session import LeaderState
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.overload.admission import FairShareAdmission
from repro.overload.mailbox import BoundedMailbox
from repro.telemetry.events import EventBus
from repro.util.clock import VirtualClock
from repro.wire.message import Envelope

FLOODER = "mallory"
#: Scheduler tick (virtual seconds).
DT = 0.1
#: Frames the leader can service per virtual second.
SERVICE_RATE = 80.0
#: Honest members joining as a baseline trickle, and the seconds
#: between their join starts (first at t=1).
BASELINE_MEMBERS = 8
BASELINE_SPACING = 1.0
#: Honest-member join p99 objective (virtual seconds).
SLO_JOIN_P99 = 2.0
#: Protected-stack intake bound (fair share paces each sender at
#: :data:`~repro.overload.admission.FAIR_RATE`).
MAILBOX_CAPACITY = 128
#: Joining members retransmit a half-open handshake this often, and the
#: leader ticks (resending its unacknowledged frames) this often.
RETRANSMIT_INTERVAL = 1.0


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs for one overload soak (both stacks run the same values)."""

    seed: int = 7
    #: Virtual seconds of soak.
    duration: float = 20.0
    #: Insider flood rate (sealed APP frames per virtual second).
    flood_rate: float = 240.0
    #: The flood stops here (< duration), so recovery after the flood
    #: is part of the soak too.
    flood_until: float = 16.0
    #: The surge: this many extra members all start at ``surge_at`` —
    #: with spacing 1.0 that is a 10× instantaneous join rate.
    surge_members: int = 10
    surge_at: float = 12.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.flood_rate < 0:
            raise ValueError("rates must be sensible")


@dataclass
class StackReport:
    """What one stack did under the identical seeded workload."""

    stack: str
    joins_started: int = 0
    joins_completed: int = 0
    joins_pending: int = 0
    join_p50: float | None = None
    join_p99: float | None = None
    slo_met: bool = False
    max_queue_depth: int = 0
    frames_offered: int = 0
    frames_shed: int = 0
    shed_capacity: int = 0
    shed_fair_share: int = 0
    shed_flooder: int = 0
    shed_honest: int = 0
    flood_frames_serviced: int = 0
    rekeys_issued: int = 0
    saturation_episodes: int = 0
    #: Leader sessions that end the run not CONNECTED or with admin
    #: payloads still queued: members cut off from later group keys.
    members_stranded: int = 0


@dataclass
class OverloadReport:
    """Both stacks side by side, plus the headline verdict."""

    seed: int
    duration: float
    slo_join_p99: float
    protected: StackReport = field(default_factory=lambda: StackReport("protected"))
    unprotected: StackReport = field(default_factory=lambda: StackReport("unprotected"))

    @property
    def protection_holds(self) -> bool:
        """The acceptance shape: the protected stack meets the SLO the
        unprotected one demonstrably violates, and strands nobody."""
        return (self.protected.slo_met
                and self.protected.members_stranded == 0
                and not self.unprotected.slo_met)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over a sorted, non-empty list."""
    idx = max(0, min(len(sorted_values) - 1,
                     int(q * len(sorted_values) + 0.999999) - 1))
    return sorted_values[idx]


@dataclass
class _Joiner:
    member: MemberProtocol
    start_at: float
    started: bool = False
    completed_at: float | None = None
    last_retransmit: float = 0.0


class _StackRun:
    """One stack's soak: identical workload, different intake."""

    def __init__(
        self,
        stack: str,
        config: OverloadConfig,
        telemetry: EventBus | None,
    ) -> None:
        self.stack = stack
        self.config = config
        self.protected = stack == "protected"
        self.clock = VirtualClock()
        self.telemetry = telemetry
        if telemetry is not None:
            # Before any emission (the flooder's setup join below), so
            # every timestamp in the export is virtual time.
            telemetry.set_clock(self.clock)
        rng = DeterministicRandom(config.seed)
        self.directory = UserDirectory()
        self.leader = GroupLeader(
            "leader", self.directory,
            config=LeaderConfig(rekey_policy=RekeyPolicy.MANUAL),
            rng=rng.fork(f"{stack}-leader"),
            clock=self.clock,
            telemetry=telemetry,
        )
        if self.protected:
            self.mailbox = BoundedMailbox(
                f"leader/{stack}-intake",
                capacity=MAILBOX_CAPACITY,
                fair_share=FairShareAdmission(),
                telemetry=telemetry,
            )
        else:
            self.mailbox = None
            self._fifo: deque[Envelope] = deque()
            self._fifo_max = 0

        # The flooding insider joins before the soak starts.
        creds = self.directory.register_password(FLOODER, "pw-mallory")
        self.flooder = MemberProtocol(
            creds, "leader", rng=rng.fork(f"{stack}-{FLOODER}"),
        )
        self._pump_direct(self.flooder, self.flooder.start_join())
        assert self.flooder.state is MemberState.CONNECTED

        # Honest joiners: a baseline trickle plus the surge batch.
        self.joiners: dict[str, _Joiner] = {}
        for i in range(BASELINE_MEMBERS):
            start = 1.0 + i * BASELINE_SPACING
            self._add_joiner(f"user-{i:03d}", start, rng)
        for i in range(config.surge_members):
            self._add_joiner(
                f"surge-{i:03d}", config.surge_at, rng
            )

        self.report = StackReport(stack)
        self._service_credit = 0.0
        self._last_leader_tick = 0.0
        self._flood_credit = 0.0
        self._flood_frame: Envelope | None = None

    def _add_joiner(self, user_id: str, start: float,
                    rng: DeterministicRandom) -> None:
        creds = self.directory.register_password(user_id, f"pw-{user_id}")
        member = MemberProtocol(
            creds, "leader", rng=rng.fork(f"{self.stack}-{user_id}"),
        )
        self.joiners[user_id] = _Joiner(member, start)

    # -- plumbing ------------------------------------------------------------

    def _pump_direct(self, member: MemberProtocol, first: Envelope) -> None:
        """Drive one handshake leader<->member without the intake
        (pre-soak setup only)."""
        pending = [first]
        while pending:
            frame = pending.pop(0)
            if frame.recipient == "leader":
                out, _ = self.leader.handle(frame)
            else:
                out, _ = member.handle(frame)
            pending.extend(out)

    def _offer(self, envelope: Envelope, now: float) -> None:
        """One frame arrives at the leader's intake."""
        self.report.frames_offered += 1
        if self.mailbox is not None:
            self.mailbox.offer(envelope, now)
        else:
            self._fifo.append(envelope)
            if len(self._fifo) > self._fifo_max:
                self._fifo_max = len(self._fifo)

    def _take(self) -> Envelope | None:
        if self.mailbox is not None:
            return self.mailbox.take()
        return self._fifo.popleft() if self._fifo else None

    def _deliver_to_member(self, envelope: Envelope, now: float) -> None:
        """Leader -> member direction (members are never saturated)."""
        if envelope.recipient == FLOODER:
            out, _ = self.flooder.handle(envelope)
            for frame in out:
                self._offer(frame, now)
            return
        joiner = self.joiners.get(envelope.recipient)
        if joiner is None:
            return
        out, events = joiner.member.handle(envelope)
        if joiner.completed_at is None and any(
            isinstance(e, Joined) for e in events
        ):
            joiner.completed_at = now
            self._on_join_completed(now)
        for frame in out:
            self._offer(frame, now)

    def _on_join_completed(self, now: float) -> None:
        """Membership changed: rotate the group key."""
        self.report.rekeys_issued += 1
        for frame in self.leader.rekey_now():
            self._deliver_to_member(frame, now)

    # -- the soak loop -------------------------------------------------------

    def run(self) -> StackReport:
        cfg = self.config
        now = 0.0
        flood_payload = b"flood"
        while now < cfg.duration:
            self.clock.set(now)

            # 1. The leader services its budget (last tick's backlog
            #    first, so a join always costs at least one tick).
            self._service_credit += SERVICE_RATE * DT
            while self._service_credit >= 1.0:
                self._service_credit -= 1.0
                frame = self._take()
                if frame is None:
                    break
                if frame.sender == FLOODER:
                    self.report.flood_frames_serviced += 1
                out, _ = self.leader.handle(frame)
                for reply in out:
                    self._deliver_to_member(reply, now)

            # 2. The leader's timer: resend every frame a session still
            #    waits on (a shed ACK leaves its AdminMsg unacknowledged).
            if now - self._last_leader_tick >= RETRANSMIT_INTERVAL:
                self._last_leader_tick = now
                for frame in self.leader.tick():
                    self._deliver_to_member(frame, now)

            # 3. The insider floods: one fresh sealed frame per tick,
            #    replayed up to the flood rate (the cheap insider DoS).
            if now < cfg.flood_until:
                self._flood_credit += cfg.flood_rate * DT
                if self._flood_credit >= 1.0:
                    self._flood_frame = self.flooder.seal_app(
                        flood_payload
                    )
                while self._flood_credit >= 1.0:
                    self._flood_credit -= 1.0
                    self._offer(self._flood_frame, now)

            # 4. Honest joins start / retransmit on their schedule.
            for joiner in self.joiners.values():
                if joiner.completed_at is not None:
                    continue
                if not joiner.started and now >= joiner.start_at:
                    joiner.started = True
                    joiner.last_retransmit = now
                    self.report.joins_started += 1
                    self._offer(joiner.member.start_join(), now)
                elif joiner.started and (
                    now - joiner.last_retransmit >= RETRANSMIT_INTERVAL
                ):
                    joiner.last_retransmit = now
                    frame = joiner.member.retransmit_last()
                    if frame is not None:
                        self._offer(frame, now)

            now = round(now + DT, 9)

        return self._finish()

    def _finish(self) -> StackReport:
        rep = self.report
        cfg = self.config
        latencies = sorted(
            j.completed_at - j.start_at
            for j in self.joiners.values()
            if j.completed_at is not None
        )
        rep.joins_completed = len(latencies)
        rep.joins_pending = rep.joins_started - rep.joins_completed
        if latencies:
            rep.join_p50 = _percentile(latencies, 0.50)
            rep.join_p99 = _percentile(latencies, 0.99)
        # A join that never completed is an SLO violation no latency
        # percentile can hide.
        rep.slo_met = (
            rep.joins_pending == 0
            and rep.join_p99 is not None
            and rep.join_p99 <= SLO_JOIN_P99
        )
        if self.mailbox is not None:
            stats = self.mailbox.stats
            rep.max_queue_depth = stats.max_depth
            rep.shed_capacity = stats.shed_capacity
            rep.shed_fair_share = stats.shed_fair_share
            # Every shed, evictions included, lands in shed_by_sender.
            rep.frames_shed = sum(stats.shed_by_sender.values())
            rep.shed_flooder = stats.shed_by_sender.get(FLOODER, 0)
            rep.shed_honest = rep.frames_shed - rep.shed_flooder
            rep.saturation_episodes = stats.saturation_episodes
        else:
            rep.max_queue_depth = self._fifo_max
        rep.members_stranded = sum(
            1 for uid in (FLOODER, *self.joiners)
            if self.leader.session_state(uid) not in (
                None, LeaderState.CONNECTED)
            or self.leader.outbox_depth(uid)
        )
        return rep


def run_overload_soak(
    config: OverloadConfig | None = None,
    *,
    telemetry: EventBus | None = None,
) -> OverloadReport:
    """Run the identical seeded workload through both stacks.

    The unprotected stack runs first, then the protected one, both on
    the supplied bus (if any) — so one exported JSONL stream tells the
    whole before/after story with one monotone sequence.
    """
    cfg = config if config is not None else OverloadConfig()
    report = OverloadReport(cfg.seed, cfg.duration, SLO_JOIN_P99)
    for stack in ("unprotected", "protected"):
        run = _StackRun(stack, cfg, telemetry)
        setattr(report, stack, run.run())
    return report


def render_report(report: OverloadReport) -> str:
    """The CLI's comparison table."""
    lines = [
        f"overload soak  seed={report.seed}  "
        f"duration={report.duration:g}s  "
        f"SLO join p99 <= {report.slo_join_p99:g}s",
        "",
        f"{'':>24}  {'unprotected':>12}  {'protected':>12}",
    ]
    rows = [
        ("joins started", "joins_started", "d"),
        ("joins completed", "joins_completed", "d"),
        ("joins pending", "joins_pending", "d"),
        ("join p50 (s)", "join_p50", "f"),
        ("join p99 (s)", "join_p99", "f"),
        ("SLO met", "slo_met", "b"),
        ("max queue depth", "max_queue_depth", "d"),
        ("frames offered", "frames_offered", "d"),
        ("frames shed", "frames_shed", "d"),
        ("  shed from flooder", "shed_flooder", "d"),
        ("  shed from honest", "shed_honest", "d"),
        ("flood frames serviced", "flood_frames_serviced", "d"),
        ("rekeys issued", "rekeys_issued", "d"),
        ("members stranded", "members_stranded", "d"),
    ]
    for title, attr, kind in rows:
        cells = []
        for rep in (report.unprotected, report.protected):
            value = getattr(rep, attr)
            if value is None:
                cells.append("-")
            elif kind == "f":
                cells.append(f"{value:.2f}")
            elif kind == "b":
                cells.append("yes" if value else "NO")
            else:
                cells.append(str(value))
        lines.append(f"{title:>24}  {cells[0]:>12}  {cells[1]:>12}")
    lines.append("")
    verdict = (
        "protection holds: bounded queue, honest joins within SLO, "
        "no member stranded"
        if report.protection_holds
        else "PROTECTION DID NOT HOLD"
    )
    lines.append(verdict)
    return "\n".join(lines)


def _cmd_soak(args, bus) -> int:
    config = OverloadConfig(
        seed=args.seed,
        duration=args.duration,
        surge_members=args.surge,
        flood_rate=args.flood_rate,
    )
    report = run_overload_soak(config, telemetry=bus)
    print(render_report(report))
    return 0 if report.protection_holds else 1


def register(sub) -> None:
    overload = sub.add_parser(
        "overload",
        help="flooding-insider soak: unprotected vs admission-controlled",
    )
    # mode is "soak" (the only one today; the positional keeps the
    # door open for an "attack" tour like chaos/quorum have).
    overload.add_argument("mode", choices=("soak",),
                          help="seeded overload chaos soak comparing the "
                               "unbounded seed stack against the bounded "
                               "mailbox + fair share stack")
    overload.add_argument("--seed", type=int, default=7,
                          help="seeds key material and so the JSONL "
                               "frame ids; the workload is a fixed "
                               "schedule, so the report is the same "
                               "for every seed")
    overload.add_argument("--duration", type=float, default=20.0,
                          help="virtual seconds of soak")
    overload.add_argument("--surge", type=int, default=10,
                          help="members in the mid-soak join surge")
    overload.add_argument("--flood-rate", type=float, default=240.0,
                          help="flooder frames per virtual second")
    overload.add_argument("--out", metavar="PATH",
                          help="export the soak's event stream as "
                               "deterministic JSONL")
    overload.set_defaults(select="mode",
                          dispatch={"soak": (_cmd_soak, "out", True, "\n")})


__all__ = [
    "FLOODER",
    "OverloadConfig",
    "OverloadReport",
    "StackReport",
    "render_report",
    "run_overload_soak",
]
