"""Composable, seeded fault-injection policies.

The paper assumes an *insecure asynchronous network*: frames may be
lost, duplicated, delayed, and reordered, and the single group leader
is explicitly named (§7) as the availability weak point.  This module
extends the :class:`~repro.net.adversary.Adversary` verdict machinery
with *benign-but-hostile* fault models so that recovery code can be
exercised deterministically:

* :class:`PartitionPolicy` — address-set splits; frames crossing the
  cut vanish, frames inside one component flow freely.
* :class:`DelayReorderPolicy` — seeded random per-frame delay.  Because
  held frames overtake shorter-held ones, delay doubles as reordering.
* :class:`GilbertElliottPolicy` — the classic two-state Markov bursty
  loss model (a good state with light loss, a bad state with heavy
  loss, seeded transitions).
* :func:`compose` — chain policies; the first non-DELIVER verdict wins.
* :class:`FaultPlan` — a schedule of policy *windows* plus leader
  crash/restart events, evaluated against a time source (normally the
  virtual clock of a chaos run), so a whole scenario is one seeded,
  replayable object.

Everything here is deterministic per seed: same plan, same seed, same
wire history.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRandom
from repro.net.adversary import ObservedFrame, Policy, Verdict
from repro.telemetry.events import (
    EventBus,
    FaultWindowClosed,
    FaultWindowOpened,
)


class PartitionPolicy:
    """Drop frames that cross a partition between address components.

    ``components`` is a list of address sets.  A frame is delivered iff
    its origin and recipient fall in the *same* component; a frame with
    either end in a listed component and the other end elsewhere (or in
    a different component) is severed.  Addresses appearing in no
    component are unrestricted among themselves — this lets a plan
    partition only the subset of the world it cares about.
    """

    def __init__(self, components: Iterable[Iterable[str]]) -> None:
        self.components: list[frozenset[str]] = [
            frozenset(c) for c in components
        ]
        seen: set[str] = set()
        for comp in self.components:
            overlap = seen & comp
            if overlap:
                raise ValueError(
                    f"addresses in multiple components: {sorted(overlap)}"
                )
            seen |= comp
        #: Frames dropped at the cut.
        self.severed = 0

    def _component_of(self, address: str) -> int:
        for i, comp in enumerate(self.components):
            if address in comp:
                return i
        return -1

    def __call__(self, frame: ObservedFrame) -> Verdict:
        a = self._component_of(frame.origin)
        b = self._component_of(frame.envelope.recipient)
        if a == -1 and b == -1:
            return Verdict.deliver()
        if a == b:
            return Verdict.deliver()
        self.severed += 1
        return Verdict.drop()


class DelayReorderPolicy:
    """Seeded random per-frame delay (and therefore reordering).

    Each frame is independently delayed with probability ``delay_rate``
    by a uniform hold in ``[min_hold, max_hold]`` seconds.  Two delayed
    frames with different holds swap order; a delayed frame is also
    overtaken by every undelayed frame behind it.
    """

    def __init__(
        self,
        min_hold: float = 0.05,
        max_hold: float = 0.5,
        delay_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        if min_hold < 0 or max_hold < min_hold:
            raise ValueError("need 0 <= min_hold <= max_hold")
        if not 0.0 <= delay_rate <= 1.0:
            raise ValueError("delay_rate must be in [0, 1]")
        self.min_hold = min_hold
        self.max_hold = max_hold
        self.delay_rate = delay_rate
        self._rng = DeterministicRandom(seed).fork("delay-reorder")
        #: Frames held back.
        self.delayed = 0

    def __call__(self, frame: ObservedFrame) -> Verdict:
        if self._rng.uniform() >= self.delay_rate:
            return Verdict.deliver()
        hold = self.min_hold + self._rng.uniform() * (
            self.max_hold - self.min_hold
        )
        self.delayed += 1
        return Verdict.delay(hold)


class GilbertElliottPolicy:
    """Two-state Markov bursty loss (Gilbert–Elliott).

    The channel is in a GOOD or BAD state; each observed frame first
    rolls a state transition, then rolls loss at that state's rate.
    Long BAD sojourns produce the correlated loss bursts that i.i.d.
    :class:`~repro.net.lossy.LossyPolicy` cannot, which is what breaks
    naive retransmission schemes tuned for independent loss.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.2,
        loss_good: float = 0.01,
        loss_bad: float = 0.7,
        seed: int = 0,
    ) -> None:
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = DeterministicRandom(seed).fork("gilbert-elliott")
        self.in_bad = False
        self.dropped = 0
        #: Completed GOOD→BAD transitions (burst count).
        self.bursts = 0

    def __call__(self, frame: ObservedFrame) -> Verdict:
        if self.in_bad:
            if self._rng.uniform() < self.p_bad_to_good:
                self.in_bad = False
        else:
            if self._rng.uniform() < self.p_good_to_bad:
                self.in_bad = True
                self.bursts += 1
        loss = self.loss_bad if self.in_bad else self.loss_good
        if self._rng.uniform() < loss:
            self.dropped += 1
            return Verdict.drop()
        return Verdict.deliver()


def compose(*policies: Policy) -> Policy:
    """Chain policies; the first non-DELIVER verdict wins.

    Later policies only see frames every earlier policy would deliver,
    so e.g. ``compose(partition, loss)`` drops at the cut first and
    rolls loss only on frames that survive it.
    """

    def policy(frame: ObservedFrame) -> Verdict:
        for p in policies:
            verdict = p(frame)
            if verdict.action is not verdict.action.DELIVER:
                return verdict
        return Verdict.deliver()

    return policy


# -- scheduled fault plans --------------------------------------------------


@dataclass(frozen=True, slots=True)
class PolicyWindow:
    """One fault policy active on ``[start, end)`` of the plan clock."""

    start: float
    end: float
    policy: Policy
    name: str


class LeaderEventKind(enum.Enum):
    """What happens to the leader at a scheduled instant."""

    CRASH_WARM = "crash-warm"          #: crash, then restore from snapshot
    RESTORE = "restore"                #: warm restore completes
    CRASH_FAILOVER = "crash-failover"  #: crash with no snapshot; promote standby


@dataclass(frozen=True, slots=True)
class LeaderEvent:
    """A leader crash/restore event on the plan clock."""

    at: float
    kind: LeaderEventKind


class FaultPlan:
    """A seeded, clock-driven schedule of faults.

    The plan owns two things: *policy windows* (network faults active
    over time intervals) and *leader events* (crash/restore instants).
    :meth:`as_policy` turns the window schedule into a single adversary
    policy evaluated against ``time_source`` — normally the virtual
    clock of the run, so the whole scenario is deterministic.  Leader
    events are not executed here; a runner (see ``repro.chaos.soak``)
    schedules them on the same clock.

    Builder methods return ``self`` so plans read as a schedule::

        plan = (FaultPlan(seed=7)
                .loss(4, 20, drop_rate=0.3, duplicate_rate=0.05)
                .partition(22, 30, [managers | half, rest])
                .crash_warm(at=10.0, restore_at=11.0)
                .crash_failover(at=34.0))
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.windows: list[PolicyWindow] = []
        self.leader_events: list[LeaderEvent] = []
        self._fork_count = 0

    def _fork_seed(self) -> int:
        # Derive one sub-seed per window so two loss windows in the same
        # plan do not replay identical roll sequences.
        self._fork_count += 1
        rng = DeterministicRandom(self.seed).fork(f"window-{self._fork_count}")
        return int.from_bytes(rng.random_bytes(8), "big")

    # -- window builders ---------------------------------------------------

    def window(
        self, start: float, end: float, policy: Policy, name: str
    ) -> "FaultPlan":
        """Add an arbitrary policy active on ``[start, end)``."""
        if end <= start:
            raise ValueError("window end must be after start")
        self.windows.append(PolicyWindow(start, end, policy, name))
        return self

    def loss(
        self,
        start: float,
        end: float,
        drop_rate: float = 0.3,
        duplicate_rate: float = 0.0,
    ) -> "FaultPlan":
        """i.i.d. loss/duplication window."""
        from repro.net.lossy import LossyPolicy

        policy = LossyPolicy(
            drop_rate=drop_rate,
            duplicate_rate=duplicate_rate,
            seed=self._fork_seed(),
        )
        return self.window(start, end, policy, f"loss({drop_rate})")

    def bursty(
        self,
        start: float,
        end: float,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.2,
        loss_good: float = 0.01,
        loss_bad: float = 0.7,
    ) -> "FaultPlan":
        """Gilbert–Elliott bursty loss window."""
        policy = GilbertElliottPolicy(
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
            loss_good=loss_good,
            loss_bad=loss_bad,
            seed=self._fork_seed(),
        )
        return self.window(start, end, policy, "bursty")

    def delay(
        self,
        start: float,
        end: float,
        min_hold: float = 0.05,
        max_hold: float = 0.5,
        delay_rate: float = 1.0,
    ) -> "FaultPlan":
        """Delay/reorder window."""
        policy = DelayReorderPolicy(
            min_hold=min_hold,
            max_hold=max_hold,
            delay_rate=delay_rate,
            seed=self._fork_seed(),
        )
        return self.window(start, end, policy, "delay-reorder")

    def partition(
        self,
        start: float,
        end: float,
        components: Sequence[Iterable[str]],
    ) -> "FaultPlan":
        """Partition window; heals (window closes) at ``end``."""
        policy = PartitionPolicy(components)
        return self.window(start, end, policy, "partition")

    # -- leader event builders ---------------------------------------------

    def crash_warm(self, at: float, restore_at: float) -> "FaultPlan":
        """Crash the leader at ``at``; warm-restore it at ``restore_at``."""
        if restore_at <= at:
            raise ValueError("restore must come after the crash")
        self.leader_events.append(LeaderEvent(at, LeaderEventKind.CRASH_WARM))
        self.leader_events.append(LeaderEvent(restore_at, LeaderEventKind.RESTORE))
        return self

    def crash_failover(self, at: float) -> "FaultPlan":
        """Crash the leader at ``at`` with no snapshot; standby takes over."""
        self.leader_events.append(
            LeaderEvent(at, LeaderEventKind.CRASH_FAILOVER)
        )
        return self

    # -- evaluation --------------------------------------------------------

    def as_policy(
        self,
        time_source: Callable[[], float],
        telemetry: EventBus | None = None,
    ) -> Policy:
        """Single adversary policy evaluating the window schedule.

        At each frame, every window active at ``time_source()`` gets a
        look, composed in insertion order (first non-DELIVER wins).

        With ``telemetry``, window transitions are announced as
        :class:`FaultWindowOpened` / :class:`FaultWindowClosed` events.
        The policy is only evaluated when a frame is observed, so the
        announcements are *lazy*: a window opening is reported at the
        first frame inside it, a closing at the first frame past it.
        """
        open_windows: set[int] = set()

        def policy(frame: ObservedFrame) -> Verdict:
            now = time_source()
            verdict: Verdict | None = None
            for i, w in enumerate(self.windows):
                active = w.start <= now < w.end
                if telemetry:
                    if active and i not in open_windows:
                        open_windows.add(i)
                        telemetry.emit(
                            FaultWindowOpened(w.name, w.start, w.end)
                        )
                    elif not active and i in open_windows and now >= w.end:
                        open_windows.discard(i)
                        telemetry.emit(FaultWindowClosed(w.name, w.end))
                if active and verdict is None:
                    candidate = w.policy(frame)
                    if candidate.action is not candidate.action.DELIVER:
                        verdict = candidate
            return verdict if verdict is not None else Verdict.deliver()

        return policy

    def describe(self) -> str:
        """Human-readable schedule, for reports."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for w in sorted(self.windows, key=lambda w: w.start):
            lines.append(f"  [{w.start:6.1f}, {w.end:6.1f})  {w.name}")
        for e in sorted(self.leader_events, key=lambda e: e.at):
            lines.append(f"  @{e.at:6.1f}            leader {e.kind.value}")
        return "\n".join(lines)
