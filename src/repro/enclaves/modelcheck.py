"""Systematic interleaving exploration of the concrete protocol stack.

Hypothesis samples delivery schedules; this module *enumerates* them:
a depth-bounded DFS over every order in which in-flight frames can be
delivered (optionally with duplication and drops), executed against the
real sans-IO protocol objects (deep-copied per branch), with an
invariant checked at every node.  It is the concrete-implementation
counterpart of the symbolic explorer — systematic concurrency testing
in the Chess/dPOR tradition, sized for protocol handshakes.

Usage::

    def build():
        ... create leader + members, return ModelCheckState ...

    result = explore_interleavings(build, invariant=my_invariant)
    assert result.ok

The scenario's *sends* happen up front (or in `on_quiescent` callbacks);
the explorer owns delivery order.  State explosion is tamed by a
fingerprint of the queue + observable protocol state, merging branches
that converge.

:func:`session_violations` is the other concrete-level check: the §5.4
list predicates of :mod:`repro.formal.properties` applied to one live
session's member and leader logs — the safety verdict of every soak.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.enclaves.itgm.admin import NewGroupKeyPayload
from repro.formal.properties import check_no_duplicates, check_prefix
from repro.wire.message import Envelope


def session_violations(member_log, leader_log) -> list[str]:
    """The §5.4 verdict on one live session's concrete logs.

    ``member_log`` is what the member accepted (``rcv_A``: its
    ``admin_log``), ``leader_log`` what its leader sent it (``snd_A``:
    ``admin_send_log(user)``).  Three checks, the first two being the
    formal model's own predicates on the concrete lists:

    * **prefix** — ``rcv_A`` is a byte-for-byte prefix of ``snd_A``;
    * **no duplicate epoch** — no group-key epoch was accepted twice;
    * **no stale epoch** — accepted epochs strictly increase, so a
      replayed or reordered key distribution never re-installs an old
      key.

    Returns one message per violated check (empty for a safe session);
    callers prefix their own member/leader label.
    """
    violations = []
    trace = SimpleNamespace(
        rcv=tuple(p.encode() for p in member_log),
        snd=tuple(p.encode() for p in leader_log),
    )
    if check_prefix(None, trace) is not None:
        violations.append("admin-log prefix violated")
    epochs = [
        p.epoch for p in member_log if isinstance(p, NewGroupKeyPayload)
    ]
    if check_no_duplicates(None, SimpleNamespace(rcv=epochs)) is not None:
        violations.append("duplicate group-key epoch accepted")
    if any(b < a for a, b in zip(epochs, epochs[1:])):
        violations.append(f"stale group key accepted (epochs {epochs})")
    return violations


@dataclass
class World:
    """One explored world: protocol endpoints plus in-flight frames."""

    #: address -> sans-IO core (anything with .handle)
    endpoints: dict[str, object]
    #: frames posted but not yet delivered, in post order
    in_flight: list[Envelope] = field(default_factory=list)
    #: invoked when the queue drains; may post more frames (phases)
    on_quiescent: "list[Callable[[World], None]]" = field(
        default_factory=list
    )

    def post(self, envelope: Envelope) -> None:
        self.in_flight.append(envelope)

    def post_all(self, envelopes) -> None:
        for envelope in envelopes:
            self.post(envelope)

    def deliver(self, index: int) -> None:
        """Deliver the index-th in-flight frame; responses are posted."""
        envelope = self.in_flight.pop(index)
        handler = self.endpoints.get(envelope.recipient)
        if handler is None:
            return
        out, _events = handler.handle(envelope)
        for reply in out:
            self.post(reply)


@dataclass
class CheckResult:
    """Outcome of one exploration."""

    worlds_explored: int
    max_depth_reached: int
    violation: str | None = None
    violating_schedule: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None


#: An invariant gets the World and returns None or a violation message.
Invariant = Callable[[World], "str | None"]


def explore_interleavings(
    build: Callable[[], World],
    invariant: Invariant,
    max_depth: int = 24,
    max_worlds: int = 20_000,
    with_duplicates: bool = False,
    with_drops: bool = False,
) -> CheckResult:
    """Enumerate delivery schedules; check ``invariant`` everywhere.

    ``with_duplicates`` also explores delivering a frame *and keeping*
    a copy in flight (replay); ``with_drops`` also explores discarding
    a frame.  Both multiply the branching factor — use shallow depths.
    """
    result = CheckResult(worlds_explored=0, max_depth_reached=0)
    seen: set[str] = set()

    def fingerprint(world: World) -> str:
        frames = ",".join(
            f"{e.label.name}:{e.sender}>{e.recipient}:{hash(e.body) & 0xFFFFFFFF:x}"
            for e in world.in_flight
        )
        states = ",".join(
            f"{addr}={getattr(ep, 'state', None)}"
            for addr, ep in sorted(world.endpoints.items())
            if hasattr(ep, "state")
        )
        return frames + "|" + states

    def dfs(world: World, depth: int, schedule: list[str]) -> bool:
        """Returns False when a violation was recorded (stop)."""
        result.worlds_explored += 1
        result.max_depth_reached = max(result.max_depth_reached, depth)
        if result.worlds_explored > max_worlds:
            raise RuntimeError(
                f"exploration exceeded {max_worlds} worlds; "
                "tighten the scenario"
            )
        message = invariant(world)
        if message is not None:
            result.violation = message
            result.violating_schedule = list(schedule)
            return False
        if not world.in_flight:
            if world.on_quiescent:
                follow_up = world.on_quiescent.pop(0)
                follow_up(world)
                if world.in_flight:
                    return dfs(world, depth, schedule)
            return True
        if depth >= max_depth:
            return True  # depth bound: unexplored, not a failure

        for index in range(len(world.in_flight)):
            choices = [("deliver", index)]
            if with_duplicates:
                choices.append(("duplicate", index))
            if with_drops:
                choices.append(("drop", index))
            for action, i in choices:
                branch = copy.deepcopy(world)
                frame = branch.in_flight[i]
                label = f"{action} {frame.label.name}->{frame.recipient}"
                if action == "deliver":
                    branch.deliver(i)
                elif action == "duplicate":
                    branch.in_flight.append(branch.in_flight[i])
                    branch.deliver(i)
                elif action == "drop":
                    branch.in_flight.pop(i)
                fp = fingerprint(branch)
                if fp in seen:
                    continue
                seen.add(fp)
                if not dfs(branch, depth + 1, schedule + [label]):
                    return False
        return True

    dfs(build(), 0, [])
    return result
