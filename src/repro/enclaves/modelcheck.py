"""Systematic interleaving exploration of the concrete protocol stack.

Hypothesis samples delivery schedules; this module *enumerates* them:
a depth-bounded DFS over every order in which in-flight frames can be
delivered (optionally with duplication and drops), executed against the
real sans-IO protocol objects (deep-copied per branch), with an
invariant checked at every node: the symbolic explorer's own loop
(:func:`repro.formal.explorer.search`) run depth first — systematic
concurrency testing in the Chess/dPOR tradition, sized for protocol
handshakes.

Usage::

    def build():
        ... create leader + members, return a World ...

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
import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.enclaves.itgm.admin import NewGroupKeyPayload
from repro.formal.explorer import ExplorationResult, search
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


#: An invariant gets the World and returns None or a violation message.
Invariant = Callable[[World], "str | None"]


def _fingerprint(world: World) -> str:
    """The visited-set key: in-flight frames (bodies by SHA-256, which no
    hash seed moves) and every endpoint's ``state`` attribute."""
    frames = ",".join(
        f"{e.label.name}:{e.sender}>{e.recipient}:"
        f"{hashlib.sha256(e.body).hexdigest()}"
        for e in world.in_flight
    )
    states = ",".join(
        f"{addr}={getattr(ep, 'state', None)}"
        for addr, ep in sorted(world.endpoints.items())
        if hasattr(ep, "state")
    )
    return frames + "|" + states


def explore_interleavings(
    build: Callable[[], World],
    invariant: Invariant,
    max_depth: int = 24,
    max_worlds: int = 20_000,
    with_duplicates: bool = False,
    with_drops: bool = False,
) -> ExplorationResult:
    """Enumerate delivery schedules; check ``invariant`` everywhere.

    ``with_duplicates`` also explores delivering a frame *and keeping*
    a copy in flight (replay); ``with_drops`` also explores discarding
    a frame.  Both multiply the branching factor — use shallow depths.
    ``max_worlds`` bounds the distinct worlds reached from the start;
    ``worlds_explored`` also counts the start and each phase re-entry.
    """
    actions = ["deliver"] + ["duplicate"] * with_duplicates \
        + ["drop"] * with_drops

    def successors(world: World):
        for index in range(len(world.in_flight)):
            for action in actions:
                branch = copy.deepcopy(world)
                frame = branch.in_flight[index]
                if action == "duplicate":
                    branch.in_flight.append(frame)
                if action == "drop":
                    branch.in_flight.pop(index)
                else:
                    branch.deliver(index)
                label = f"{action} {frame.label.name}->{frame.recipient}"
                yield SimpleNamespace(description=label, target=branch)

    phases = 0

    def check(world: World):
        # A drained queue starts the next on_quiescent phase in place;
        # the world it posts into is checked (and counted) once more.
        nonlocal phases
        message = invariant(world)
        if message is None and not world.in_flight and world.on_quiescent:
            world.on_quiescent.pop(0)(world)
            if world.in_flight:
                phases += 1
                message = invariant(world)
        return [] if message is None else [("invariant", message)]

    result = search(build(), successors, _fingerprint, check,
                    max_states=max_worlds, max_depth=max_depth,
                    depth_first=True)
    result.states_explored += 1 + phases
    return result
