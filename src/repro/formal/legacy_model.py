"""Symbolic model of the LEGACY §2.2 protocols — flaw discovery.

The attack library (`repro.attacks`) demonstrates the §2.3 weaknesses
with *scripted* concrete attacks.  This model lets the explorer
**discover** them: the legacy message shapes and FSMs are encoded
symbolically, the same §5 invariants are checked, and bounded
exploration finds the violations the paper describes — replayable
rekeying and forgeable membership notices — as counterexample traces,
with no attack scripted anywhere.

Modelled slice (enough to expose the flaws; the pre-auth exchange is
elided because its flaw — the forged plaintext denial — is a liveness
attack, invisible to safety checking):

* join (3 messages, with the group key inside message 2)::

      A -> L : {A, L, N1}_{P_a}
      L -> A : {L, A, N1, N2, K_a, K_g}_{P_a}
      A -> L : {N2}_{K_a}

* rekey (NO freshness — the §2.3 flaw)::

      L -> A : {K_g'}_{K_a}          (A applies it, records it in rcv)

* leave: plaintext; L discards K_a and Oops's BOTH K_a and the group
  keys A held (a leaver keeps its old group keys — "a past member of
  the group who has kept the old key K'_g", §2.3).

Checked properties (legacy variants in :data:`LEGACY_CHECKS`):

* ``group_key_freshness`` — A's current group key was distributed by
  the *most recent* rekey (no reversion).  The explorer violates this
  via a replayed old ``new_key`` message: the §2.3 attack, found
  automatically.
* ``group_key_secrecy`` — A's current group key is unknown to the spy.
  Violated through the same replay once the old key has been Oops'd.
* ``rekey_no_duplication`` — no rekey message applied twice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.formal.fields import (
    Agent,
    Concat,
    Crypt,
    Field,
    LongTerm,
    NonceF,
    SessionK,
)
from repro.formal.knowledge import KnowledgeState, parts


@dataclass(frozen=True, slots=True)
class LUserIdle:
    """Legacy user: not in the group."""


@dataclass(frozen=True, slots=True)
class LUserWaiting:
    """Legacy user: sent auth message 1 with ``nonce``."""

    nonce: NonceF


@dataclass(frozen=True, slots=True)
class LUserMember:
    """Legacy user: in the group with a session key and a group key."""

    key: SessionK
    group_key: SessionK  # group keys reuse the symbolic key sort


LegacyUserState = LUserIdle | LUserWaiting | LUserMember


@dataclass(frozen=True, slots=True)
class LLeadIdle:
    """Legacy leader: A not connected."""


@dataclass(frozen=True, slots=True)
class LLeadWaiting:
    """Legacy leader: sent auth message 2, awaiting {N2}_{K_a}."""

    nonce: NonceF
    key: SessionK


@dataclass(frozen=True, slots=True)
class LLeadMember:
    """Legacy leader: A is a member under session key ``key``."""

    key: SessionK


LegacyLeaderState = LLeadIdle | LLeadWaiting | LLeadMember


#: Bound on how many new_key messages A may apply.  The flaw is that
#: A *can* re-apply old ones; without a bound the state space is
#: infinite (each application is a distinct state).
MAX_APPLIES = 4
#: The modelled user and leader.
USER = "A"
LEADER = "L"


@dataclass(frozen=True)
class LegacyConfig:
    """Exploration bounds for the legacy model."""

    max_sessions: int = 1
    max_rekeys: int = 2


@dataclass(frozen=True)
class LegacyState:
    """Global state of the legacy model."""

    usr: LegacyUserState
    lead: LegacyLeaderState
    contents: frozenset[Field]
    trace_parts: frozenset[Field]
    spy: KnowledgeState
    #: group keys by distribution order (leader's view); the *last* one
    #: is current.
    distributed: tuple[SessionK, ...]
    #: rekey messages A applied, in order (with duplicates if any).
    applied: tuple[SessionK, ...]
    oopsed: frozenset[SessionK]
    next_id: int
    sessions: int = 0
    rekeys: int = 0

    def fingerprint(self) -> tuple:
        return (
            self.usr, self.lead, self.contents, self.spy.accessible,
            self.distributed, self.applied, self.sessions, self.rekeys,
        )


@dataclass(frozen=True)
class LegacyTransition:
    actor: str
    description: str
    target: LegacyState


class LegacyEnclavesModel:
    """Transition generator for the legacy protocol slice."""

    def __init__(self, config: LegacyConfig | None = None) -> None:
        self.config = config if config is not None else LegacyConfig()
        self.A = Agent(USER)
        self.L = Agent(LEADER)
        self.Pa = LongTerm(USER)

    def initial_state(self) -> LegacyState:
        return LegacyState(
            usr=LUserIdle(),
            lead=LLeadIdle(),
            contents=frozenset(),
            trace_parts=frozenset(),
            spy=KnowledgeState.from_fields([self.A, self.L]),
            distributed=(),
            applied=(),
            oopsed=frozenset(),
            next_id=0,
        )

    # -- helpers -----------------------------------------------------------

    def _emit(self, state: LegacyState, actor: str, description: str,
              content: Field, **changes) -> LegacyTransition:
        target = replace(
            state,
            contents=state.contents | {content},
            trace_parts=state.trace_parts | parts([content]),
            spy=state.spy.add(content),
            **changes,
        )
        return LegacyTransition(actor, description, target)

    def _silent(self, state: LegacyState, actor: str, description: str,
                **changes) -> LegacyTransition:
        return LegacyTransition(actor, description,
                                replace(state, **changes))

    # -- transitions -----------------------------------------------------------

    def successors(self, state: LegacyState) -> list[LegacyTransition]:
        out: list[LegacyTransition] = []
        out.extend(self._user(state))
        out.extend(self._leader(state))
        return out

    def _user(self, state: LegacyState) -> Iterator[LegacyTransition]:
        cfg = self.config
        usr = state.usr
        if isinstance(usr, LUserIdle) and state.sessions < cfg.max_sessions:
            n1 = NonceF(state.next_id)
            content = Crypt(self.Pa, Concat((self.A, self.L, n1)))
            yield self._emit(
                state, "A", f"A sends legacy auth1({n1})", content,
                usr=LUserWaiting(n1),
                next_id=state.next_id + 1,
                sessions=state.sessions + 1,
            )
        elif isinstance(usr, LUserWaiting):
            # Accept {L, A, N1, N2, K_a, K_g}_{P_a}.
            for f in sorted(state.trace_parts, key=repr):
                if (
                    isinstance(f, Crypt) and f.key == self.Pa
                    and isinstance(f.body, Concat)
                    and len(f.body.parts) == 6
                ):
                    l_, a_, n1, n2, ka, kg = f.body.parts
                    if (
                        l_ == self.L and a_ == self.A and n1 == usr.nonce
                        and isinstance(ka, SessionK)
                        and isinstance(kg, SessionK)
                    ):
                        content = Crypt(ka, n2)
                        yield self._emit(
                            state, "A", "A completes legacy auth", content,
                            usr=LUserMember(ka, kg),
                            applied=state.applied + (kg,),
                        )
        elif isinstance(usr, LUserMember):
            # FLAW (§2.3): accept ANY {K_g'}_{K_a} — no freshness check.
            # (Bounded by MAX_APPLIES or the state space is infinite:
            # the same message can be applied forever.)
            if len(state.applied) < MAX_APPLIES:
                for f in sorted(state.trace_parts, key=repr):
                    if (
                        isinstance(f, Crypt) and f.key == usr.key
                        and isinstance(f.body, SessionK)
                    ):
                        yield self._silent(
                            state, "A",
                            f"A applies new_key({f.body}) [no freshness]",
                            usr=LUserMember(usr.key, f.body),
                            applied=state.applied + (f.body,),
                        )
            # Leave: plaintext request; modelled as the user departing
            # and its keys becoming public (the leaver keeps them).
            leak = Concat((usr.key, usr.group_key))
            target = replace(
                state,
                usr=LUserIdle(),
                contents=state.contents | {leak},
                trace_parts=state.trace_parts | parts([leak]),
                spy=state.spy.add(leak),
                oopsed=state.oopsed | {usr.key, usr.group_key},
                applied=(),
            )
            yield LegacyTransition(
                "A", f"A leaves; Oops({usr.key}, {usr.group_key})", target
            )

    def _leader(self, state: LegacyState) -> Iterator[LegacyTransition]:
        cfg = self.config
        lead = state.lead
        if isinstance(lead, LLeadIdle):
            for f in state.trace_parts:
                if (
                    isinstance(f, Crypt) and f.key == self.Pa
                    and isinstance(f.body, Concat)
                    and len(f.body.parts) == 3
                ):
                    a_, l_, n1 = f.body.parts
                    if a_ == self.A and l_ == self.L and isinstance(n1, NonceF):
                        n2 = NonceF(state.next_id)
                        ka = SessionK(state.next_id + 1)
                        kg = (
                            state.distributed[-1]
                            if state.distributed
                            else SessionK(state.next_id + 2)
                        )
                        distributed = (
                            state.distributed if state.distributed
                            else state.distributed + (kg,)
                        )
                        content = Crypt(
                            self.Pa,
                            Concat((self.L, self.A, n1, n2, ka, kg)),
                        )
                        yield self._emit(
                            state, "L", f"L answers legacy auth1 with {ka}",
                            content,
                            lead=LLeadWaiting(n2, ka),
                            distributed=distributed,
                            next_id=state.next_id + 3,
                        )
        elif isinstance(lead, LLeadWaiting):
            if Crypt(lead.key, lead.nonce) in state.trace_parts:
                yield self._silent(
                    state, "L", "L accepts legacy auth3; A is a member",
                    lead=LLeadMember(lead.key),
                )
        elif isinstance(lead, LLeadMember):
            if state.rekeys < cfg.max_rekeys:
                kg = SessionK(state.next_id)
                content = Crypt(lead.key, kg)
                yield self._emit(
                    state, "L", f"L rekeys to {kg} [legacy new_key]",
                    content,
                    lead=LLeadMember(lead.key),
                    distributed=state.distributed + (kg,),
                    next_id=state.next_id + 1,
                    rekeys=state.rekeys + 1,
                )
            if isinstance(state.usr, LUserIdle):
                # Leader notices the (plaintext) leave.
                yield self._silent(
                    state, "L", "L closes A's legacy session",
                    lead=LLeadIdle(),
                )


# -- legacy-specific checks -----------------------------------------------------


def check_group_key_freshness(model: LegacyEnclavesModel,
                              state: LegacyState) -> str | None:
    """A member must never *revert* to an older group key after having
    applied a newer one — that is precisely the §2.3 replay attack's
    observable effect."""
    if isinstance(state.usr, LUserMember) and state.distributed:
        held = state.usr.group_key
        if held in state.applied:
            held_pos = state.distributed.index(held) \
                if held in state.distributed else -1
            newer = state.distributed[held_pos + 1:] if held_pos >= 0 else ()
            if any(k in state.applied for k in newer):
                return (
                    f"group key reverted: member holds {held!r} after "
                    f"having applied a newer key"
                )
    return None


def check_group_key_secrecy(model: LegacyEnclavesModel,
                            state: LegacyState) -> str | None:
    """The member's current group key must be unknown to nontrusted
    agents (past members included)."""
    if isinstance(state.usr, LUserMember):
        if state.spy.knows(state.usr.group_key):
            return (
                f"group key {state.usr.group_key!r} held by the member is "
                "known to the spy (e.g. a past member)"
            )
    return None


def check_rekey_no_duplication(model: LegacyEnclavesModel,
                               state: LegacyState) -> str | None:
    """No key-distribution message applied more than once (the §3.1
    no-duplication requirement, legacy rendering): a key appearing
    twice in the applied list means a duplicate or replay landed."""
    for i in range(1, len(state.applied)):
        if state.applied[i] in state.applied[:i]:
            return f"rekey re-applied: {state.applied[i]!r}"
    return None


LEGACY_CHECKS = {
    "group_key_freshness": check_group_key_freshness,
    "group_key_secrecy": check_group_key_secrecy,
    "rekey_no_duplication": check_rekey_no_duplication,
}
