"""The global state-transition model of paper §4.

The model is the asynchronous composition of

* an honest user **A** (the state machine of Figure 2),
* an honest leader **L** (one Figure-3 machine per user),
* a pool of nontrusted agents — the **Spy** — whose behaviour is any
  message in ``Gen(Spy, q) = Synth(Know(Spy, q) ∪ FreshFields(q))``,
* optionally a **compromised member C**: a registered user whose
  long-term key ``P_c`` is in the spy's initial knowledge, so the spy
  can run complete legitimate sessions as C through the honest leader
  (this is the paper's "nontrustworthy group member").

Message contents follow §5.3's formal shapes (identities folded inside
the encryption)::

    AuthInitReq : {A, L, N1}_{P_a}
    AuthKeyDist : {L, A, N1, N2, K}_{P_a}
    AuthAckKey  : {A, L, N2, N3}_{K}
    AdminMsg    : {L, A, N_prev, N_new, X}_{K}
    Ack         : {A, L, N_prev, N_new}_{K}
    ReqClose    : {A, L}_{K}

``X`` is an opaque fresh ``Data`` atom: the model fixes nothing about
what one group-management message says, only that L chose it and A
accepts it at most once, in order.  The runtime's batched X
(:class:`~repro.enclaves.itgm.admin.BatchPayload`, several payloads in
one AdminMsg) is therefore the same model, unchanged — one atom, one
nonce step, one Ack — with ``snd``/``rcv`` read per atom here and per
item there; no frame type and no transition was added for it.

Reception is Paulson-style: an agent can fire a receive transition when
a field matching the expected pattern occurs in ``Parts(trace)``.  Fresh
nonces/keys/data come from a monotone allocator in the state, which
makes every fresh value globally unique (the paper's FreshFields).

State identity deliberately omits the event list: two interleavings that
produce the same local states, the same ``Parts(trace)``, the same spy
knowledge, and the same logs are the same state for exploration purposes
(the guards and the §5 predicates depend only on those).  The explorer
keeps representative paths separately for counterexample reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.formal.events import Event, Msg, MsgLabel, Oops
from repro.formal.fields import (
    Agent,
    Concat,
    Crypt,
    Data,
    Field,
    LongTerm,
    NonceF,
    SessionK,
)
from repro.formal.knowledge import KnowledgeState

# -- local states (Figures 2 and 3) -------------------------------------------


@dataclass(frozen=True, slots=True)
class UNotConnected:
    """User: out of the group, no authentication in progress."""


@dataclass(frozen=True, slots=True)
class UWaitingForKey:
    """User: sent AuthInitReq with ``nonce``, awaiting AuthKeyDist."""

    nonce: NonceF


@dataclass(frozen=True, slots=True)
class UConnected:
    """User: in the group; ``nonce`` is the last nonce we generated."""

    nonce: NonceF
    key: SessionK


UserState = UNotConnected | UWaitingForKey | UConnected


@dataclass(frozen=True, slots=True)
class LNotConnected:
    """Leader: this user is not connected."""


@dataclass(frozen=True, slots=True)
class LWaitingForKeyAck:
    """Leader: sent AuthKeyDist (fresh ``key``), awaiting ack of ``nonce``.

    ``origin`` is the request nonce N1 this session answers; it ties an
    eventual acceptance back to the AuthInitReq that triggered it, which
    is what the §5.4 proper-authentication property talks about.
    """

    nonce: NonceF
    key: SessionK
    origin: NonceF


@dataclass(frozen=True, slots=True)
class LConnected:
    """Leader: user is a member; ``nonce`` is the user's latest nonce."""

    nonce: NonceF
    key: SessionK


@dataclass(frozen=True, slots=True)
class LWaitingForAck:
    """Leader: sent AdminMsg with ``nonce``, awaiting the Ack."""

    nonce: NonceF
    key: SessionK


LeaderState = LNotConnected | LWaitingForKeyAck | LConnected | LWaitingForAck


# -- configuration ------------------------------------------------------------


#: The modelled user, leader and compromised member.
USER = "A"
LEADER = "L"
COMPROMISED = "C"


@dataclass(frozen=True)
class ModelConfig:
    """Exploration bounds and model options."""

    #: How many times A may start the join protocol.
    max_sessions: int = 1
    #: How many AdminMsgs L may send to A (across all sessions).
    max_admin: int = 2
    #: How many forged messages the spy may inject.
    spy_budget: int = 1
    #: Model a compromised member C (P_c known to the spy).
    compromised_member: bool = False
    #: How many sessions the spy may run as C.
    max_c_sessions: int = 1
    #: How many AdminMsgs L may send to C.
    max_c_admin: int = 1


# -- global state -------------------------------------------------------------


@dataclass(frozen=True)
class GlobalState:
    """One global state q of the system."""

    usr: UserState
    lead: LeaderState
    lead_c: LeaderState
    #: The trace contents (the paper's underlined trace(q)), as a set.
    contents: frozenset[Field]
    #: Parts(trace contents), maintained incrementally.
    trace_parts: frozenset[Field]
    #: Analz(I(Spy) ∪ trace contents), maintained incrementally.
    spy: KnowledgeState
    #: snd_A / rcv_A — admin payloads sent by L to A / accepted by A (§5.4).
    snd: tuple[Field, ...]
    rcv: tuple[Field, ...]
    #: request/accept logs for proper authentication (§5.4): N1 nonces.
    request_log: tuple[NonceF, ...]
    accept_log: tuple[NonceF, ...]
    #: Oops'd (published) session keys, for documentation/assertions.
    oopsed: frozenset[SessionK]
    #: fresh-value allocator (monotone).
    next_id: int
    # budget counters
    sessions: int = 0
    admin_count: int = 0
    spy_count: int = 0
    c_sessions: int = 0
    c_admin: int = 0

    def fingerprint(self) -> tuple:
        """Identity for visited-state merging (see module docstring)."""
        return (
            self.usr, self.lead, self.lead_c, self.contents,
            self.spy.accessible, self.snd, self.rcv,
            self.request_log, self.accept_log,
            self.sessions, self.admin_count, self.spy_count,
            self.c_sessions, self.c_admin,
        )


@dataclass(frozen=True)
class Transition:
    """One edge of the global transition relation."""

    actor: str
    description: str
    event: Optional[Event]
    target: GlobalState


# -- the model -----------------------------------------------------------------


class EnclavesModel:
    """Transition generator for the improved Enclaves protocol."""

    def __init__(self, config: ModelConfig | None = None) -> None:
        self.config = config if config is not None else ModelConfig()
        self.A = Agent(USER)
        self.L = Agent(LEADER)
        self.C = Agent(COMPROMISED)
        self.Pa = LongTerm(USER)
        self.Pc = LongTerm(COMPROMISED)

    # -- initial state ---------------------------------------------------------

    def initial_state(self) -> GlobalState:
        """q0: everyone disconnected; the spy knows identities (public)
        and, if configured, the compromised member's long-term key."""
        spy_initial: list[Field] = [self.A, self.L, self.C]
        if self.config.compromised_member:
            spy_initial.append(self.Pc)
        return GlobalState(
            usr=UNotConnected(),
            lead=LNotConnected(),
            lead_c=LNotConnected(),
            contents=frozenset(),
            trace_parts=frozenset(),
            spy=KnowledgeState.from_fields(spy_initial),
            snd=(),
            rcv=(),
            request_log=(),
            accept_log=(),
            oopsed=frozenset(),
            next_id=0,
        )

    # -- message constructors (shapes of §5.3) ------------------------------------

    def auth_init_req(self, user: Agent, key: LongTerm, n1: NonceF) -> Crypt:
        return Crypt(key, Concat((user, self.L, n1)))

    def auth_key_dist(
        self, user: Agent, key: LongTerm, n1: NonceF, n2: NonceF, k: SessionK
    ) -> Crypt:
        return Crypt(key, Concat((self.L, user, n1, n2, k)))

    def key_ack(self, user: Agent, k: SessionK, n: NonceF, n2: NonceF) -> Crypt:
        return Crypt(k, Concat((user, self.L, n, n2)))

    def admin_msg(
        self, user: Agent, k: SessionK, n_prev: NonceF, n_new: NonceF, x: Field
    ) -> Crypt:
        return Crypt(k, Concat((self.L, user, n_prev, n_new, x)))

    def req_close(self, user: Agent, k: SessionK) -> Crypt:
        return Crypt(k, Concat((user, self.L)))

    # -- pattern finders over Parts(trace) -----------------------------------------

    def find_key_dists(
        self, state: GlobalState, user: Agent, key: LongTerm, n1: NonceF
    ) -> Iterator[tuple[NonceF, SessionK]]:
        """All (N2, K) with {L, user, n1, N2, K}_{key} ∈ Parts(trace)."""
        for f in state.trace_parts:
            if (
                isinstance(f, Crypt)
                and f.key == key
                and isinstance(f.body, Concat)
                and len(f.body.parts) == 5
            ):
                l_, u_, n1_, n2, k = f.body.parts
                if (
                    l_ == self.L and u_ == user and n1_ == n1
                    and isinstance(n2, NonceF) and isinstance(k, SessionK)
                ):
                    yield n2, k

    def find_key_acks(
        self, state: GlobalState, user: Agent, k: SessionK, n: NonceF
    ) -> Iterator[NonceF]:
        """All N' with {user, L, n, N'}_{k} ∈ Parts(trace)."""
        for f in state.trace_parts:
            if (
                isinstance(f, Crypt)
                and f.key == k
                and isinstance(f.body, Concat)
                and len(f.body.parts) == 4
            ):
                u_, l_, n_, n2 = f.body.parts
                if u_ == user and l_ == self.L and n_ == n and isinstance(n2, NonceF):
                    yield n2

    def find_admins(
        self, state: GlobalState, user: Agent, k: SessionK, n_prev: NonceF
    ) -> Iterator[tuple[NonceF, Field]]:
        """All (N', X) with {L, user, n_prev, N', X}_{k} ∈ Parts(trace)."""
        for f in state.trace_parts:
            if (
                isinstance(f, Crypt)
                and f.key == k
                and isinstance(f.body, Concat)
                and len(f.body.parts) == 5
            ):
                l_, u_, np_, nn, x = f.body.parts
                if (
                    l_ == self.L and u_ == user and np_ == n_prev
                    and isinstance(nn, NonceF)
                ):
                    yield nn, x

    def find_inits(
        self, state: GlobalState, user: Agent, key: LongTerm
    ) -> Iterator[NonceF]:
        """All N with {user, L, N}_{key} ∈ Parts(trace)."""
        for f in state.trace_parts:
            if (
                isinstance(f, Crypt)
                and f.key == key
                and isinstance(f.body, Concat)
                and len(f.body.parts) == 3
            ):
                u_, l_, n = f.body.parts
                if u_ == user and l_ == self.L and isinstance(n, NonceF):
                    yield n

    def close_present(self, state: GlobalState, user: Agent, k: SessionK) -> bool:
        """{user, L}_{k} ∈ Parts(trace)?"""
        return Crypt(k, Concat((user, self.L))) in state.trace_parts

    # -- state evolution helpers ----------------------------------------------

    @staticmethod
    def _extend(state: GlobalState, content: Field, **changes) -> dict:
        """Shared state updates for any event with ``content``: grow
        Parts(trace) and the spy's knowledge (all agents observe all
        events, §4.2)."""
        from repro.formal.knowledge import parts

        new_parts = state.trace_parts | parts([content])
        return dict(
            contents=state.contents | {content},
            trace_parts=new_parts,
            spy=state.spy.add(content),
            **changes,
        )

    def _send(
        self,
        state: GlobalState,
        actor: str,
        description: str,
        label: MsgLabel,
        sender: str,
        recipient: str,
        content: Field,
        **changes,
    ) -> Transition:
        updates = self._extend(state, content, **changes)
        target = replace(state, **updates)
        return Transition(
            actor=actor,
            description=description,
            event=Msg(label, sender, recipient, content),
            target=target,
        )

    def _silent(
        self, state: GlobalState, actor: str, description: str, **changes
    ) -> Transition:
        """A local transition with no message (e.g., accepting an ack)."""
        return Transition(
            actor=actor,
            description=description,
            event=None,
            target=replace(state, **changes),
        )

    # -- successor generation ------------------------------------------------------

    def successors(self, state: GlobalState) -> list[Transition]:
        """All enabled transitions of the asynchronous composition."""
        out: list[Transition] = []
        out.extend(self._user_transitions(state))
        out.extend(self._leader_transitions(state))
        if self.config.compromised_member:
            out.extend(self._leader_c_transitions(state))
        out.extend(self._spy_transitions(state))
        return out

    # .. honest user A (Figure 2) ..................................................

    def _user_transitions(self, state: GlobalState) -> Iterator[Transition]:
        cfg = self.config
        usr = state.usr

        if isinstance(usr, UNotConnected) and state.sessions < cfg.max_sessions:
            n1 = NonceF(state.next_id)
            content = self.auth_init_req(self.A, self.Pa, n1)
            yield self._send(
                state, "A", f"A sends AuthInitReq({n1})",
                MsgLabel.AUTH_INIT_REQ, USER, LEADER, content,
                usr=UWaitingForKey(n1),
                next_id=state.next_id + 1,
                sessions=state.sessions + 1,
                request_log=state.request_log + (n1,),
            )

        elif isinstance(usr, UWaitingForKey):
            for n2, k in self.find_key_dists(state, self.A, self.Pa, usr.nonce):
                n3 = NonceF(state.next_id)
                content = self.key_ack(self.A, k, n2, n3)
                yield self._send(
                    state, "A", f"A accepts AuthKeyDist, acks with {n3}",
                    MsgLabel.AUTH_ACK_KEY, USER, LEADER, content,
                    usr=UConnected(n3, k),
                    next_id=state.next_id + 1,
                )

        elif isinstance(usr, UConnected):
            for n_new, x in self.find_admins(state, self.A, usr.key, usr.nonce):
                n_next = NonceF(state.next_id)
                content = self.key_ack(self.A, usr.key, n_new, n_next)
                yield self._send(
                    state, "A", f"A accepts AdminMsg({x}), acks with {n_next}",
                    MsgLabel.ACK, USER, LEADER, content,
                    usr=UConnected(n_next, usr.key),
                    next_id=state.next_id + 1,
                    rcv=state.rcv + (x,),
                )
            content = self.req_close(self.A, usr.key)
            yield self._send(
                state, "A", "A sends ReqClose and leaves",
                MsgLabel.REQ_CLOSE, USER, LEADER, content,
                usr=UNotConnected(),
                rcv=(),  # rcv_A emptied when A leaves (§5.4)
            )

    # .. honest leader L, session for A (Figure 3) ....................................

    def _leader_transitions(self, state: GlobalState) -> Iterator[Transition]:
        cfg = self.config
        lead = state.lead

        if isinstance(lead, LNotConnected):
            for n1 in self.find_inits(state, self.A, self.Pa):
                n2 = NonceF(state.next_id)
                k = SessionK(state.next_id + 1)
                content = self.auth_key_dist(self.A, self.Pa, n1, n2, k)
                yield self._send(
                    state, "L", f"L answers AuthInitReq({n1}) with key {k}",
                    MsgLabel.AUTH_KEY_DIST, LEADER, USER, content,
                    lead=LWaitingForKeyAck(n2, k, origin=n1),
                    next_id=state.next_id + 2,
                )

        elif isinstance(lead, LWaitingForKeyAck):
            # Note: ReqClose is NOT accepted here.  A can only produce
            # {A, L}_{K_a} after accepting the key, i.e., after sending
            # its AuthAckKey — so the pending key ack is always consumed
            # first.  (Accepting the close here would let a close
            # overtake the ack and falsify §5.4's acceptance-prefix
            # property; Figure 3 attaches Oops transitions to the
            # Connected and WaitingForAck states only.)
            for n3 in self.find_key_acks(state, self.A, lead.key, lead.nonce):
                yield self._silent(
                    state, "L", f"L accepts AuthAckKey; A is a member ({n3})",
                    lead=LConnected(n3, lead.key),
                    accept_log=state.accept_log + (lead.origin,),
                )

        elif isinstance(lead, LConnected):
            if state.admin_count < cfg.max_admin:
                n_new = NonceF(state.next_id)
                x = Data(state.next_id + 1)
                content = self.admin_msg(self.A, lead.key, lead.nonce, n_new, x)
                yield self._send(
                    state, "L", f"L sends AdminMsg({x})",
                    MsgLabel.ADMIN_MSG, LEADER, USER, content,
                    lead=LWaitingForAck(n_new, lead.key),
                    next_id=state.next_id + 2,
                    admin_count=state.admin_count + 1,
                    snd=state.snd + (x,),
                )
            yield from self._leader_close(state, lead.key)

        elif isinstance(lead, LWaitingForAck):
            for n_next in self.find_key_acks(state, self.A, lead.key, lead.nonce):
                yield self._silent(
                    state, "L", f"L accepts Ack({n_next})",
                    lead=LConnected(n_next, lead.key),
                )
            yield from self._leader_close(state, lead.key)

    def _leader_close(
        self, state: GlobalState, k: SessionK
    ) -> Iterator[Transition]:
        """L processes ReqClose: session ends, K_a is Oops'd (published)."""
        if not self.close_present(state, self.A, k):
            return
        updates = self._extend(
            state, k,
            lead=LNotConnected(),
            snd=(),  # snd_A emptied when L receives ReqClose (§5.4)
            oopsed=state.oopsed | {k},
        )
        target = replace(state, **updates)
        yield Transition(
            actor="L",
            description=f"L closes A's session; Oops({k})",
            event=Oops(k),
            target=target,
        )

    # .. honest leader L, session for the compromised member C ........................

    def _leader_c_transitions(self, state: GlobalState) -> Iterator[Transition]:
        """Leader-side machine for C.  The *user* side of C is the spy.

        These transitions matter because they are the only way fields of
        the form {..}_{P_c} / {..}_{K_c} authored by L enter the trace —
        the diagram obligations must survive them.
        """
        cfg = self.config
        lead = state.lead_c

        if isinstance(lead, LNotConnected) and state.c_sessions < cfg.max_c_sessions:
            for n1 in self.find_inits(state, self.C, self.Pc):
                n2 = NonceF(state.next_id)
                k = SessionK(state.next_id + 1)
                content = self.auth_key_dist(self.C, self.Pc, n1, n2, k)
                yield self._send(
                    state, "L", f"L answers C's AuthInitReq({n1}) with {k}",
                    MsgLabel.AUTH_KEY_DIST, LEADER, COMPROMISED, content,
                    lead_c=LWaitingForKeyAck(n2, k, origin=n1),
                    next_id=state.next_id + 2,
                    c_sessions=state.c_sessions + 1,
                )

        elif isinstance(lead, LWaitingForKeyAck):
            for n3 in self.find_key_acks(state, self.C, lead.key, lead.nonce):
                yield self._silent(
                    state, "L", "L accepts C's AuthAckKey; C is a member",
                    lead_c=LConnected(n3, lead.key),
                )

        elif isinstance(lead, LConnected):
            if state.c_admin < cfg.max_c_admin:
                n_new = NonceF(state.next_id)
                x = Data(state.next_id + 1)
                content = self.admin_msg(self.C, lead.key, lead.nonce, n_new, x)
                yield self._send(
                    state, "L", f"L sends AdminMsg({x}) to C",
                    MsgLabel.ADMIN_MSG, LEADER, COMPROMISED, content,
                    lead_c=LWaitingForAck(n_new, lead.key),
                    next_id=state.next_id + 2,
                    c_admin=state.c_admin + 1,
                )
            yield from self._leader_c_close(state, lead.key)

        elif isinstance(lead, LWaitingForAck):
            for n_next in self.find_key_acks(state, self.C, lead.key, lead.nonce):
                yield self._silent(
                    state, "L", "L accepts C's Ack",
                    lead_c=LConnected(n_next, lead.key),
                )
            yield from self._leader_c_close(state, lead.key)

    def _leader_c_close(
        self, state: GlobalState, k: SessionK
    ) -> Iterator[Transition]:
        if not self.close_present(state, self.C, k):
            return
        updates = self._extend(
            state, k,
            lead_c=LNotConnected(),
            oopsed=state.oopsed | {k},
        )
        yield Transition(
            actor="L",
            description=f"L closes C's session; Oops({k})",
            event=Oops(k),
            target=replace(state, **updates),
        )

    # .. the spy ...................................................................

    def _spy_transitions(self, state: GlobalState) -> Iterator[Transition]:
        """Forgeries: messages whose content is in Gen(Spy, q).

        Replays add nothing (a replayed content is already in
        Parts(trace), and every guard and predicate reads Parts(trace)),
        so only *novel* fields are generated: protocol-shaped fields
        encrypted under keys the spy actually knows (leaked long-term
        keys, Oops'd session keys, C's keys), with nonce slots filled
        from spy-known nonces plus one fresh nonce, and one fresh data
        constant for admin shapes.  This is the standard "lazy intruder"
        restriction: arbitrary other junk can never fire a guard nor
        falsify a §5 predicate, because both only inspect
        protocol-shaped patterns.
        """
        if state.spy_count >= self.config.spy_budget:
            return

        known = state.spy.accessible
        known_keys = [f for f in known if isinstance(f, (SessionK, LongTerm))]
        if not known_keys:
            return
        known_nonces = [f for f in known if isinstance(f, NonceF)]
        fresh_nonce = NonceF(state.next_id)
        fresh_data = Data(state.next_id + 1)
        nonce_pool = known_nonces + [fresh_nonce]

        users = [self.A, self.C] if self.config.compromised_member else [self.A]
        candidates: set[Field] = set()
        for key in known_keys:
            for u in users:
                # Forged AuthInitReq / ReqClose shapes.
                candidates.add(Crypt(key, Concat((u, self.L, fresh_nonce))))
                candidates.add(Crypt(key, Concat((u, self.L))))
                for n in nonce_pool:
                    # Forged key-ack/Ack and AdminMsg/AuthKeyDist shapes.
                    candidates.add(
                        Crypt(key, Concat((u, self.L, n, fresh_nonce)))
                    )
                    candidates.add(
                        Crypt(key, Concat((self.L, u, n, fresh_nonce, fresh_data)))
                    )
                    for k2 in known_keys:
                        if isinstance(k2, SessionK):
                            candidates.add(
                                Crypt(key, Concat((self.L, u, n, fresh_nonce, k2)))
                            )

        for content in sorted(candidates, key=repr):
            if content in state.trace_parts:
                continue  # replay: no effect on Parts(trace)
            yield self._send(
                state, "Spy", f"Spy forges {content!r}",
                MsgLabel.SPY, "Spy", LEADER, content,
                spy_count=state.spy_count + 1,
                next_id=state.next_id + 2,
            )

    # -- InUse (paper §5.2) -------------------------------------------------------

    @staticmethod
    def in_use(state: GlobalState, k: SessionK) -> bool:
        """InUse(K, q): L's A-session holds K as a component."""
        lead = state.lead
        return (
            isinstance(lead, (LWaitingForKeyAck, LConnected, LWaitingForAck))
            and lead.key == k
        )

    def session_keys_in_use(self, state: GlobalState) -> list[SessionK]:
        keys = []
        for lead in (state.lead, state.lead_c):
            if isinstance(lead, (LWaitingForKeyAck, LConnected, LWaitingForAck)):
                keys.append(lead.key)
        return keys
