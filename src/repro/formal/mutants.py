"""Deliberately broken model variants — negative controls.

A verifier that never fails is indistinguishable from one that checks
nothing.  Each mutant here re-introduces one protocol flaw at the
symbolic level; the explorer must *find* the corresponding violation.
The test suite runs every mutant and asserts the right property fails —
this is the reproduction's analogue of the paper's remark that PVS "was
essential to fix flaws in our hand proofs".

Mutants:

* :class:`NoNonceChainModel` — AdminMsg acceptance ignores the chained
  nonce (the legacy ``new_key`` flaw): duplicates/replays are accepted,
  so the §5.4 prefix property must fail.
* :class:`LeakLongTermKeyModel` — the leader embeds P_a in AuthKeyDist:
  regularity and both secrecy properties must fail.
* :class:`ReusedSessionKeyModel` — the leader hands out the same session
  key every session: after the first session closes (Oops), the spy
  knows the "fresh" key of the next session, so session-key secrecy
  must fail.
* :class:`UnconstrainedKeyDistModel` — the user accepts AuthKeyDist
  without checking its own nonce N1: agreement/diagram obligations
  break under a stale key-dist.
"""

from __future__ import annotations

from typing import Iterator

from repro.formal.events import MsgLabel
from repro.formal.fields import Concat, Crypt, NonceF, SessionK
from repro.formal.model import (
    LEADER,
    USER,
    EnclavesModel,
    GlobalState,
    LNotConnected,
    LWaitingForKeyAck,
    Transition,
    UConnected,
    UWaitingForKey,
)


class NoNonceChainModel(EnclavesModel):
    """AdminMsg acceptance without the replay-protecting nonce check."""

    def _user_transitions(self, state: GlobalState) -> Iterator[Transition]:
        usr = state.usr
        if isinstance(usr, UConnected):
            # FLAW: accept any AdminMsg under our key, for ANY previous
            # nonce — the equivalent of the legacy new_key (no
            # freshness).  Re-accepting the same field duplicates it.
            for f in state.trace_parts:
                if (
                    isinstance(f, Crypt)
                    and f.key == usr.key
                    and isinstance(f.body, Concat)
                    and len(f.body.parts) == 5
                    and f.body.parts[0] == self.L
                    and f.body.parts[1] == self.A
                ):
                    x = f.body.parts[4]
                    n_next = NonceF(state.next_id)
                    content = self.key_ack(
                        self.A, usr.key, f.body.parts[3], n_next
                    )
                    yield self._send(
                        state, "A", f"A blindly accepts AdminMsg({x})",
                        MsgLabel.ACK, USER, LEADER, content,
                        usr=UConnected(n_next, usr.key),
                        next_id=state.next_id + 1,
                        rcv=state.rcv + (x,),
                    )
            # Keep join/close behaviour from the honest model.
            for t in super()._user_transitions(state):
                if "AdminMsg" not in t.description:
                    yield t
        else:
            yield from super()._user_transitions(state)


class LeakLongTermKeyModel(EnclavesModel):
    """The leader ships P_a inside AuthKeyDist (regularity violation)."""

    def auth_key_dist(self, user, key, n1, n2, k):
        # FLAW: P_a rides along in the encrypted body... and also in the
        # clear via a concatenation, which is what regularity forbids.
        return Concat((Crypt(key, Concat((self.L, user, n1, n2, k))), self.Pa))


class ReusedSessionKeyModel(EnclavesModel):
    """The leader reuses one session key forever."""

    REUSED = SessionK(10_000)

    def _leader_transitions(self, state: GlobalState) -> Iterator[Transition]:
        lead = state.lead
        if isinstance(lead, LNotConnected):
            for n1 in self.find_inits(state, self.A, self.Pa):
                n2 = NonceF(state.next_id)
                k = self.REUSED  # FLAW: not fresh
                content = self.auth_key_dist(self.A, self.Pa, n1, n2, k)
                yield self._send(
                    state, "L", f"L answers AuthInitReq({n1}) with REUSED key",
                    MsgLabel.AUTH_KEY_DIST, LEADER, USER, content,
                    lead=LWaitingForKeyAck(n2, k, origin=n1),
                    next_id=state.next_id + 1,
                )
        else:
            yield from super()._leader_transitions(state)


class UnconstrainedKeyDistModel(EnclavesModel):
    """The user accepts any AuthKeyDist, ignoring its own nonce N1."""

    def _user_transitions(self, state: GlobalState) -> Iterator[Transition]:
        usr = state.usr
        if isinstance(usr, UWaitingForKey):
            # FLAW: match any {L, A, N, N', K}_{P_a}, not just ours.
            for f in state.trace_parts:
                if (
                    isinstance(f, Crypt)
                    and f.key == self.Pa
                    and isinstance(f.body, Concat)
                    and len(f.body.parts) == 5
                    and f.body.parts[0] == self.L
                    and f.body.parts[1] == self.A
                    and isinstance(f.body.parts[3], NonceF)
                    and isinstance(f.body.parts[4], SessionK)
                ):
                    n2, k = f.body.parts[3], f.body.parts[4]
                    n3 = NonceF(state.next_id)
                    content = self.key_ack(self.A, k, n2, n3)
                    yield self._send(
                        state, "A", "A accepts ANY AuthKeyDist",
                        MsgLabel.AUTH_ACK_KEY, USER, LEADER, content,
                        usr=UConnected(n3, k),
                        next_id=state.next_id + 1,
                    )
        else:
            yield from super()._user_transitions(state)
