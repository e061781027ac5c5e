"""A group member that follows the directory.

:class:`FabricMember` wraps the *unchanged* §3.2
:class:`~repro.enclaves.itgm.member.MemberProtocol` with exactly the
routing the fabric adds and nothing more: it looks its group up in the
:class:`~repro.fabric.directory.GroupDirectory`, wraps every outbound
frame in a ``GROUP_WRAP`` envelope addressed at the hosting shard, and
understands ``GROUP_REDIRECT`` answers by re-consulting the directory
and rejoining.  The cryptographic protocol underneath is untouched —
the same argument as leader failover (:mod:`repro.enclaves.itgm.\
failover`): from the member's point of view, a migrated group is a
leader that forgot its session, and §3.2 already handles that by
re-authentication.

Rejoin discipline (mirrors the supervisor's, :mod:`repro.enclaves.itgm.\
supervisor`): before abandoning a connected session the member seals a
``ReqClose`` and *caches* it, resending it ahead of every join attempt
until a join succeeds — because a live leader that still holds our old
session would otherwise reject the fresh ``AuthInitReq``.  Half-open
joins resume by byte-identical retransmission, which is safe at both an
old leader (treated as a replay) and a new one (ordinary message 1).
"""

from __future__ import annotations

from repro.crypto.rng import RandomSource, SystemRandom
from repro.enclaves.common import Credentials, Event, Joined, Rejected
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.exceptions import CodecError
from repro.fabric.directory import GroupDirectory, RouteResult
from repro.fabric.shard import parse_redirect
from repro.telemetry.events import EventBus
from repro.wire.labels import Label
from repro.wire.message import Envelope, wrap_group


class FabricMember:
    """Sans-IO directory-following member for one group."""

    def __init__(
        self,
        credentials: Credentials,
        group_id: str,
        fabric: GroupDirectory,
        *,
        rng: RandomSource | None = None,
        rekey_grace: bool = True,
        telemetry: EventBus | None = None,
        protocol_factory=None,
    ) -> None:
        self.credentials = credentials
        self.user_id = credentials.user_id
        self.group_id = group_id
        self.fabric = fabric
        self._rng = rng if rng is not None else SystemRandom()
        self._rekey_grace = rekey_grace
        self._telemetry = telemetry
        #: Optional ``(credentials, group_id, rng, rekey_grace,
        #: telemetry) -> MemberProtocol`` override, so protocol variants
        #: (e.g. the certificate-verifying quorum member) ride the
        #: fabric's routing unchanged.
        self._protocol_factory = protocol_factory
        self._epoch = 0
        self.protocol = self._new_protocol()
        self.route: RouteResult | None = None
        self._pending_close: Envelope | None = None
        self.redirects = 0
        self.rejoins = 0

    def _new_protocol(self) -> MemberProtocol:
        # A fresh protocol per join epoch, on a forked rng stream, so a
        # rejoin never reuses nonces from the abandoned attempt (and
        # deterministic runs replay identically).
        rng = self._rng.fork(f"{self.user_id}-epoch-{self._epoch}")
        if self._protocol_factory is not None:
            return self._protocol_factory(
                self.credentials, self.group_id, rng,
                self._rekey_grace, self._telemetry,
            )
        return MemberProtocol(
            self.credentials,
            self.group_id,
            rng=rng,
            rekey_grace=self._rekey_grace,
            telemetry=self._telemetry,
        )

    # -- routing -------------------------------------------------------------

    def refresh_route(self) -> RouteResult:
        """Re-consult the directory (recording redirects for stats)."""
        known = self.route.version if self.route else None
        result = self.fabric.lookup(self.group_id, known)
        if result.redirected:
            self.redirects += 1
        self.route = result
        return result

    def _wrap(self, inner: Envelope) -> Envelope:
        if self.route is None:
            self.refresh_route()
        assert self.route is not None
        return wrap_group(self.group_id, inner, self.route.shard_id)

    # -- user-initiated actions ----------------------------------------------

    @property
    def state(self) -> MemberState:
        return self.protocol.state

    @property
    def connected(self) -> bool:
        return self.protocol.state is MemberState.CONNECTED

    def start_join(self) -> list[Envelope]:
        """Open (or reopen) the session via the current route.

        Returns the cached ``ReqClose`` for any abandoned session first,
        then the wrapped ``AuthInitReq`` — the order matters: the close
        must clear a live leader's stale session before the fresh join
        arrives.
        """
        self.refresh_route()
        out: list[Envelope] = []
        if self._pending_close is not None:
            out.append(self._wrap(self._pending_close))
        out.append(self._wrap(self.protocol.start_join()))
        return out

    def retransmit_last(self) -> list[Envelope]:
        """Wrapped byte-identical resend of a half-open join, plus the
        pending close (also idempotent), for timer-driven loss recovery."""
        frame = self.protocol.retransmit_last()
        if frame is None:
            return []
        # Re-consult the directory first: a half-open join must chase
        # the group if it moved (or its shard died) mid-handshake.
        self.refresh_route()
        out: list[Envelope] = []
        if self._pending_close is not None:
            out.append(self._wrap(self._pending_close))
        out.append(self._wrap(frame))
        return out

    def start_leave(self) -> Envelope:
        """Leave cleanly through the current route.

        The sealed ``ReqClose`` is also *cached*: leaving resets the
        local protocol immediately, so if this one frame is lost the
        leader still holds the session — and would then reject a future
        fresh join forever, with no way for the member to re-seal the
        close (the session key is gone).  Resending the cached copy
        ahead of the next join attempt breaks that wedge; a leader that
        already processed it (or never had the session) rejects the
        duplicate harmlessly.
        """
        inner = self.protocol.start_leave()
        self._pending_close = inner
        return self._wrap(inner)

    def seal_app(self, payload: bytes) -> Envelope:
        """Seal an application payload and wrap it for the shard."""
        return self._wrap(self.protocol.seal_app(payload))

    def reset_for_rejoin(self) -> None:
        """Abandon the current session for a fresh join attempt.

        Used when the member decides its leader-side session is gone or
        desynced (watchdog silence, a redirect while connected).  A
        connected session's ``ReqClose`` is sealed and cached *before*
        the protocol is replaced — see the module docstring.
        """
        if self.protocol.state is MemberState.CONNECTED:
            self._pending_close = self.protocol.start_leave()
        self._epoch += 1
        self.rejoins += 1
        self.protocol = self._new_protocol()

    # -- envelope handling ----------------------------------------------------

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        """Process one inbound envelope; outputs come back wrapped.

        ``GROUP_REDIRECT`` frames are consumed here: the member
        re-consults the directory and either resumes a half-open join at
        the new shard (byte-identical retransmission) or abandons the
        session and rejoins — a connected one only if the directory
        confirms the move.  Everything else goes to the §3.2 core.
        """
        if envelope.label is Label.GROUP_REDIRECT:
            return self._on_redirect(envelope)
        out, events = self.protocol.handle(envelope)
        if any(isinstance(e, Joined) for e in events):
            # The join landed: any stale session it superseded is gone.
            self._pending_close = None
        return [self._wrap(frame) for frame in out], events

    def _on_redirect(
        self, envelope: Envelope
    ) -> tuple[list[Envelope], list[Event]]:
        # GROUP_REDIRECT is plaintext anyone can send: one that does not
        # parse, or names another group, is dropped before it can move
        # the member.
        try:
            group_id, _ = parse_redirect(envelope)
        except CodecError:
            return [], [Rejected("malformed GROUP_REDIRECT", envelope.label)]
        if group_id != self.group_id:
            return [], [Rejected("GROUP_REDIRECT for another group",
                                 envelope.label)]
        if self.connected and not self.refresh_route().redirected:
            # A live session ends only on a move the directory confirms.
            return [], [Rejected("unconfirmed GROUP_REDIRECT",
                                 envelope.label)]
        # Re-consult the directory and resume or restart the join at
        # the group's new shard.
        self.refresh_route()
        if self.protocol.state is MemberState.WAITING_FOR_KEY:
            # Half-open join: replay message 1 at the new shard.  Safe
            # verbatim — a leader that saw it treats the copy as a
            # replay/resend; a fresh leader treats it as message 1.
            return self.retransmit_last(), []
        self.reset_for_rejoin()
        return self.start_join(), []
