"""A group member that follows the directory.

:class:`FabricMember` is the §3.2 rejoin discipline,
:class:`~repro.enclaves.itgm.member.Follower`, with exactly the routing
the fabric adds and nothing more: it looks its group up in the
:class:`~repro.fabric.directory.GroupDirectory`, wraps every outbound
frame in a ``GROUP_WRAP`` envelope addressed at the hosting shard, and
understands ``GROUP_REDIRECT`` answers by re-consulting the directory
and rejoining.  The cryptographic protocol underneath is untouched —
the same argument as leader failover (:mod:`repro.enclaves.itgm.\
failover`): from the member's point of view, a migrated group is a
leader that forgot its session, and §3.2 already handles that by
re-authentication.  The cached close and the byte-identical resume
are the follower's, so they hold at an old leader and a new one alike.
"""

from __future__ import annotations

from repro.crypto.rng import RandomSource
from repro.enclaves.common import Credentials, Event, Rejected
from repro.enclaves.itgm.member import Follower, MemberState
from repro.exceptions import CodecError
from repro.fabric.directory import GroupDirectory, RouteResult
from repro.fabric.shard import parse_redirect
from repro.telemetry.events import EventBus
from repro.wire.labels import Label
from repro.wire.message import Envelope, wrap_group


class FabricMember(Follower):
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
        super().__init__(
            credentials, group_id, rng=rng, rekey_grace=rekey_grace,
            telemetry=telemetry, protocol_factory=protocol_factory,
        )
        self.group_id = group_id
        self.fabric = fabric
        self.route: RouteResult | None = None
        self.redirects = 0

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

    def start_join(self) -> list[Envelope]:
        """Open (or reopen) the session via the current route."""
        self.refresh_route()
        return super().start_join()

    def retransmit_last(self) -> list[Envelope]:
        if self.state is MemberState.WAITING_FOR_KEY:
            # Re-consult the directory first: a half-open join must
            # chase the group if it moved (or its shard died)
            # mid-handshake.
            self.refresh_route()
        return super().retransmit_last()

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
        return super().handle(envelope)

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
            return self.retransmit_last(), []
        self.reset_for_rejoin()
        return self.start_join(), []
