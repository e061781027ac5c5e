"""The user (member) state machine — Figure 2 of the paper.

States::

    NotConnected --start_join/AuthInitReq--> WaitingForKey(N1)
    WaitingForKey(N1) --AuthKeyDist/AuthAckKey--> Connected(N3, K_a)
    Connected(N, K_a) --AdminMsg/Ack--> Connected(N', K_a)
    Connected(N, K_a) --start_leave/ReqClose--> NotConnected

The X of an AdminMsg may be a batch of payloads.  The frame is what the
nonce check admits or refuses and what the cached Ack answers; the
items are what ``rcv_A`` records, one entry each, in order.

The class is **sans-IO**: :meth:`handle` consumes one envelope and
returns ``(outgoing envelopes, events)``.  Anything that fails
authentication, carries a stale nonce, or arrives in the wrong state is
*discarded* with a :class:`~repro.enclaves.common.Rejected` event — an
honest endpoint never lets attacker input crash it or move its state.

Concrete realization notes (vs. the symbolic protocol):

* ``{X}_K`` is an encrypt-then-MAC sealed box (:mod:`repro.crypto.aead`)
  with the envelope header (label, sender, recipient) as associated
  data, so a ciphertext cannot be replayed under a different header.
* Nonce comparisons use constant-time equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.keys import GroupKey, SessionKey
from repro.crypto.rng import NONCE_LEN, RandomSource, SystemRandom
from repro.enclaves.common import (
    AdminDelivered,
    AppMessage,
    Credentials,
    Event,
    GroupKeyChanged,
    Joined,
    MemberJoined,
    MemberLeft,
    MembershipView,
    Rejected,
)
from repro.enclaves.itgm.admin import (
    AdminPayload,
    CertifiedPayload,
    MemberJoinedPayload,
    MemberLeftPayload,
    MembershipPayload,
    NewGroupKeyPayload,
    decode_payload,
    items_of,
)
from repro.exceptions import CodecError, IntegrityError, StateError
from repro.telemetry.events import (
    AdminAccepted,
    EventBus,
    JoinCompleted,
    JoinStarted,
    RekeyInstalled,
    frame_id,
    rejection_event,
    resolve_bus,
)
from repro.util.bytesops import constant_time_eq
from repro.wire.codec import (
    decode_fields, encode_after, encode_fields, encode_str, field_head,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope


@lru_cache(maxsize=1024)
def seal_ad(label: Label, sender: str, recipient: str) -> bytes:
    """Associated data binding a sealed box to its envelope header.

    A session seals and opens under the same few headers for as long as
    it lives, so the encoding is remembered, not redone per frame."""
    return encode_fields(
        [bytes([label.value]), encode_str(sender), encode_str(recipient)]
    )


def encode_session_fields(first: str, second: str, *rest: bytes) -> bytes:
    """``encode_fields([first, second, *rest])``: a §3.2 plaintext that
    opens with two ids, encoded once per session."""
    return encode_after(field_head(2 + len(rest), first, second), *rest)


def app_ad(sender: str) -> bytes:
    """Associated data for group-key-sealed application frames.

    Application frames are relayed by the leader to every member, so the
    envelope *recipient* varies; only the label and origin are bound.
    """
    return encode_fields([bytes([Label.APP_DATA.value]), encode_str(sender)])


class MemberState(enum.Enum):
    """The three user states of Figure 2."""

    NOT_CONNECTED = "NotConnected"
    WAITING_FOR_KEY = "WaitingForKey"
    CONNECTED = "Connected"


@dataclass
class MemberStats:
    """Counters exposed for tests, attacks, and benchmarks."""

    rejected: int = 0
    admin_accepted: int = 0
    app_accepted: int = 0
    joins_completed: int = 0


class MemberProtocol:
    """Sans-IO protocol core for one group member."""

    def __init__(
        self,
        credentials: Credentials,
        leader_id: str,
        rng: RandomSource | None = None,
        rekey_grace: bool = True,
        telemetry: EventBus | None = None,
    ) -> None:
        """``rekey_grace``: during a group-key rotation, frames sealed
        under the immediately-previous key may still be in flight;
        with grace enabled the member accepts them (one epoch back,
        never further).  Disable for strict current-epoch-only
        semantics — the `bench_rekey` ablation measures the loss-rate
        difference.

        ``telemetry``: event bus for protocol observability; defaults
        to the process-wide bus, which is a no-op until subscribed."""
        self.credentials = credentials
        self._telemetry = resolve_bus(telemetry)
        #: frame id of the envelope currently being handled (causal
        #: parent for events emitted while dispatching it).
        self._cause = ""
        #: optional PhaseProfiler (observability); None when profiling
        #: is off so the hot-path guard is one attribute load.
        self._profiler = None
        self.user_id = credentials.user_id
        self.leader_id = leader_id
        self._rng = rng if rng is not None else SystemRandom()
        self._long_term_cipher = AuthenticatedCipher(
            credentials.long_term_key, self._rng
        )

        self.state = MemberState.NOT_CONNECTED
        self._nonce: bytes | None = None          # N_a: last nonce we generated
        self._session_key: SessionKey | None = None
        self._session_cipher: AuthenticatedCipher | None = None
        self._group_key: GroupKey | None = None
        self._group_cipher: AuthenticatedCipher | None = None
        self._group_epoch: int = -1
        self._rekey_grace = rekey_grace
        self._previous_group_cipher: AuthenticatedCipher | None = None

        # Loss recovery: byte-identical retransmission state.  The last
        # outbound frame (for our own retransmission timers) and the
        # bodies of the last peer frames we answered (so a duplicate of
        # the peer's frame triggers a verbatim resend of our answer
        # instead of a rejection — see retransmit_last()).
        self._last_outbound: Envelope | None = None
        self._answered_key_dist: bytes | None = None
        self._key_dist_reply: Envelope | None = None
        self._answered_admin: bytes | None = None
        self._admin_reply: Envelope | None = None

        #: Admin payloads accepted this session, in acceptance order.
        #: This is exactly the paper's ``rcv_A`` list (§5.4).
        self.admin_log: list[AdminPayload] = []
        #: Current view of group membership (maintained from payloads).
        self.membership: set[str] = set()
        self.stats = MemberStats()

    # -- actions initiated by the user ------------------------------------

    def start_join(self) -> Envelope:
        """Begin the authentication protocol (message 1, AuthInitReq).

        Sends ``AuthInitReq, A, L, {A, L, N1}_{P_a}``.
        """
        if self.state is not MemberState.NOT_CONNECTED:
            raise StateError(f"cannot join from {self.state}")
        n1 = self._rng.nonce().value
        self._nonce = n1
        body = self._long_term_cipher.seal(
            encode_session_fields(self.user_id, self.leader_id, n1),
            seal_ad(Label.AUTH_INIT_REQ, self.user_id, self.leader_id),
        ).to_bytes()
        self.state = MemberState.WAITING_FOR_KEY
        envelope = Envelope(
            Label.AUTH_INIT_REQ, self.user_id, self.leader_id, body
        )
        self._last_outbound = envelope
        if self._telemetry:
            self._telemetry.emit(JoinStarted(
                self.user_id, self.leader_id, frame_id(envelope)
            ))
        return envelope

    def retransmit_last(self) -> Envelope | None:
        """Resend our last outbound frame, verbatim, for loss recovery.

        Meaningful while waiting for the key (AuthInitReq may have been
        lost); byte-identical resends are always safe — a peer that
        already processed the original treats the copy as a replay.
        """
        if self.state is MemberState.WAITING_FOR_KEY:
            return self._last_outbound
        return None

    def start_leave(self) -> Envelope:
        """Leave the session: ``ReqClose, A, L, {A, L}_{K_a}``."""
        if self.state is not MemberState.CONNECTED:
            raise StateError(f"cannot leave from {self.state}")
        assert self._session_cipher is not None
        body = self._session_cipher.seal(
            encode_session_fields(self.user_id, self.leader_id),
            seal_ad(Label.REQ_CLOSE, self.user_id, self.leader_id),
        ).to_bytes()
        self._reset_session()
        return Envelope(Label.REQ_CLOSE, self.user_id, self.leader_id, body)

    def seal_app(self, payload: bytes) -> Envelope:
        """Seal an application payload under the current group key.

        The frame goes to the leader for relay to the rest of the group
        (Figure 1: all group communication is mediated by the leader).
        """
        if self.state is not MemberState.CONNECTED:
            raise StateError("must be connected to send application data")
        if self._group_cipher is None:
            raise StateError("no group key distributed yet")
        prof = self._profiler
        tok = prof.begin("seal") if prof else None
        body = self._group_cipher.seal(
            encode_fields([encode_str(self.user_id), payload]),
            app_ad(self.user_id),
        ).to_bytes()
        if prof:
            prof.end(tok)
        return Envelope(Label.APP_DATA, self.user_id, self.leader_id, body)

    # -- envelope handling --------------------------------------------------

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        """Process one incoming envelope; never raises on attacker input."""
        if self._telemetry:
            self._cause = frame_id(envelope)
        out, events = self._dispatch(envelope)
        if self._telemetry:
            self._publish(envelope, events)
        return out, events

    def _dispatch(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if envelope.recipient != self.user_id:
            return [], [self._reject("not addressed to us", envelope.label)]
        if envelope.label is Label.AUTH_KEY_DIST:
            return self._on_key_dist(envelope)
        if envelope.label is Label.ADMIN_MSG:
            return self._on_admin(envelope)
        if envelope.label is Label.APP_DATA:
            return self._on_app_data(envelope)
        return [], [self._reject("unexpected label", envelope.label)]

    def _publish(self, envelope: Envelope, events: list[Event]) -> None:
        """Map protocol events for one handled frame onto the bus."""
        bus = self._telemetry
        fid = frame_id(envelope)
        for event in events:
            if isinstance(event, Rejected):
                bus.emit(rejection_event(
                    self.user_id, event.reason, event.label, envelope
                ))
            elif isinstance(event, Joined):
                bus.emit(JoinCompleted(self.user_id, self.leader_id, fid))
            elif isinstance(event, GroupKeyChanged):
                bus.emit(RekeyInstalled(
                    self.user_id, self.leader_id,
                    event.epoch, event.fingerprint, fid,
                ))
            elif isinstance(event, AdminDelivered):
                bus.emit(AdminAccepted(
                    self.user_id, self.leader_id,
                    type(event.payload).__name__, fid,
                ))

    # -- message 2: AuthKeyDist ---------------------------------------------

    def _on_key_dist(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if self.state is not MemberState.WAITING_FOR_KEY:
            # Loss recovery: the leader retransmits AuthKeyDist when our
            # AuthAckKey was lost.  A byte-identical copy of the frame
            # we already answered gets the cached answer back, verbatim.
            if (
                self.state is MemberState.CONNECTED
                and self._answered_key_dist is not None
                and envelope.body == self._answered_key_dist
                and self._key_dist_reply is not None
            ):
                return [self._key_dist_reply], []
            return [], [self._reject("AuthKeyDist outside WaitingForKey",
                                     envelope.label)]
        try:
            box = SealedBox.from_bytes(envelope.body)
            plain = self._long_term_cipher.open(
                box, seal_ad(Label.AUTH_KEY_DIST, self.leader_id, self.user_id)
            )
            fields = decode_fields(plain, expect=5)
        except (CodecError, IntegrityError):
            return [], [self._reject("AuthKeyDist failed authentication",
                                     envelope.label)]
        leader_b, user_b, n1, n2, key_material = fields
        if leader_b != encode_str(self.leader_id) or user_b != encode_str(self.user_id):
            return [], [self._reject("AuthKeyDist identity mismatch",
                                     envelope.label)]
        assert self._nonce is not None
        if len(n1) != NONCE_LEN or not constant_time_eq(n1, self._nonce):
            return [], [self._reject("AuthKeyDist stale nonce N1",
                                     envelope.label)]
        if len(n2) != NONCE_LEN or len(key_material) != 32:
            return [], [self._reject("AuthKeyDist malformed key/nonce",
                                     envelope.label)]

        # Accept the session key; answer message 3: {N2, N3}_{K_a}.
        self._session_key = SessionKey(key_material)
        self._session_cipher = AuthenticatedCipher(self._session_key, self._rng)
        n3 = self._rng.nonce().value
        self._nonce = n3
        body = self._session_cipher.seal(
            encode_fields([n2, n3]),
            seal_ad(Label.AUTH_ACK_KEY, self.user_id, self.leader_id),
        ).to_bytes()
        self.state = MemberState.CONNECTED
        self.stats.joins_completed += 1
        self.membership = {self.user_id}
        reply = Envelope(Label.AUTH_ACK_KEY, self.user_id, self.leader_id, body)
        self._answered_key_dist = envelope.body
        self._key_dist_reply = reply
        self._last_outbound = reply
        return [reply], [Joined(self.user_id)]

    # -- group-management exchange -------------------------------------------

    def _on_admin(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if self.state is not MemberState.CONNECTED:
            return [], [self._reject("AdminMsg outside Connected", envelope.label)]
        assert self._session_cipher is not None and self._nonce is not None
        try:
            box = SealedBox.from_bytes(envelope.body)
            plain = self._session_cipher.open(
                box, seal_ad(Label.ADMIN_MSG, self.leader_id, self.user_id)
            )
            fields = decode_fields(plain, expect=5)
        except (CodecError, IntegrityError):
            return [], [self._reject("AdminMsg failed authentication",
                                     envelope.label)]
        leader_b, user_b, n_prev, n_l, x = fields
        if leader_b != encode_str(self.leader_id) or user_b != encode_str(self.user_id):
            return [], [self._reject("AdminMsg identity mismatch", envelope.label)]
        if len(n_prev) != NONCE_LEN or not constant_time_eq(n_prev, self._nonce):
            # Loss recovery before the replay shield: a byte-identical
            # copy of the AdminMsg we *just* answered means our Ack was
            # lost — resend it verbatim, no state change, no event.
            if (
                self._answered_admin is not None
                and envelope.body == self._answered_admin
                and self._admin_reply is not None
            ):
                return [self._admin_reply], []
            # The replay shield: a stale N_{2i+1} means this AdminMsg is
            # not fresh (paper §3.2).
            return [], [self._reject("AdminMsg replay (stale nonce)",
                                     envelope.label)]
        if len(n_l) != NONCE_LEN:
            return [], [self._reject("AdminMsg malformed leader nonce",
                                     envelope.label)]
        try:
            payload = decode_payload(x)
        except CodecError:
            return [], [self._reject("AdminMsg undecodable payload",
                                     envelope.label)]

        # Accept: record, apply, acknowledge with a fresh N_{2i+3}.
        # A batch is one X on the wire but rcv_A stays flat: each item
        # is logged, applied and reported in order, as if it had come in
        # its own AdminMsg.
        events: list[Event] = []
        for item in items_of(payload):
            self.admin_log.append(item)
            self.stats.admin_accepted += 1
            events.append(AdminDelivered(item))
            events.extend(self._apply_admin(item))

        n_next = self._rng.nonce().value
        self._nonce = n_next
        body = self._session_cipher.seal(
            encode_session_fields(self.user_id, self.leader_id, n_l, n_next),
            seal_ad(Label.ACK, self.user_id, self.leader_id),
        ).to_bytes()
        ack = Envelope(Label.ACK, self.user_id, self.leader_id, body)
        self._answered_admin = envelope.body
        self._admin_reply = ack
        self._last_outbound = ack
        return [ack], events

    def _apply_admin(self, payload: AdminPayload) -> list[Event]:
        """Update local group view from an accepted admin payload."""
        if isinstance(payload, CertifiedPayload):
            return self._apply_certified(payload)
        if isinstance(payload, NewGroupKeyPayload):
            self._previous_group_cipher = (
                self._group_cipher
                if self._rekey_grace and not payload.eviction
                else None
            )
            self._group_key = payload.key
            self._group_cipher = AuthenticatedCipher(self._group_key, self._rng)
            self._group_epoch = payload.epoch
            return [GroupKeyChanged(payload.key.fingerprint(), payload.epoch)]
        if isinstance(payload, MemberJoinedPayload):
            self.membership.add(payload.user_id)
            return [MemberJoined(payload.user_id)]
        if isinstance(payload, MemberLeftPayload):
            self.membership.discard(payload.user_id)
            return [MemberLeft(payload.user_id)]
        if isinstance(payload, MembershipPayload):
            self.membership = set(payload.members)
            return [MembershipView(payload.members)]
        return []

    def _apply_certified(self, payload: CertifiedPayload) -> list[Event]:
        """Apply a certificate-wrapped payload.

        The base member trusts its single leader completely (the
        paper's model), so the certificate is *not* checked here — the
        inner payload is applied as if it arrived bare.  This is
        exactly the trust gap the Byzantine quorum closes:
        :class:`~repro.quorum.member.QuorumMemberProtocol` overrides
        this to verify the quorum certificate, refuse uncertified
        mutations, and detect equivocation.
        """
        return self._apply_admin(payload.inner)

    # -- application data ------------------------------------------------------

    def _on_app_data(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if self.state is not MemberState.CONNECTED or self._group_cipher is None:
            return [], [self._reject("APP_DATA without group key", envelope.label)]
        prof = self._profiler
        tok = prof.begin("open") if prof else None
        try:
            box = SealedBox.from_bytes(envelope.body)
            try:
                plain = self._group_cipher.open(box, app_ad(envelope.sender))
            except IntegrityError:
                # Rekey grace: one epoch back, never further.
                if self._previous_group_cipher is None:
                    raise
                plain = self._previous_group_cipher.open(
                    box, app_ad(envelope.sender)
                )
            sender_b, payload = decode_fields(plain, expect=2)
        except (CodecError, IntegrityError):
            if prof:
                prof.end(tok)
            return [], [self._reject("APP_DATA failed group-key authentication",
                                     envelope.label)]
        if prof:
            prof.end(tok)
        sender = sender_b.decode("utf-8", errors="replace")
        if sender == self.user_id:
            return [], []  # our own frame echoed back; ignore
        self.stats.app_accepted += 1
        return [], [AppMessage(sender, payload)]

    # -- internals ----------------------------------------------------------

    def bind_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.observability.profile.PhaseProfiler`
        to the seal/open hot paths (None detaches)."""
        self._profiler = profiler

    def _reset_session(self) -> None:
        self.state = MemberState.NOT_CONNECTED
        self._nonce = None
        self._session_key = None
        self._session_cipher = None
        self._group_key = None
        self._group_cipher = None
        self._group_epoch = -1
        self._previous_group_cipher = None
        self.admin_log = []
        self.membership = set()
        self._last_outbound = None
        self._answered_key_dist = None
        self._key_dist_reply = None
        self._answered_admin = None
        self._admin_reply = None

    def _reject(self, reason: str, label) -> Rejected:
        self.stats.rejected += 1
        return Rejected(reason, label)

    @property
    def group_epoch(self) -> int:
        """Epoch of the currently held group key (-1 if none)."""
        return self._group_epoch

    @property
    def has_group_key(self) -> bool:
        return self._group_cipher is not None

    @property
    def group_key(self) -> GroupKey | None:
        """The currently installed group key (None before first rekey).

        The data plane (:mod:`repro.dataplane`) seeds its per-sender
        chains from this key, so every epoch bump re-seeds every chain.
        """
        return self._group_key

    @property
    def group_key_fingerprint(self) -> str | None:
        """Fingerprint of the currently held group key (None if none)."""
        if self._group_key is None:
            return None
        return self._group_key.fingerprint()


class Follower:
    """Sans-IO rejoin discipline: one user following one leader across
    sessions.

    Figure 3 lets a leader accept ``AuthInitReq`` only from
    NotConnected, so a member that outlives its session has two duties:

    * **Close the stale session with a cached ``ReqClose``.**  Leaving
      (or abandoning a session the member believes dead) resets the
      protocol at once, so the member can never seal that close again.
      The sealed frame is cached and resent ahead of every join frame
      and every retransmission until a join lands; a leader that
      already processed it, or never had the session, rejects the copy
      harmlessly.
    * **Resume a half-open join, never abandon it.**  A leader in
      WaitingForKeyAck answers only that handshake, so the
      ``AuthInitReq`` is retransmitted byte-identically until it is
      answered — a replay to a leader that saw it, message 1 to one
      that did not.

    An abandoned session is replaced by a fresh protocol on a forked
    stream, so a rejoin never reuses a nonce.  ``protocol_factory``
    (``(credentials, leader_id, rng, rekey_grace, telemetry) ->
    MemberProtocol``, called positionally) lets protocol variants — the
    quorum member, a data-plane adapter — follow unchanged.  Subclasses
    put routing on the wire through :meth:`_wrap`.
    """

    def __init__(
        self,
        credentials: Credentials,
        leader_id: str,
        *,
        rng: RandomSource | None = None,
        rekey_grace: bool = True,
        telemetry: EventBus | None = None,
        protocol_factory=None,
    ) -> None:
        self.credentials = credentials
        self.user_id = credentials.user_id
        self.leader_id = leader_id
        self._rng = rng if rng is not None else SystemRandom()
        self._rekey_grace = rekey_grace
        self._telemetry = telemetry
        self._protocol_factory = protocol_factory
        self._epoch = 0
        self.protocol = self._new_protocol()
        self._pending_close: Envelope | None = None
        self.rejoins = 0

    def _new_protocol(self) -> MemberProtocol:
        rng = self._rng.fork(f"{self.user_id}-epoch-{self._epoch}")
        if self._protocol_factory is not None:
            return self._protocol_factory(
                self.credentials, self.leader_id, rng,
                self._rekey_grace, self._telemetry,
            )
        return MemberProtocol(
            self.credentials, self.leader_id, rng=rng,
            rekey_grace=self._rekey_grace, telemetry=self._telemetry,
        )

    def _wrap(self, inner: Envelope) -> Envelope:
        """The frame as it goes on the wire (unchanged here)."""
        return inner

    def _with_close(self, frame: Envelope) -> list[Envelope]:
        # The close goes first: it must clear a live leader's stale
        # session before the handshake frame arrives.
        frames = [frame] if self._pending_close is None else [
            self._pending_close, frame,
        ]
        return [self._wrap(f) for f in frames]

    @property
    def state(self) -> MemberState:
        return self.protocol.state

    @property
    def connected(self) -> bool:
        return self.protocol.state is MemberState.CONNECTED

    @property
    def keyed(self) -> bool:
        """Connected and holding the group key: the join has landed."""
        return self.connected and self.protocol.has_group_key

    def start_join(self) -> list[Envelope]:
        """The pending close, if any, then a fresh ``AuthInitReq``."""
        return self._with_close(self.protocol.start_join())

    def retransmit_last(self) -> list[Envelope]:
        """A half-open join's frames again, byte-identical, with the
        pending close ahead of them; nothing outside WaitingForKey."""
        frame = self.protocol.retransmit_last()
        return [] if frame is None else self._with_close(frame)

    def start_leave(self) -> Envelope:
        """Close the session, caching the sealed ``ReqClose``: if this
        one frame is lost the leader keeps the session, and only the
        cached copy can still end it."""
        self._pending_close = self.protocol.start_leave()
        return self._wrap(self._pending_close)

    def seal_app(self, payload: bytes) -> Envelope:
        return self._wrap(self.protocol.seal_app(payload))

    def reset_for_rejoin(self) -> None:
        """Abandon the session (believed gone or desynced) for a fresh
        protocol; a connected one's close is sealed and cached first."""
        if self.protocol.state is MemberState.CONNECTED:
            self._pending_close = self.protocol.start_leave()
        self._epoch += 1
        self.rejoins += 1
        self.protocol = self._new_protocol()

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        out, events = self.protocol.handle(envelope)
        if any(isinstance(e, Joined) for e in events):
            # The join landed: any stale session it superseded is gone.
            self._pending_close = None
        return [self._wrap(frame) for frame in out], events
