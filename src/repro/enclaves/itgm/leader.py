"""The group leader: membership, rekeying, admin distribution, relay.

This composes one :class:`~repro.enclaves.itgm.leader_session.LeaderSession`
per registered user (the paper models the leader exactly this way) and
adds the group-level behaviour of Figures 1-3:

* **Membership**: a user is a member from the moment their AuthAckKey is
  accepted until their ReqClose is processed.
* **Group key**: "the group leader generates a first group key K_g when
  the first member is accepted"; rotation follows a
  :class:`~repro.enclaves.common.RekeyPolicy`.
* **Admin distribution**: every group-management payload travels in the
  nonce-chained AdminMsg/Ack channel.  The channel is stop-and-wait per
  member, so the leader keeps a FIFO outbox per member; when the
  previous AdminMsg is acknowledged, everything queued since leaves as
  the X of the next one (one payload bare, several as a batch).  The
  frame is the retransmit and replay unit; ``snd_A`` is per payload.
* **Relay** (Figure 1): application frames sealed under K_g are verified
  and relayed to every other current member.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.keys import KEY_LEN, GroupKey
from repro.crypto.rng import RandomSource, SystemRandom
from repro.dataplane.reliable import bundle_control, decode_control_routing
from repro.enclaves.common import (
    AccessPolicy,
    Denied,
    Event,
    Joined,
    Left,
    Rejected,
    RekeyPolicy,
    UserDirectory,
    allow_all,
)
from repro.enclaves.itgm.admin import (
    AdminPayload,
    MemberJoinedPayload,
    MemberLeftPayload,
    MembershipPayload,
    NewGroupKeyPayload,
    as_one_payload,
)
from repro.enclaves.itgm.leader_session import LeaderSession, LeaderState
from repro.enclaves.itgm.member import app_ad
from repro.exceptions import CodecError, IntegrityError, StateError
from repro.telemetry.events import (
    AuthAccepted,
    EventBus,
    JoinDenied,
    MemberDeparted,
    MemberExpelled,
    RekeyIssued,
    frame_id,
    rejection_event,
    resolve_bus,
)
from repro.util.clock import Clock, RealClock
from repro.wire.codec import decode_fields, encode_fields, encode_str
from repro.wire.labels import DATA_CONTROL_LABELS, Label
from repro.wire.message import Envelope


@dataclass
class LeaderStats:
    """Aggregate counters for benchmarks and tests."""

    joins: int = 0
    leaves: int = 0
    rekeys: int = 0
    relayed_frames: int = 0
    rejected: int = 0
    denied: int = 0
    grace_resealed: int = 0


@dataclass
class LeaderConfig:
    """Tunable leader behaviour."""

    rekey_policy: RekeyPolicy = RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE
    rekey_interval: float = 60.0  # seconds, for RekeyPolicy.PERIODIC
    access_policy: AccessPolicy = field(default=allow_all)
    #: Accept (and re-seal under the current key) application frames
    #: sealed with the immediately-previous group key — frames that were
    #: in flight when a rotation happened.  One epoch back, never more;
    #: the sender was a legitimate member at sealing time.  Disable for
    #: strict current-epoch semantics (the bench_rekey ablation
    #: quantifies the message-loss difference).
    rekey_grace: bool = True


def _is_relay(envelope: Envelope) -> bool:
    """Frames that go to ``_relay_app``/``_relay_data``: those read the
    membership and the group key and write only stats, so handling one
    leaves nothing to journal."""
    return envelope.label is Label.APP_DATA or envelope.label.is_data


class GroupLeader:
    """Sans-IO group leader for the intrusion-tolerant protocol."""

    def __init__(
        self,
        leader_id: str,
        directory: UserDirectory,
        config: LeaderConfig | None = None,
        rng: RandomSource | None = None,
        clock: Clock | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        self.leader_id = leader_id
        self.directory = directory
        self.config = config if config is not None else LeaderConfig()
        self._rng = rng if rng is not None else SystemRandom()
        self._clock = clock if clock is not None else RealClock()
        self._telemetry = resolve_bus(telemetry)

        self._sessions: dict[str, LeaderSession] = {}
        self._outboxes: dict[str, deque[AdminPayload]] = {}
        self._group_key: GroupKey | None = None
        self._group_cipher: AuthenticatedCipher | None = None
        self._previous_group_cipher: AuthenticatedCipher | None = None
        self._last_rotation_was_eviction = False
        self._group_epoch = -1
        self._last_rekey = self._clock.now()
        self._journal = None
        #: frame id of the envelope currently being handled — the
        #: causal parent for events (and journal appends) its dispatch
        #: produces.  Empty for leader-initiated mutations.
        self._cause = ""
        #: optional PhaseProfiler (observability); None when off.
        self._profiler = None
        self.stats = LeaderStats()

    # -- durability hook ----------------------------------------------------

    def bind_journal(self, journal) -> None:
        """Attach a write-ahead journal (``repro.storage.journal``).

        Every mutating entry point calls back into the journal *before*
        returning its outgoing frames — write-ahead discipline: if the
        journal (or its disk) fails, the exception propagates and the
        mutation's outputs are withheld, so no member can ever observe
        state the journal lost.  The unit is the flush: :meth:`handle`
        and the leader-initiated entry points journal their own
        mutation, :meth:`handle_many` journals its whole batch as one
        record.  Pass ``None`` to detach.
        """
        self._journal = journal

    def bind_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.observability.profile.PhaseProfiler`
        to the open/multicast hot paths (None detaches)."""
        self._profiler = profiler

    def _checkpoint(self) -> None:
        if self._journal is not None:
            self._journal.record_mutation(self)

    # -- session plumbing ---------------------------------------------------

    def _session(self, user_id: str) -> LeaderSession | None:
        """Get or lazily create the per-user state machine."""
        session = self._sessions.get(user_id)
        if session is None:
            if not self.directory.knows(user_id):
                return None
            session = LeaderSession(
                self.leader_id, user_id, self.directory.lookup(user_id),
                self._rng.fork(f"session-{user_id}"),
            )
            self._sessions[user_id] = session
            self._outboxes[user_id] = deque()
        return session

    @property
    def members(self) -> list[str]:
        """Current group membership, sorted."""
        return sorted(
            uid for uid, s in self._sessions.items() if s.is_member
        )

    @property
    def group_epoch(self) -> int:
        return self._group_epoch

    @property
    def group_key_fingerprint(self) -> str | None:
        """Fingerprint of the current group key (None before the first)."""
        if self._group_key is None:
            return None
        return self._group_key.fingerprint()

    def session_state(self, user_id: str):
        """The per-user FSM state (for tests/monitoring)."""
        session = self._sessions.get(user_id)
        return session.state if session else None

    def outbox_depth(self, user_id: str) -> int:
        """Queued-but-unsent admin payloads for one member."""
        return len(self._outboxes.get(user_id, ()))

    # -- incoming envelopes ----------------------------------------------------

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        """Process one envelope (a one-frame flush); returns
        (outgoing, events)."""
        return self._flush((envelope,))

    def handle_many(
        self, envelopes: list[Envelope]
    ) -> tuple[list[Envelope], list[Event]]:
        """Process a flush of envelopes as one journaled unit.

        Same events and state as calling :meth:`handle` in order, and
        the same outputs but for data-plane flow control (the
        ``DATA_ACK``/``DATA_NACK`` frames of the flush that name one
        origin leave as one bundle, see :meth:`_relay_data`).  The
        whole flush is journaled as *one* record (and one fsync) after
        its last frame, before any of its outgoing frames is returned:
        group commit, with the write-ahead rule intact — a failed write
        withholds every frame of the flush.
        """
        return self._flush(envelopes)

    def _flush(self, envelopes) -> tuple[list[Envelope], list[Event]]:
        """Dispatch every frame, checkpoint once, then publish.  Both
        public entry points land here and never on each other, so a
        per-instance wrapper on either sees only its own calls."""
        bus = self._telemetry
        handled: list[tuple[Envelope, list[Envelope], list[Event]]] = []
        mutated_by: str | None = None
        for envelope in envelopes:
            if bus:
                self._cause = frame_id(envelope)
            handled.append((envelope, *self._dispatch(envelope)))
            if not _is_relay(envelope):
                mutated_by = self._cause
        if mutated_by is not None:
            self._cause = mutated_by
            self._checkpoint()
        out: list[Envelope] = []
        events: list[Event] = []
        #: (label, origin) -> (slot in ``out``, uplink bodies so far).
        bundles: dict[tuple[Label, str], tuple[int, list[bytes]]] = {}
        for envelope, frames, evts in handled:
            if bus:
                self._publish(envelope, evts)
            if frames and envelope.label in DATA_CONTROL_LABELS:
                # One routed uplink body (see _relay_data): it joins its
                # origin's bundle, which leaves where the first went.
                (routed,) = frames
                key = (routed.label, routed.recipient)
                bundle = bundles.get(key)
                if bundle is None:
                    bundles[key] = bundle = (len(out), [])
                    out.append(routed)  # holds the slot, replaced below
                bundle[1].append(routed.body)
            else:
                out.extend(frames)
            events.extend(evts)
        for (label, origin), (index, items) in bundles.items():
            out[index] = Envelope(
                label, self.leader_id, origin, bundle_control(items))
        self.stats.relayed_frames += len(bundles)
        self._cause = ""
        return out, events

    def _publish(self, envelope: Envelope, events: list[Event]) -> None:
        """Map protocol events for one handled frame onto the bus."""
        bus = self._telemetry
        fid = frame_id(envelope)
        for event in events:
            if isinstance(event, Rejected):
                bus.emit(rejection_event(
                    self.leader_id, event.reason, event.label, envelope
                ))
            elif isinstance(event, Joined):
                bus.emit(AuthAccepted(self.leader_id, event.user_id, fid))
            elif isinstance(event, Left):
                bus.emit(MemberDeparted(self.leader_id, event.user_id, fid))
            elif isinstance(event, Denied):
                bus.emit(JoinDenied(
                    self.leader_id, event.user_id, event.reason, fid
                ))

    def _dispatch(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if envelope.recipient != self.leader_id:
            self.stats.rejected += 1
            return [], [Rejected("not addressed to leader", envelope.label)]
        if envelope.label is Label.APP_DATA:
            return self._relay_app(envelope)
        if envelope.label.is_data:
            return self._relay_data(envelope)

        user_id = envelope.sender
        if envelope.label is Label.AUTH_INIT_REQ:
            if not self.directory.knows(user_id):
                self.stats.denied += 1
                return [], [Denied(user_id, "unknown user")]
            if not self.config.access_policy(user_id):
                # The improved protocol has no pre-authentication
                # exchange: denial is silent, so outsiders cannot forge
                # a connection_denied DoS (§2.3 fix).
                self.stats.denied += 1
                return [], [Denied(user_id, "access policy")]

        session = self._session(user_id)
        if session is None:
            self.stats.rejected += 1
            return [], [Rejected("unknown sender", envelope.label)]

        out, events = session.handle(envelope)
        out = list(out)
        for event in events:
            if isinstance(event, Joined):
                out.extend(self._on_member_joined(user_id))
            elif isinstance(event, Left):
                out.extend(self._on_member_left(user_id))
            elif isinstance(event, Rejected):
                self.stats.rejected += 1
        out.extend(self._pump())
        return out, list(events)

    # -- membership changes --------------------------------------------------

    def _on_member_joined(self, user_id: str) -> list[Envelope]:
        self.stats.joins += 1
        rotate = (
            self._group_key is None
            or RekeyPolicy.ON_JOIN in self.config.rekey_policy
        )
        if rotate:
            self._rotate_group_key()
        # Everyone already in the group learns about the new member (and
        # the new key, if rotated): one payload object each, encoded once.
        key = self._current_key_payload()
        news = [MemberJoinedPayload(user_id)]
        if rotate:
            news.append(key)
        for other in self.members:
            if other != user_id:
                self._outboxes[other].extend(news)
        # The new member gets the membership view and the group key —
        # "K_g must be distributed to A in subsequent group-management
        # messages" (§3.2).
        self._outboxes[user_id].append(
            MembershipPayload(tuple(self.members))
        )
        self._outboxes[user_id].append(key)
        return []

    def _on_member_left(self, user_id: str) -> list[Envelope]:
        self.stats.leaves += 1
        self._outboxes[user_id].clear()
        rotate = (
            RekeyPolicy.ON_LEAVE in self.config.rekey_policy and self.members
        )
        if rotate:
            self._rotate_group_key(eviction=True)
        news = [MemberLeftPayload(user_id)]
        if rotate:
            news.append(self._current_key_payload())
        for other in self.members:
            self._outboxes[other].extend(news)
        return []

    # -- rekeying ---------------------------------------------------------------

    def _rotate_group_key(self, eviction: bool = False) -> None:
        # Grace never spans an eviction: an ex-member holds the previous
        # key, so honoring it even briefly would let them keep injecting
        # (spoofing a live member's name) until the next rotation.
        self._previous_group_cipher = (
            self._group_cipher
            if self.config.rekey_grace and not eviction
            else None
        )
        self._group_key = GroupKey(self._rng.key_material(KEY_LEN))
        self._group_cipher = AuthenticatedCipher(self._group_key, self._rng)
        self._group_epoch += 1
        self._last_rekey = self._clock.now()
        self._last_rotation_was_eviction = eviction
        self.stats.rekeys += 1
        if self._telemetry:
            self._telemetry.emit(RekeyIssued(
                self.leader_id, self._group_epoch, eviction, self._cause
            ))

    def _current_key_payload(self) -> NewGroupKeyPayload:
        assert self._group_key is not None
        return NewGroupKeyPayload(
            key=self._group_key,
            epoch=self._group_epoch,
            eviction=self._last_rotation_was_eviction,
        )

    def rekey_now(self) -> list[Envelope]:
        """Manually rotate the group key and distribute it to all members."""
        if not self.members:
            raise StateError("cannot rekey an empty group")
        self._rotate_group_key()
        key = self._current_key_payload()
        for member in self.members:
            self._outboxes[member].append(key)
        out = self._pump()
        self._checkpoint()
        return out

    def expel(self, user_id: str) -> list[Envelope]:
        """Expel a member ("a variation of this protocol can be used to
        expel some members", §2.2).

        The leader unilaterally closes the member's session (discarding
        K_a exactly as a ReqClose would), notifies the rest of the
        group through the authenticated admin channel, and rotates the
        group key if the policy rekeys on leave — so the expellee is
        also cryptographically evicted from group traffic.
        """
        session = self._sessions.get(user_id)
        if session is None or not session.is_member:
            raise StateError(f"{user_id!r} is not a member")
        return self.abort_session(user_id)

    def abort_session(self, user_id: str) -> list[Envelope]:
        """Unilaterally close *any* active per-user session.

        What :meth:`expel` does to a member, also legal for half-open
        handshakes (WaitingForKeyAck), which are not yet memberships.
        Operators use it after a crash recovery when a member's channel
        is known to be desynced (the member is ahead of the journal's
        durable prefix): closing the stale leader-side session lets the
        member re-authenticate, since a leader never accepts a fresh
        AuthInitReq while it holds an active session.
        """
        session = self._sessions.get(user_id)
        if session is None or session.state is LeaderState.NOT_CONNECTED:
            raise StateError(f"{user_id!r} has no active session")
        was_member = session.is_member
        session.close_locally()
        self._outboxes[user_id].clear()
        if self._telemetry:
            self._telemetry.emit(MemberExpelled(self.leader_id, user_id))
        out = self._on_member_left(user_id) if was_member else []
        out.extend(self._pump())
        self._checkpoint()
        return out

    def tick(self) -> list[Envelope]:
        """Advance time-driven behaviour (periodic rekey + loss recovery)."""
        if (
            RekeyPolicy.PERIODIC in self.config.rekey_policy
            and self.members
            and self._clock.now() - self._last_rekey >= self.config.rekey_interval
        ):
            return self.rekey_now()
        out = self._pump() + self.retransmit_stalled()
        self._checkpoint()
        return out

    def retransmit_stalled(self) -> list[Envelope]:
        """Re-send the last unacknowledged frame of every waiting session.

        Byte-identical resends are always safe (a peer that already
        processed the original rejects the copy); they unblock channels
        whose AuthKeyDist/AdminMsg or the corresponding reply was lost.
        Drive this from a timer (LeaderRuntime's tick loop does).
        """
        out = []
        for session in self._sessions.values():
            envelope = session.retransmit_last()
            if envelope is not None:
                out.append(envelope)
        return out

    def heartbeat(self) -> list[Envelope]:
        """Authenticated liveness beacons, one per current member.

        The improved protocol denies *silently*, so a member cannot tell
        a dead leader from one ignoring it — liveness detection must be
        timer-driven on the member side (§7).  The beacon is an ordinary
        APP_DATA frame from the leader sealed under the current group
        key: one seal serves every member (the body is recipient-
        independent), it costs no nonce-chain state, no acks, and no
        admin-log growth, and only the real leader (or a member, whose
        name the frame does not carry) could have produced it.
        """
        if self._group_cipher is None or not self.members:
            return []
        body = self._group_cipher.seal(
            encode_fields([encode_str(self.leader_id), b"hb"]),
            app_ad(self.leader_id),
        ).to_bytes()
        return [
            Envelope(Label.APP_DATA, self.leader_id, member, body)
            for member in self.members
        ]

    # -- admin distribution --------------------------------------------------

    def broadcast_admin(self, payload: AdminPayload) -> list[Envelope]:
        """Queue an arbitrary admin payload to every current member."""
        for member in self.members:
            self._outboxes[member].append(payload)
        out = self._pump()
        self._checkpoint()
        return out

    def send_admin_to(self, user_id: str, payload: AdminPayload) -> list[Envelope]:
        """Queue an admin payload to one member."""
        session = self._sessions.get(user_id)
        if session is None or not session.is_member:
            raise StateError(f"{user_id!r} is not a member")
        self._outboxes[user_id].append(payload)
        out = self._pump()
        self._checkpoint()
        return out

    def _pump(self) -> list[Envelope]:
        """Send everything queued for every idle admin channel.

        An idle member's whole outbox leaves as the X of one AdminMsg:
        a lone payload bare (the frame it always was), two or more as
        one :class:`~repro.enclaves.itgm.admin.BatchPayload` — so a
        membership change costs each member one round trip, not one
        per notification, and a leaver's key is retired one Ack sooner.

        A rekey or membership broadcast readies every member at once;
        flushing them here is the leader's multicast fan-out: M seals
        under M session keys (§3.2).
        """
        prof = self._profiler
        tok = prof.begin("multicast") if prof else None
        out = []
        for user_id, session in self._sessions.items():
            outbox = self._outboxes[user_id]
            if outbox and session.can_send_admin:
                out.append(session.send_admin(as_one_payload(outbox)))
                outbox.clear()
        if prof:
            prof.end(tok)
        return out

    # -- application relay (Figure 1) --------------------------------------------

    def _relay_app(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        sender = envelope.sender
        session = self._sessions.get(sender)
        if session is None or not session.is_member:
            self.stats.rejected += 1
            return [], [Rejected("APP_DATA from non-member", envelope.label)]
        if self._group_cipher is None:
            self.stats.rejected += 1
            return [], [Rejected("APP_DATA before first group key",
                                 envelope.label)]
        # Verify under the current group key before relaying; a frame
        # sealed under an old (leaked) key is discarded here — except,
        # with rekey grace, frames exactly one epoch old, which the
        # leader re-seals under the current key so every recipient can
        # read them (the leader is trusted, so re-sealing is sound).
        body = envelope.body
        prof = self._profiler
        tok = prof.begin("open") if prof else None
        try:
            box = SealedBox.from_bytes(body)
            try:
                plain = self._group_cipher.open(box, app_ad(sender))
            except IntegrityError:
                if self._previous_group_cipher is None:
                    raise
                plain = self._previous_group_cipher.open(box, app_ad(sender))
                body = self._group_cipher.seal(
                    plain, app_ad(sender)
                ).to_bytes()
                self.stats.grace_resealed += 1
            decode_fields(plain, expect=2)
        except (CodecError, IntegrityError):
            if prof:
                prof.end(tok)
            self.stats.rejected += 1
            return [], [Rejected("APP_DATA failed group-key check",
                                 envelope.label)]
        if prof:
            prof.end(tok)
            tok = prof.begin("multicast")
        out = [
            Envelope(Label.APP_DATA, sender, other, body)
            for other in self.members
            if other != sender
        ]
        if prof:
            prof.end(tok)
        self.stats.relayed_frames += len(out)
        return out, []

    # -- data-plane relay (leader-oblivious) --------------------------------------

    def _relay_data(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        """Relay a ratcheted data-plane frame *without opening it*.

        The whole point of the end-to-end data plane is that the relay
        never holds a message key — so unlike :meth:`_relay_app`, no
        group-key check happens here.  The leader still enforces
        membership: only current members may inject or receive data
        traffic, which is what turns an expulsion into an immediate
        traffic cutoff on top of the cryptographic rekey.

        ``DATA_MSG`` fans out to every member except the sender.
        ``DATA_ACK``/``DATA_NACK`` go back to the origin sender named
        (in the clear, as routing metadata) in the body: what this
        returns for one is the body routed to its origin, and
        :meth:`_flush` sends every such body of one flush to one origin
        as one bundle frame, a lone one as a bundle of one.
        """
        sender = envelope.sender
        session = self._sessions.get(sender)
        if session is None or not session.is_member:
            self.stats.rejected += 1
            return [], [Rejected("data frame from non-member", envelope.label)]
        if envelope.label is Label.DATA_MSG:
            out = [
                Envelope(Label.DATA_MSG, sender, other, envelope.body)
                for other in self.members
                if other != sender
            ]
            self.stats.relayed_frames += len(out)
            return out, []
        # ACK/NACK: route to the origin member named in the body.
        try:
            origin = decode_control_routing(envelope.body)[0]
        except CodecError:
            self.stats.rejected += 1
            return [], [Rejected("malformed data control frame",
                                 envelope.label)]
        target = self._sessions.get(origin)
        if target is None or not target.is_member:
            self.stats.rejected += 1
            return [], [Rejected("data control for non-member",
                                 envelope.label)]
        return [Envelope(envelope.label, sender, origin, envelope.body)], []

    # -- introspection for the formal-vs-concrete cross-checks -------------------

    def admin_send_log(self, user_id: str) -> list[AdminPayload]:
        """The ``snd_A`` list for one member (empty when not in session)."""
        session = self._sessions.get(user_id)
        return list(session.admin_log) if session else []
