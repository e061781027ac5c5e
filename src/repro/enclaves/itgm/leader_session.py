"""The leader's per-user state machine — Figure 3 of the paper.

The leader is "the composition of separate transition systems, one for
each user"; this class is one of those systems.  States::

    NotConnected --AuthInitReq/AuthKeyDist--> WaitingForKeyAck(N2, K_a)
    WaitingForKeyAck(N_l, K_a) --AuthAckKey--> Connected(N3, K_a)
    Connected(N_a, K_a) --send_admin/AdminMsg--> WaitingForAck(N_l, K_a)
    WaitingForAck(N_l, K_a) --Ack--> Connected(N', K_a)
    any-with-K_a --ReqClose--> NotConnected  (+ Oops(K_a): key discarded)

On ReqClose the session key is discarded; the formal model additionally
*publishes* it (the Oops event) to verify that the protocol stays safe
even when old session keys leak.  The runtime simply forgets it, but
:attr:`LeaderSession.discarded_keys` retains fingerprints so tests can
confirm a closed key is never honored again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.crypto.keys import KEY_LEN, LongTermKey, SessionKey
from repro.crypto.rng import NONCE_LEN, RandomSource, SystemRandom
from repro.enclaves.common import Event, Joined, Left, Rejected
from repro.enclaves.itgm.admin import AdminPayload, items_of
from repro.enclaves.itgm.member import encode_session_fields, seal_ad
from repro.exceptions import CodecError, IntegrityError, StateError
from repro.util.bytesops import constant_time_eq
from repro.wire.codec import decode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope


class LeaderState(enum.Enum):
    """The four per-user leader states of Figure 3."""

    NOT_CONNECTED = "NotConnected"
    WAITING_FOR_KEY_ACK = "WaitingForKeyAck"
    CONNECTED = "Connected"
    WAITING_FOR_ACK = "WaitingForAck"


@dataclass
class LeaderSessionStats:
    """Counters for tests and benchmarks."""

    rejected: int = 0
    admin_sent: int = 0     # payloads, i.e. entries ever added to snd_A
    acks_accepted: int = 0  # AdminMsg round trips completed
    sessions_opened: int = 0
    sessions_closed: int = 0


class LeaderSession:
    """Sans-IO leader-side state machine for one user A."""

    def __init__(
        self,
        leader_id: str,
        user_id: str,
        long_term_key: LongTermKey,
        rng: RandomSource | None = None,
    ) -> None:
        self.leader_id = leader_id
        self.user_id = user_id
        self._rng = rng if rng is not None else SystemRandom()
        self._long_term_cipher = AuthenticatedCipher(long_term_key, self._rng)

        self.state = LeaderState.NOT_CONNECTED
        self._nonce: bytes | None = None        # N_l we await, or N_a we hold
        self._session_key: SessionKey | None = None
        self._session_cipher: AuthenticatedCipher | None = None
        self._last_outbound: Envelope | None = None
        self._init_body: bytes | None = None  # opens the current handshake

        #: Admin payloads sent this session, in send order: the paper's
        #: ``snd_A`` list (§5.4).  Emptied when the session closes.
        self.admin_log: list[AdminPayload] = []
        #: Fingerprints of session keys discarded on close (Oops'd keys).
        self.discarded_keys: list[str] = []
        #: Bumped each time ``admin_log`` is emptied.  The journal writes
        #: only the entries appended since its last record; a length
        #: cannot tell it the log was reset (a close and rejoin between
        #: two records can leave the new log longer than the old), this
        #: counter can.
        self.log_generation = 0
        #: Monotonic dirty counter, bumped on every durable state change.
        #: The write-ahead journal uses it to re-serialize only the
        #: sessions that actually moved since the last record — without
        #: it, every mutation would re-encode every session's full admin
        #: history.
        self.version = 0
        self.stats = LeaderSessionStats()

    # -- leader-initiated actions ----------------------------------------------

    def send_admin(self, payload: AdminPayload) -> Envelope:
        """Send ``AdminMsg, L, A, {L, A, N_a, N_l, X}_{K_a}``.

        Only legal in Connected (the channel is stop-and-wait: one
        outstanding admin message per member).  A
        :class:`~repro.enclaves.itgm.admin.BatchPayload` is one X — one
        nonce step, one seal, one Ack — but ``snd_A`` stays flat: the
        log gains its items, never the batch.
        """
        if self.state is not LeaderState.CONNECTED:
            raise StateError(f"cannot send admin from {self.state}")
        assert self._session_cipher is not None and self._nonce is not None
        n_l = self._rng.nonce().value
        box = self._session_cipher.seal(
            encode_session_fields(
                self.leader_id, self.user_id, self._nonce, n_l,
                payload.encode(),
            ),
            seal_ad(Label.ADMIN_MSG, self.leader_id, self.user_id),
        )
        self._nonce = n_l
        self.state = LeaderState.WAITING_FOR_ACK
        items = items_of(payload)
        self.admin_log.extend(items)
        self.version += 1
        self.stats.admin_sent += len(items)
        envelope = Envelope(
            Label.ADMIN_MSG, self.leader_id, self.user_id, box.to_bytes()
        )
        self._last_outbound = envelope
        return envelope

    def retransmit_last(self) -> Envelope | None:
        """Resend the last unacknowledged outbound frame, if any.

        Safe by construction: the frame is byte-identical, so a peer
        that already processed the original rejects the copy as a
        replay (stale nonce), while a peer that lost it makes progress.
        Only meaningful in the two waiting states; returns None
        elsewhere.
        """
        if self.state in (LeaderState.WAITING_FOR_KEY_ACK,
                          LeaderState.WAITING_FOR_ACK):
            return self._last_outbound
        return None

    # -- envelope handling --------------------------------------------------

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        """Process one envelope claimed to come from this user."""
        if envelope.label is Label.AUTH_INIT_REQ:
            return self._on_auth_init(envelope)
        if envelope.label is Label.AUTH_ACK_KEY:
            return self._on_auth_ack(envelope)
        if envelope.label is Label.ACK:
            return self._on_ack(envelope)
        if envelope.label is Label.REQ_CLOSE:
            return self._on_req_close(envelope)
        return [], [self._reject("unexpected label", envelope.label)]

    def _on_auth_init(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if self.state is not LeaderState.NOT_CONNECTED:
            # Loss recovery: if this is a byte-identical copy of the
            # AuthInitReq that opened the current handshake, our
            # AuthKeyDist was probably lost — retransmit it verbatim.
            # (Identical bytes, so a peer that already has it discards
            # the copy; no protocol state changes.)
            if (
                self.state is LeaderState.WAITING_FOR_KEY_ACK
                and self._init_body is not None
                and envelope.body == self._init_body
                and self._last_outbound is not None
            ):
                return [self._last_outbound], []
            # Figure 3 accepts AuthInitReq only when not connected; a
            # duplicate (or replayed) request mid-session is discarded.
            return [], [self._reject("AuthInitReq while session active",
                                     envelope.label)]
        try:
            box = SealedBox.from_bytes(envelope.body)
            plain = self._long_term_cipher.open(
                box, seal_ad(Label.AUTH_INIT_REQ, self.user_id, self.leader_id)
            )
            fields = decode_fields(plain, expect=3)
        except (CodecError, IntegrityError):
            return [], [self._reject("AuthInitReq failed authentication",
                                     envelope.label)]
        user_b, leader_b, n1 = fields
        if user_b != encode_str(self.user_id) or leader_b != encode_str(self.leader_id):
            return [], [self._reject("AuthInitReq identity mismatch",
                                     envelope.label)]
        if len(n1) != NONCE_LEN:
            return [], [self._reject("AuthInitReq malformed nonce",
                                     envelope.label)]

        # Generate fresh N2 and session key; reply with AuthKeyDist.
        n2 = self._rng.nonce().value
        self._session_key = SessionKey(self._rng.key_material(KEY_LEN))
        self._session_cipher = AuthenticatedCipher(self._session_key, self._rng)
        self._nonce = n2
        body = self._long_term_cipher.seal(
            encode_session_fields(
                self.leader_id, self.user_id, n1, n2,
                self._session_key.material,
            ),
            seal_ad(Label.AUTH_KEY_DIST, self.leader_id, self.user_id),
        ).to_bytes()
        self.state = LeaderState.WAITING_FOR_KEY_ACK
        self.version += 1
        reply = Envelope(Label.AUTH_KEY_DIST, self.leader_id, self.user_id, body)
        self._last_outbound = reply
        self._init_body = envelope.body
        return [reply], []

    def _on_auth_ack(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if self.state is not LeaderState.WAITING_FOR_KEY_ACK:
            return [], [self._reject("AuthAckKey outside WaitingForKeyAck",
                                     envelope.label)]
        assert self._session_cipher is not None and self._nonce is not None
        try:
            box = SealedBox.from_bytes(envelope.body)
            plain = self._session_cipher.open(
                box, seal_ad(Label.AUTH_ACK_KEY, self.user_id, self.leader_id)
            )
            n2, n3 = decode_fields(plain, expect=2)
        except (CodecError, IntegrityError):
            return [], [self._reject("AuthAckKey failed authentication",
                                     envelope.label)]
        if len(n2) != NONCE_LEN or not constant_time_eq(n2, self._nonce):
            return [], [self._reject("AuthAckKey stale nonce N2", envelope.label)]
        if len(n3) != NONCE_LEN:
            return [], [self._reject("AuthAckKey malformed nonce N3",
                                     envelope.label)]
        self._nonce = n3
        self.state = LeaderState.CONNECTED
        self.version += 1
        self.stats.sessions_opened += 1
        return [], [Joined(self.user_id)]

    def _on_ack(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        if self.state is not LeaderState.WAITING_FOR_ACK:
            return [], [self._reject("Ack outside WaitingForAck", envelope.label)]
        assert self._session_cipher is not None and self._nonce is not None
        try:
            box = SealedBox.from_bytes(envelope.body)
            plain = self._session_cipher.open(
                box, seal_ad(Label.ACK, self.user_id, self.leader_id)
            )
            user_b, leader_b, n_l, n_next = decode_fields(plain, expect=4)
        except (CodecError, IntegrityError):
            return [], [self._reject("Ack failed authentication", envelope.label)]
        if user_b != encode_str(self.user_id) or leader_b != encode_str(self.leader_id):
            return [], [self._reject("Ack identity mismatch", envelope.label)]
        if len(n_l) != NONCE_LEN or not constant_time_eq(n_l, self._nonce):
            return [], [self._reject("Ack replay (stale nonce)", envelope.label)]
        if len(n_next) != NONCE_LEN:
            return [], [self._reject("Ack malformed next nonce", envelope.label)]
        self._nonce = n_next
        self.state = LeaderState.CONNECTED
        self.version += 1
        self.stats.acks_accepted += 1
        return [], []

    def _on_req_close(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        # Figure 3: ReqClose is honored from Connected and WaitingForAck
        # only.  A user can only seal {A, L}_{K_a} after accepting K_a —
        # i.e., after sending its AuthAckKey — so refusing the close in
        # WaitingForKeyAck guarantees the pending key ack is consumed
        # first and the §5.4 acceptance-prefix property survives message
        # reordering.
        if (
            self.state not in (LeaderState.CONNECTED, LeaderState.WAITING_FOR_ACK)
            or self._session_cipher is None
        ):
            return [], [self._reject("ReqClose with no session", envelope.label)]
        try:
            box = SealedBox.from_bytes(envelope.body)
            plain = self._session_cipher.open(
                box, seal_ad(Label.REQ_CLOSE, self.user_id, self.leader_id)
            )
            user_b, leader_b = decode_fields(plain, expect=2)
        except (CodecError, IntegrityError):
            return [], [self._reject("ReqClose failed authentication",
                                     envelope.label)]
        if user_b != encode_str(self.user_id) or leader_b != encode_str(self.leader_id):
            return [], [self._reject("ReqClose identity mismatch", envelope.label)]

        # Close: discard K_a (the formal model Oops's it here) and empty
        # the send log, per §5.4.
        assert self._session_key is not None
        self._discard_session()
        return [], [Left(self.user_id)]

    def close_locally(self) -> None:
        """Leader-initiated close (expulsion): discard K_a and reset.

        Mirrors the ReqClose handling but is driven by the leader's own
        decision rather than a message from the user.  The expelled
        user's endpoint will keep rejecting until its session times out
        or it rejoins — any message it sends under the discarded key is
        now unauthenticatable, which is the point.
        """
        self._discard_session()

    def _discard_session(self) -> None:
        if self._session_key is not None:
            self.discarded_keys.append(self._session_key.fingerprint())
        self._session_key = None
        self._session_cipher = None
        self._nonce = None
        self.admin_log = []
        self.log_generation += 1
        self._last_outbound = None
        self._init_body = None
        self.state = LeaderState.NOT_CONNECTED
        self.version += 1
        self.stats.sessions_closed += 1

    # -- queries -----------------------------------------------------------

    @property
    def is_member(self) -> bool:
        """True once AuthAckKey was accepted and until the session closes."""
        return self.state in (LeaderState.CONNECTED, LeaderState.WAITING_FOR_ACK)

    @property
    def can_send_admin(self) -> bool:
        return self.state is LeaderState.CONNECTED

    @property
    def session_key_fingerprint(self) -> str | None:
        return self._session_key.fingerprint() if self._session_key else None

    def _reject(self, reason: str, label) -> Rejected:
        self.stats.rejected += 1
        return Rejected(reason, label)
