"""Per-sender HMAC chain ratchets (the Sender-Keys construction).

Each sender owns a forward-only key chain seeded from the group key:

.. code-block:: text

    ck_0     = HKDF(group key, "chain" | sender | epoch)
    mk_i     = (enc_i, mac_i) = (HMAC(ck_i, "msg|enc")[:16], HMAC(ck_i, "msg|mac"))
    ck_{i+1} = HMAC(ck_i, "next")   then the chain ratchets forward

The message key *is* the (encryption, MAC) pair the sealed box needs —
three labelled HMACs per chain position and no further KDF — and it goes
straight to ``provider.seal``/``open`` on the one-shot path, so no cache
anywhere outlives it (known-answer vectors:
``tests/crypto/vectors/ratchet_chain.json``).

What holds, from the one-wayness of HMAC and the epoch binding:

* **Group authenticity** — a frame that opens was sealed by a current
  holder of the group key.
* **Forward secrecy within an epoch** — an endpoint deletes ``ck_i``
  and ``mk_i`` the moment message *i* is sealed or opened, so
  compromising the endpoint afterwards reveals nothing about earlier
  traffic.
* **A dead chain after a leave** — every group-key epoch re-seeds every
  chain (the channel layer's job, :mod:`repro.dataplane.channel`), so
  chain state captured by a leaver opens nothing once the leave commits.

What does **not** hold is sender authenticity inside the group: every
``ck_0`` is derived from the group key and the sender id alone, so any
current member can derive every other member's chain and seal traffic
that opens under another member's name.  Domain separation by sender
keeps chains apart; it does not keep members apart.  ROADMAP item 16
tracks the defense.

Out-of-order delivery is handled with a **bounded skip-window**: when a
frame arrives ``k`` positions ahead, the receiver ratchets forward,
banking the ``k`` skipped message keys for the late frames — but only
up to ``window`` positions per frame, past which the frame is rejected
loudly (:class:`~repro.exceptions.SkipWindowExceeded`) rather than
burning unbounded chain state on attacker-chosen sequence numbers.

State-mutation discipline: :meth:`ReceiverState.lookup` derives keys
**without committing** — the caller verifies the frame's MAC first and
calls :meth:`ReceiverState.commit` only on success.  A garbage frame
with a huge (but in-window) seq therefore cannot make the receiver
throw away chain state or banked skip keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import hkdf_expand, hkdf_extract
from repro.crypto.keys import KEY_LEN, GroupKey
from repro.crypto.provider import get_provider
from repro.exceptions import RatchetReplayError, SkipWindowExceeded, StateError

#: Maximum positions a single frame may ratchet the receive chain
#: forward.  16 matches the stage51 exemplar; 32 tolerates the reorder
#: depths the chaos layer actually produces.
DEFAULT_SKIP_WINDOW = 32

#: Banked skip keys retained per chain.  Gaps that are never filled
#: (the frames were truly lost and not retransmitted) would otherwise
#: accumulate keys forever; past this cap the oldest banked keys are
#: discarded and a very late frame lands as a replay rejection.
DEFAULT_MAX_STORED = 4 * DEFAULT_SKIP_WINDOW

_DOMAIN = b"repro-dataplane-v1"
#: The HMAC labels of one chain position: ``enc_i``, ``mac_i``, ``ck_{i+1}``.
_LABELS = (b"msg|enc", b"msg|mac", b"next")
_ENC_KEY_LEN = 16

#: ``mk_i``: the (encryption, MAC) keys for exactly one data frame.
MessageKey = tuple[bytes, bytes]


def seed_chain(group_key: GroupKey, epoch: int, sender_id: str) -> bytes:
    """Derive sender ``sender_id``'s chain key for one group epoch.

    Both ends run this independently from the shared group key — there
    is no extra key-distribution round.  Domain separation by sender id
    *and* epoch means a new epoch re-seeds every chain and no two
    senders ever share chain state.
    """
    prk = hkdf_extract(_DOMAIN, group_key.material)
    info = b"chain|" + sender_id.encode() + b"|" + epoch.to_bytes(8, "big")
    return hkdf_expand(prk, info, KEY_LEN)


def _step(chain_key: bytes) -> tuple[MessageKey, bytes]:
    """One chain position: ``(mk_i, ck_{i+1})`` from ``ck_i`` — three
    HMACs under one key schedule that is dropped with the chain key."""
    enc, mac, chain = get_provider().hmac_sha256_many(chain_key, _LABELS)
    return (enc[:_ENC_KEY_LEN], mac), chain


class SenderState:
    """The sending half of one chain: derive, use, ratchet, forget."""

    __slots__ = ("_chain", "_next_seq")

    def __init__(self, chain_key: bytes) -> None:
        self._chain = chain_key
        self._next_seq = 0

    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`next_key` call will return."""
        return self._next_seq

    def next_key(self) -> tuple[int, MessageKey]:
        """Consume one chain position: ``(seq, (enc, mac))``.

        The chain ratchets forward immediately — after this returns,
        the sender state alone can never re-derive the returned key.
        """
        seq = self._next_seq
        key, self._chain = _step(self._chain)
        self._next_seq += 1
        return seq, key


@dataclass(frozen=True, slots=True)
class PendingKey:
    """A derived-but-uncommitted receive key (see module docstring).

    ``banked`` holds the (seq, key) pairs for positions skipped over on
    the way to ``seq``; ``chain_after`` / ``next_seq_after`` are the
    post-commit chain state.  For a key served from the skip store,
    ``from_skip`` is true and the chain fields are no-ops.
    """

    seq: int
    key: MessageKey
    from_skip: bool
    banked: tuple[tuple[int, MessageKey], ...]
    chain_after: bytes | None
    next_seq_after: int


class ReceiverState:
    """The receiving half of one sender's chain.

    Tracks the next expected sequence number, banks skipped keys for
    out-of-order frames, and refuses both replays (consumed positions)
    and jumps past the skip-window.
    """

    __slots__ = ("_chain", "_next_seq", "_skipped", "window", "max_stored",
                 "skip_hits", "skips_banked", "skips_evicted")

    def __init__(
        self,
        chain_key: bytes,
        window: int = DEFAULT_SKIP_WINDOW,
        max_stored: int = DEFAULT_MAX_STORED,
    ) -> None:
        if window < 0:
            raise StateError("skip window must be >= 0")
        if max_stored < window:
            raise StateError("max_stored must be >= window")
        self._chain = chain_key
        self._next_seq = 0
        self._skipped: dict[int, MessageKey] = {}
        self.window = window
        self.max_stored = max_stored
        #: Late frames served from the skip store (bench: hit rate).
        self.skip_hits = 0
        self.skips_banked = 0
        self.skips_evicted = 0

    @property
    def next_seq(self) -> int:
        """Next in-order sequence number expected on the chain."""
        return self._next_seq

    @property
    def stored(self) -> int:
        """Banked skip keys currently held."""
        return len(self._skipped)

    def lookup(self, seq: int) -> PendingKey:
        """Derive the message key for ``seq`` *without* mutating state.

        Raises :class:`~repro.exceptions.RatchetReplayError` for a
        consumed position and
        :class:`~repro.exceptions.SkipWindowExceeded` for a jump of
        more than ``window`` positions.  Commit the returned value with
        :meth:`commit` only after the frame's MAC verifies.
        """
        if seq in self._skipped:
            return PendingKey(
                seq=seq, key=self._skipped[seq], from_skip=True,
                banked=(), chain_after=None, next_seq_after=self._next_seq,
            )
        if seq < self._next_seq:
            raise RatchetReplayError(
                f"seq {seq} already consumed (next expected {self._next_seq})"
            )
        if seq - self._next_seq > self.window:
            raise SkipWindowExceeded(
                f"seq {seq} is {seq - self._next_seq} ahead of "
                f"{self._next_seq}; window is {self.window}"
            )
        chain = self._chain
        banked: list[tuple[int, MessageKey]] = []
        for skipped_seq in range(self._next_seq, seq):
            key, chain = _step(chain)
            banked.append((skipped_seq, key))
        key, chain = _step(chain)
        return PendingKey(
            seq=seq, key=key, from_skip=False, banked=tuple(banked),
            chain_after=chain, next_seq_after=seq + 1,
        )

    def commit(self, pending: PendingKey) -> int:
        """Apply a verified :class:`PendingKey`; returns keys banked.

        For a skip-store hit the stored key is consumed (a second frame
        for the same seq then fails as a replay).  For a chain advance
        the skipped keys are banked — evicting the oldest past
        ``max_stored`` — and the chain moves past ``seq``.
        """
        if pending.from_skip:
            self._skipped.pop(pending.seq, None)
            self.skip_hits += 1
            return 0
        for skipped_seq, key in pending.banked:
            self._skipped[skipped_seq] = key
        self._chain = pending.chain_after
        self._next_seq = pending.next_seq_after
        self.skips_banked += len(pending.banked)
        while len(self._skipped) > self.max_stored:
            self._skipped.pop(min(self._skipped))
            self.skips_evicted += 1
        return len(pending.banked)

    def outstanding(self) -> list[int]:
        """Sequence numbers skipped over and not yet filled (the gaps
        a NACK should name), in ascending order."""
        return sorted(self._skipped)

    def contiguous_delivered(self) -> int:
        """Highest seq below which everything was delivered (cumulative
        ACK value); -1 when nothing contiguous has been delivered."""
        if self._skipped:
            return min(self._skipped) - 1
        return self._next_seq - 1


__all__ = [
    "DEFAULT_MAX_STORED",
    "DEFAULT_SKIP_WINDOW",
    "PendingKey",
    "ReceiverState",
    "SenderState",
    "seed_chain",
]
