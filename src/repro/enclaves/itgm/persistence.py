"""Leader state persistence: warm restarts without losing the group.

The failover module (`repro.enclaves.itgm.failover`) covers *cold*
crash recovery: sessions die, members rejoin.  This module covers the
gentler case — a planned restart or a standby with replicated state —
by snapshotting the leader's complete protocol state (group key and
epoch, every per-user session with its key, nonce, and retransmission
cache, pending outboxes) and restoring it into a fresh
:class:`~repro.enclaves.itgm.leader.GroupLeader`.  Members never notice:
their sessions, nonce chains, and pending admin exchanges continue
exactly where they were.

Snapshots contain live keys, so the on-disk form is *sealed*: the
journal (:mod:`repro.storage.journal`) writes each one as a record under
the same encrypt-then-MAC construction as the wire protocol, keyed by a
storage key the operator controls, and replay of a tampered or
wrong-key record fails loudly.

Restrictions: the user directory (long-term keys) is provisioning
state, not protocol state; it is passed to :func:`restore_leader`
separately, exactly like the failover module does.
"""

from __future__ import annotations

from collections import deque

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import GroupKey, SessionKey
from repro.crypto.rng import RandomSource
from repro.enclaves.common import UserDirectory
from repro.enclaves.itgm.admin import decode_payload
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.leader_session import LeaderSession, LeaderState
from repro.exceptions import ProtocolError
from repro.util.clock import Clock
from repro.wire.message import Envelope

#: Format marker so future layouts can migrate.
SNAPSHOT_VERSION = 1

#: Every layout this build can decode.  A snapshot from a newer build is
#: rejected up front (see :func:`validate_snapshot_version`) instead of
#: failing deep inside field decoding with a confusing KeyError.
KNOWN_SNAPSHOT_VERSIONS = frozenset({SNAPSHOT_VERSION})


def validate_snapshot_version(snapshot: dict) -> None:
    """Reject snapshots whose layout this build does not understand.

    Raises :class:`ProtocolError` naming the offending version and the
    versions this build accepts.
    """
    version = snapshot.get("version")
    if version not in KNOWN_SNAPSHOT_VERSIONS:
        known = sorted(KNOWN_SNAPSHOT_VERSIONS)
        raise ProtocolError(
            f"unsupported snapshot version {version!r} "
            f"(this build understands {known})"
        )


def _hex(data: bytes | None) -> str | None:
    return data.hex() if data is not None else None


def _unhex(text: str | None) -> bytes | None:
    return bytes.fromhex(text) if text is not None else None


def _session_snapshot(session: LeaderSession) -> dict:
    """One session as a JSON-able dict."""
    return {
        "state": session.state.name,
        "nonce": _hex(session._nonce),
        "session_key": _hex(
            session._session_key.material if session._session_key else None
        ),
        "admin_log": [payload.encode().hex()
                      for payload in session.admin_log],
        "discarded_keys": list(session.discarded_keys),
        "init_body": _hex(session._init_body),
        "last_outbound": (
            session._last_outbound.to_bytes().hex()
            if session._last_outbound is not None else None
        ),
    }


def _restore_session(session: LeaderSession, data: dict) -> None:
    session.state = LeaderState[data["state"]]
    session._nonce = _unhex(data["nonce"])
    key_material = _unhex(data["session_key"])
    if key_material is not None:
        session._session_key = SessionKey(key_material)
        session._session_cipher = AuthenticatedCipher(
            session._session_key, session._rng
        )
    session.admin_log = [
        decode_payload(bytes.fromhex(encoded))
        for encoded in data["admin_log"]
    ]
    session.discarded_keys = list(data["discarded_keys"])
    session._init_body = _unhex(data["init_body"])
    if data["last_outbound"] is not None:
        session._last_outbound = Envelope.from_bytes(
            bytes.fromhex(data["last_outbound"])
        )


def snapshot_leader(leader: GroupLeader) -> dict:
    """Capture the leader's complete protocol state as a JSON-able dict."""
    return {
        "version": SNAPSHOT_VERSION,
        "leader_id": leader.leader_id,
        "group_key": _hex(
            leader._group_key.material if leader._group_key else None
        ),
        "group_epoch": leader._group_epoch,
        "last_rotation_was_eviction": leader._last_rotation_was_eviction,
        "sessions": {
            user_id: _session_snapshot(session)
            for user_id, session in leader._sessions.items()
        },
        "outboxes": {
            user_id: [payload.encode().hex() for payload in outbox]
            for user_id, outbox in leader._outboxes.items()
        },
    }


def restore_leader(
    snapshot: dict,
    directory: UserDirectory,
    config: LeaderConfig | None = None,
    rng: RandomSource | None = None,
    clock: Clock | None = None,
    telemetry=None,
    leader_cls: type[GroupLeader] = GroupLeader,
) -> GroupLeader:
    """Rebuild a leader from :func:`snapshot_leader` output.

    ``leader_cls`` is the class to build — :class:`GroupLeader`, or a
    subclass with the same constructor whose extra state is not
    protocol state (the quorum's certifier hook, re-bound by its owner).
    Raises :class:`ProtocolError` on version mismatch or a user missing
    from the directory (the registry must be at least as current as the
    snapshot).
    """
    validate_snapshot_version(snapshot)
    if rng is not None:
        # A new incarnation, whose sessions continue under journaled
        # keys: it must not replay the draws of a predecessor that
        # drew from ``rng`` (SystemRandom.fork returns itself).
        rng = rng.fork("restored")
    leader = leader_cls(
        snapshot["leader_id"], directory, config=config, rng=rng, clock=clock,
        telemetry=telemetry,
    )
    key_material = _unhex(snapshot["group_key"])
    if key_material is not None:
        leader._group_key = GroupKey(key_material)
        leader._group_cipher = AuthenticatedCipher(
            leader._group_key, leader._rng
        )
    leader._group_epoch = snapshot["group_epoch"]
    leader._last_rotation_was_eviction = snapshot[
        "last_rotation_was_eviction"
    ]
    # The previous-epoch cipher is deliberately NOT persisted: a restart
    # closes any rekey grace window (conservative: never widen a window
    # across an interruption whose duration we cannot know).
    for user_id, data in snapshot["sessions"].items():
        if not directory.knows(user_id):
            raise ProtocolError(
                f"snapshot references unknown user {user_id!r}"
            )
        _restore_session(leader._session(user_id), data)
    for user_id, encoded_payloads in snapshot["outboxes"].items():
        leader._outboxes[user_id] = deque(
            decode_payload(bytes.fromhex(encoded))
            for encoded in encoded_payloads
        )
    return leader
