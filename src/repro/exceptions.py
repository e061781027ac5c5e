"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch one base class.  Protocol-level failures are further
split so that a leader or member can distinguish "the peer misbehaved"
(:class:`ProtocolViolation` and subclasses) from "my local state does not
permit this action" (:class:`StateError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class CryptoError(ReproError):
    """Base class for failures inside the crypto substrate."""


class IntegrityError(CryptoError):
    """A MAC check failed: the ciphertext was forged or corrupted."""


class PaddingError(CryptoError):
    """PKCS#7 padding was malformed after decryption."""


class KeyError_(CryptoError):
    """A key had the wrong length, type, or usage."""


class CodecError(ReproError):
    """Wire-format encoding or decoding failed."""


class NetworkError(ReproError):
    """Base class for transport-level failures."""


class ConnectionClosed(NetworkError):
    """The peer endpoint is closed or unreachable."""


class AddressInUse(NetworkError):
    """An endpoint with the same address is already registered."""


class ProtocolError(ReproError):
    """Base class for protocol-layer failures."""


class ProtocolViolation(ProtocolError):
    """A received message violates the protocol rules.

    Raised (and logged) when a message fails authentication, carries a
    stale nonce, has the wrong label for the current state, or is
    otherwise evidence of an attack or corruption.  Honest endpoints
    *discard* such messages rather than crash; the exception type exists
    so tests and attack tooling can observe exactly why a message was
    rejected.
    """


class UnknownPeer(ProtocolError):
    """The leader has no registered long-term key for this user."""


class StateError(ProtocolError):
    """The requested operation is not allowed in the current FSM state."""


class RecoveryFailed(ProtocolError):
    """A supervised member exhausted every rejoin/failover avenue.

    Raised by :class:`~repro.enclaves.itgm.supervisor.ResilientMemberClient`
    when its retry budget is spent across the whole manager list — the
    terminal outcome of self-healing, as opposed to hanging forever.
    """


class QuorumError(ProtocolError):
    """A quorum certificate failed verification.

    Raised by :mod:`repro.quorum.attestation` when a certificate is
    malformed, carries too few distinct valid attestations, mixes
    conflicting statements, or names an evicted replica.  Members treat
    it like any other authentication failure: the carrying payload is
    discarded, loudly."""


class RatchetError(ProtocolError):
    """Base class for data-plane ratchet failures (:mod:`repro.dataplane`).

    Like :class:`ProtocolViolation`, honest endpoints *discard* the
    offending frame rather than crash; the subclasses exist so the
    channel can emit the precise typed telemetry event for each fate.
    """


class SkipWindowExceeded(RatchetError):
    """A frame's sequence number is too far ahead of the receive chain.

    Advancing would require ratcheting past the bounded skip-window —
    either the link lost more than the window tolerates or an attacker
    is trying to make the receiver burn unbounded chain state.  Loud by
    design: the frame is shed and counted, never silently absorbed.
    """


class RatchetReplayError(RatchetError):
    """A frame re-used a sequence number whose key is already consumed.

    Each chain position decrypts exactly once; a duplicate (replayed or
    loss-duplicated) frame finds neither a stored skipped key nor an
    unconsumed chain position.
    """


class EpochMismatchError(RatchetError):
    """A data frame is bound to a group epoch the channel has left.

    Every membership rekey re-seeds all sender chains; frames sealed
    under a previous epoch's chains are dead on arrival — that is the
    rekey-on-leave guarantee, not an error to paper over.
    """


class StorageError(ReproError):
    """Base class for failures in the durability layer (:mod:`repro.storage`)."""


class DiskCrashed(StorageError):
    """The (simulated) disk failed mid-operation: the host is down.

    Raised by :class:`~repro.storage.simdisk.SimDisk` at an injected
    fail-stop point and on any access while the disk is down.  The
    journal deliberately lets this propagate out of the leader's
    mutation path — write-ahead discipline means a mutation whose
    journal record did not survive must not release its outputs.
    """


class RecoveryError(StorageError):
    """Journal replay could not reconstruct any valid state prefix.

    The loud alternative to silently restoring corrupt state: raised
    when the journal file is missing, or its base snapshot record is
    torn or corrupt.  Callers fall back to cold recovery (fresh leader,
    members re-authenticate)."""


class FormalModelError(ReproError):
    """Base class for errors in the symbolic formal model."""


class PropertyViolation(FormalModelError):
    """An invariant of Section 5 failed on a reachable state.

    If this is ever raised by the explorer, either the model or the
    protocol (or the paper!) is wrong; the attached ``state`` and
    ``trace`` pinpoint the counterexample.
    """

    def __init__(self, message: str, state=None, trace=None) -> None:
        super().__init__(message)
        self.state = state
        self.trace = trace
