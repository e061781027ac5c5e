"""Message labels.

Each wire message carries a label identifying its type.  The improved
protocol (paper §3.2) uses AUTH_INIT_REQ, AUTH_KEY_DIST, AUTH_ACK_KEY,
ADMIN_MSG, ACK, and REQ_CLOSE.  The legacy protocol (paper §2.2) uses the
REQ_OPEN family.  Both sets live in one enum because an attacker is free
to send any label to any endpoint, and endpoints must handle (discard)
labels they do not expect.
"""

from __future__ import annotations

import enum


class Label(enum.IntEnum):
    """Wire message type tags (one byte on the wire)."""

    # -- improved (intrusion-tolerant) protocol, paper §3.2 ------------
    AUTH_INIT_REQ = 0x01
    AUTH_KEY_DIST = 0x02
    AUTH_ACK_KEY = 0x03
    ADMIN_MSG = 0x04
    ACK = 0x05
    REQ_CLOSE = 0x06

    # -- legacy protocol, paper §2.2 ------------------------------------
    REQ_OPEN = 0x10
    ACK_OPEN = 0x11
    CONNECTION_DENIED = 0x12
    LEGACY_AUTH_1 = 0x13
    LEGACY_AUTH_2 = 0x14
    LEGACY_AUTH_3 = 0x15
    NEW_KEY = 0x16
    NEW_KEY_ACK = 0x17
    REQ_CLOSE_LEGACY = 0x18
    CLOSE_CONNECTION = 0x19
    MEM_ADDED = 0x1A
    MEM_REMOVED = 0x1B

    # -- application data (relayed through the leader, both stacks) ----
    APP_DATA = 0x20

    # -- end-to-end data plane (sender-key ratchets, reliable multicast)
    #: One ratcheted application frame: per-sender chain-derived message
    #: key, seq-prefixed nonce.  The leader relays it *without* opening
    #: it — only endpoints hold (and immediately ratchet away) the
    #: message key.
    DATA_MSG = 0x40
    #: Cumulative delivery acknowledgement for one sender's chain.
    #: Uplink (member to leader) the body is one MAC'd item,
    #: ``fields[origin | acker | epoch || seq* | tag]`` — authenticated
    #: under the group key, not encrypted; downlink (leader to origin)
    #: it is always a bundle ``fields[item...]`` of every such item one
    #: leader flush relayed to that origin (see
    #: :mod:`repro.dataplane.reliable`).
    DATA_ACK = 0x41
    #: Explicit gap report: the named sequence numbers were skipped over
    #: and should be retransmitted.  Same two body forms as ``DATA_ACK``.
    DATA_NACK = 0x42

    # -- fabric envelope scoping (multi-group shard hosting) -----------
    #: A group-scoped wrapper: the body carries ``(group id, inner
    #: envelope)`` so one shard endpoint can demultiplex frames for the
    #: many group leaders it hosts.  The wrapper is pure routing — all
    #: authentication still happens on the sealed inner envelope.
    GROUP_WRAP = 0x30
    #: A shard's answer for a group it no longer (or never) serves from
    #: a *stale route*: re-consult the directory.  Loud by design — a
    #: stale route must never look like a dead network.
    GROUP_REDIRECT = 0x31

    @property
    def is_data(self) -> bool:
        """End-to-end data-plane traffic (ratcheted frames + acks)."""
        # The label is its own int: ``self.value`` is a descriptor read.
        return 0x40 <= self <= 0x42


#: Data-plane flow control (cumulative acks, gap reports): what a leader
#: relays to one origin as a per-flush bundle, and what admission ranks
#: at heartbeat tier.
DATA_CONTROL_LABELS = frozenset({Label.DATA_ACK, Label.DATA_NACK})
