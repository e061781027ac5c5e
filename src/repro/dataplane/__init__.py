"""End-to-end data plane: sender-key ratchets over the §3.2 group key.

The management plane (joins, rekeys, expulsion) exists to protect the
*data* a group exchanges — but sealing application traffic directly
under the shared group key gives no forward secrecy: a departed member
holds a usable read key until the next rekey, and one compromised
message key exposes every message.  The ratchets below add forward
secrecy within an epoch and a dead chain after a leave, on top of group
authenticity (a frame that opens came from a current group-key holder).
They do not add sender authenticity: every chain is derived from the
group key, so any member can seal traffic under another member's name
(ROADMAP item 16).

This package layers a Sender-Keys construction on top of the group key:

* :mod:`~repro.dataplane.ratchet` — per-sender HMAC chain ratchets
  deriving one message key per sequence number, with a bounded
  skip-window for out-of-order delivery.
* :mod:`~repro.dataplane.channel` — binds every chain to the current
  group epoch, so each membership rekey re-seeds all chains and an
  expelled member's captured chain state opens nothing post-leave.
* :mod:`~repro.dataplane.member` — a :class:`DataMember` wrapper
  composing a §3.2 member with the ratcheted channel and reliability.
* :mod:`~repro.dataplane.reliable` — ACK/NACK reliable multicast with
  adaptive retransmit deadlines (reusing the overload layer's
  estimators).
* :mod:`~repro.dataplane.soak` — mixed management + data chaos soak.
"""

from repro.dataplane.channel import DataChannel, GroupKeyChannel
from repro.dataplane.member import DataMember
from repro.dataplane.ratchet import (
    DEFAULT_SKIP_WINDOW,
    ReceiverState,
    SenderState,
    seed_chain,
)
from repro.dataplane.reliable import ReliableReceiver, ReliableSender

__all__ = [
    "DEFAULT_SKIP_WINDOW",
    "DataChannel",
    "DataMember",
    "GroupKeyChannel",
    "ReceiverState",
    "ReliableReceiver",
    "ReliableSender",
    "SenderState",
    "seed_chain",
]
