"""Network substrate.

The paper assumes "a set of agents connected via an insecure asynchronous
network": every message can be observed, dropped, duplicated, reordered,
or forged.  :class:`~repro.net.memnet.MemoryNetwork` realizes exactly that
for in-process experiments, with an :class:`~repro.net.adversary.Adversary`
that has full Dolev-Yao power over frames.  A plain asyncio TCP transport
(:mod:`repro.net.tcp`) runs the same protocol stack across real sockets.
"""

from repro.net.adversary import Adversary, FrameAction, ObservedFrame, Verdict
from repro.net.faults import (
    DelayReorderPolicy,
    FaultPlan,
    GilbertElliottPolicy,
    LeaderEvent,
    LeaderEventKind,
    PartitionPolicy,
    PolicyWindow,
)
from repro.net.lossy import LossyPolicy
from repro.net.memnet import MemoryEndpoint, MemoryNetwork
from repro.net.transport import Endpoint, Transport

__all__ = [
    "Transport",
    "Endpoint",
    "MemoryNetwork",
    "MemoryEndpoint",
    "Adversary",
    "FrameAction",
    "ObservedFrame",
    "Verdict",
    "LossyPolicy",
    "PartitionPolicy",
    "DelayReorderPolicy",
    "GilbertElliottPolicy",
    "FaultPlan",
    "PolicyWindow",
    "LeaderEvent",
    "LeaderEventKind",
]
