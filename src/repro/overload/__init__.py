"""Overload tolerance: the graceful-degradation substrate.

The paper's intrusion-tolerance claim is about *availability under
compromise* — yet crash, partition, and Byzantine faults were the only
ones the reproduction survived.  A single compromised member flooding
JOIN/APP frames could grow the leader's unbounded mailbox without
bound and starve honest members: an insider availability attack
squarely inside the §2.3 threat model.  This package closes that gap
with two cooperating mechanisms, plus the deadline and retry-budget
arithmetic the data plane's retransmit timer runs on:

* :mod:`repro.overload.admission` — priority classes for wire frames
  (control > heartbeat > join > app) and per-sender fair-share token
  buckets, so no single sender can crowd out honest peers.
* :mod:`repro.overload.mailbox` — bounded ingest queues with typed
  :class:`~repro.telemetry.events.FrameShed` /
  :class:`~repro.telemetry.events.QueueSaturated` telemetry instead of
  silent unbounded growth; higher-priority arrivals evict the lowest
  class when full.
* :mod:`repro.overload.deadline` — EWMA-tracked operation latency
  and the adaptive deadline it gives, plus deposit/withdraw retry budgets
  (:class:`~repro.dataplane.reliable.ReliableSender` runs both on every
  retransmit).

The seeded soak (:mod:`repro.overload.soak`, ``python -m repro
overload soak``) runs a flooding insider plus a 10× join surge against
the protected and unprotected stacks and shows honest-member join p99
within SLO on one and collapsing on the other.
"""

from repro.overload.admission import (
    FairShareAdmission,
    PriorityClass,
    TokenBucket,
    classify_frame,
)
from repro.overload.deadline import LatencyTracker, RetryBudget
from repro.overload.mailbox import BoundedMailbox

__all__ = [
    "BoundedMailbox",
    "FairShareAdmission",
    "LatencyTracker",
    "PriorityClass",
    "RetryBudget",
    "TokenBucket",
    "classify_frame",
]
