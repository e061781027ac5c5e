"""The intrusion-tolerant group-management protocol (paper §3.2).

This package is the paper's primary contribution, realized as:

* :mod:`~repro.enclaves.itgm.admin` — the typed group-management payloads
  (the ``X`` field of AdminMsg): new group key, member joined/left,
  membership view.
* :mod:`~repro.enclaves.itgm.member` — the user state machine of Figure 2
  (NotConnected / WaitingForKey / Connected) as a sans-IO protocol core,
  and the rejoin discipline that follows one leader across sessions.
* :mod:`~repro.enclaves.itgm.leader_session` — the leader's per-user
  state machine of Figure 3 (NotConnected / WaitingForKeyAck /
  Connected / WaitingForAck).
* :mod:`~repro.enclaves.itgm.leader` — the full group leader: user
  directory, access policy, membership tracking, rekey policy, per-member
  stop-and-wait admin outboxes, and application-data relay.
* :mod:`~repro.enclaves.itgm.runtime` / :mod:`~repro.enclaves.itgm.supervisor`
  — asyncio drivers wiring the sans-IO cores to any transport: the
  leader's runtime, and the one member shell around one
  :class:`~repro.enclaves.itgm.member.Follower` per leader it follows.

Security guarantees (proved in the paper, machine-checked in
:mod:`repro.formal`, and exercised at the bytes level by
:mod:`repro.attacks`): provided the member and leader are not compromised,
every admin payload a member accepts was sent by the leader, in order,
without duplication — no matter how many other participants are
compromised, and even if old session keys leak.
"""

from repro.enclaves.itgm.admin import (
    AdminPayload,
    MemberJoinedPayload,
    MemberLeftPayload,
    MembershipPayload,
    NewGroupKeyPayload,
    TextPayload,
)
from repro.enclaves.itgm.failover import ManagerSet
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.leader_session import LeaderSession, LeaderState
from repro.enclaves.itgm.member import Follower, MemberProtocol, MemberState
from repro.enclaves.itgm.persistence import restore_leader, snapshot_leader
from repro.enclaves.itgm.runtime import LeaderRuntime
from repro.enclaves.itgm.supervisor import (
    LeaderOrchestrator,
    ResilientMemberClient,
    SupervisorConfig,
)

__all__ = [
    "AdminPayload",
    "NewGroupKeyPayload",
    "MemberJoinedPayload",
    "MemberLeftPayload",
    "MembershipPayload",
    "TextPayload",
    "MemberProtocol",
    "MemberState",
    "Follower",
    "LeaderSession",
    "LeaderState",
    "GroupLeader",
    "LeaderConfig",
    "LeaderRuntime",
    "ManagerSet",
    "ResilientMemberClient",
    "SupervisorConfig",
    "LeaderOrchestrator",
    "snapshot_leader",
    "restore_leader",
]
