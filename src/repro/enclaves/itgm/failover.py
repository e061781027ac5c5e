"""Standby group managers and failover (the paper's future work, scoped).

    "The main limit of the current Enclaves architecture is its reliance
     on a central group leader.  In future work, we intend to develop a
     more robust and scalable version of the system where the single
     leader is replaced by a distributed set of group managers." — §7

This module implements the crash-recovery slice of that programme: a
**set of group managers** sharing the user registry, one of which is
primary at any time.  When the primary fails, a standby takes over and
members re-authenticate to it with the *unchanged* §3.2 protocol —
fresh session keys, fresh group key, rebuilt membership.

What this preserves and what it does not:

* **Safety is untouched.**  Every §5 property is per (user, leader)
  session; a failover just ends sessions (exactly like a crash) and
  starts new ones against a different honest leader.  No protocol
  message ever crosses managers, so no new attack surface opens —
  which is why the proofs carry over verbatim.
* **Availability improves**: the group survives the loss of any
  minority of managers (members rejoin the next standby).
* **Not Byzantine**: managers are crash-faulty only.  A *compromised*
  manager is outside this design, as it is outside the paper's (the
  leader must be trusted — §6 points to Rampart/SecureRing for more).

Long-term keys work across managers out of the box in both provisioning
modes: password-derived ``P_a`` is leader-independent, and DH
provisioning (:mod:`repro.enclaves.pubkey`) derives one ``P_a`` per
(user, manager) pair — :class:`ManagerSet` handles either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import RandomSource, SystemRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.exceptions import StateError
from repro.telemetry.events import EventBus
from repro.util.clock import Clock


@dataclass
class ManagerSet:
    """A fixed set of group managers, one primary at a time.

    Managers share one :class:`UserDirectory` (the user registry is
    replicated out of band — an enrollment concern, not a protocol
    one).  Each manager is an ordinary :class:`GroupLeader` under its
    own identity (``mgr-0``, ``mgr-1``, ...).
    """

    directory: UserDirectory
    managers: dict[str, GroupLeader] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    primary_index: int = 0
    failed: set[str] = field(default_factory=set)

    @classmethod
    def create(
        cls,
        n_managers: int,
        directory: UserDirectory,
        config: LeaderConfig | None = None,
        rng: RandomSource | None = None,
        manager_ids: list[str] | None = None,
        clock: Clock | None = None,
        telemetry: EventBus | None = None,
    ) -> "ManagerSet":
        """``n_managers`` managers named ``mgr-0``, ``mgr-1``, ... — or
        one per entry of ``manager_ids``, in that succession order."""
        rng = rng if rng is not None else SystemRandom()
        if manager_ids is None:
            manager_ids = [f"mgr-{i}" for i in range(n_managers)]
        ms = cls(directory=directory)
        for manager_id in manager_ids:
            ms.managers[manager_id] = GroupLeader(
                manager_id, directory,
                config=config, rng=rng.fork(manager_id),
                clock=clock, telemetry=telemetry,
            )
            ms.order.append(manager_id)
        return ms

    @property
    def primary_id(self) -> str:
        return self.order[self.primary_index]

    @property
    def primary(self) -> GroupLeader:
        return self.managers[self.primary_id]

    def fail_primary(self) -> str:
        """Crash the current primary and promote the next live standby.

        Returns the new primary's identity.  Raises
        :class:`StateError` when no standby remains.
        """
        self.failed.add(self.primary_id)
        for index in range(len(self.order)):
            candidate = self.order[(self.primary_index + 1 + index)
                                   % len(self.order)]
            if candidate not in self.failed:
                self.primary_index = self.order.index(candidate)
                return candidate
        raise StateError("all group managers have failed")

    def rehost_primary(
        self, state: dict, rng: RandomSource | None = None
    ) -> GroupLeader:
        """Install a replayed leader state as the (new) primary.

        The warm half of promotion (:func:`repro.storage.shipping.\
promote`): ``state`` is a snapshot dict replayed from shipped journal
        records, carrying the *dead* primary's ``leader_id``.  The
        standby re-hosts that logical identity — member sessions were
        established toward ``leader_id``, so keeping it is what lets
        them continue without re-authenticating.  The re-hosted leader
        replaces the old entry and becomes primary; the promoting
        standby's own (empty) leader identity stays available as a
        future cold spare.
        """
        from repro.enclaves.itgm.persistence import restore_leader

        leader_id = state.get("leader_id")
        if leader_id not in self.managers:
            raise StateError(f"state names unknown manager {leader_id!r}")
        old = self.managers[leader_id]
        leader = restore_leader(
            state, self.directory,
            config=old.config, rng=rng if rng is not None else old._rng,
        )
        self.managers[leader_id] = leader
        self.failed.discard(leader_id)
        self.primary_index = self.order.index(leader_id)
        return leader

    def recover(self, manager_id: str) -> None:
        """Bring a crashed manager back as a cold standby.

        Its in-memory group state is gone (crash-recovery model); it is
        re-created fresh around the shared directory, on a fork of its
        predecessor's stream so its sessions draw no key twice.
        """
        if manager_id not in self.managers:
            raise StateError(f"unknown manager {manager_id!r}")
        old = self.managers[manager_id]
        self.managers[manager_id] = GroupLeader(
            manager_id, self.directory, config=old.config,
            rng=old._rng.fork("recovered"),
            clock=old._clock, telemetry=old._telemetry,
        )
        self.failed.discard(manager_id)
