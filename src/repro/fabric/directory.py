"""The group directory: placement and versioned routing.

The directory is the fabric's control plane.  It owns the mapping
``group id -> shard`` (placed by consistent hashing so shard arrivals
and departures move O(groups/shards) entries, not everything), a
monotonically increasing **routing version**, and the per-group storage
keys under which each group's journal is sealed.

Routing is *versioned* so staleness is always loud: a member caches the
version it last routed with, and a :meth:`GroupDirectory.lookup` against
a newer entry comes back with ``redirected=True`` and the previous
shard — never a silent failure.  The wire-level counterpart is the
shard's ``GROUP_REDIRECT`` frame (:mod:`repro.fabric.shard`).

The directory is deliberately a trusted, in-process component, like the
user registry: the paper's trust model already requires an honest
management plane (§6), and nothing here handles member secrets — the
storage keys it holds are operator material, not protocol keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import RandomSource, SystemRandom
from repro.exceptions import StateError
from repro.telemetry.events import DirectoryUpdated, EventBus


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node is hashed at ``vnodes`` points on a 2^64 ring; a key maps
    to the first virtual node clockwise from its own hash.  Placement
    is a pure function of the node set — no RNG — so every component
    that can see the directory computes identical placements.
    """

    def __init__(self, nodes: tuple[str, ...] = (), *, vnodes: int = 32) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise StateError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for i in range(self.vnodes):
            self._points.append((self._hash(f"{node}#{i}"), node))
        self._points.sort()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise StateError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def locate(self, key: str, *, exclude: frozenset[str] = frozenset()) -> str:
        """The node owning ``key`` (skipping ``exclude``, e.g. draining
        shards).  Raises :class:`StateError` when no node is eligible."""
        candidates = [(h, n) for h, n in self._points if n not in exclude]
        if not candidates:
            raise StateError("no eligible node on the ring")
        target = self._hash(key)
        for point, node in candidates:
            if point >= target:
                return node
        return candidates[0][1]  # wrap around


@dataclass(frozen=True)
class GroupRecord:
    """One directory entry: where a group lives and since which version."""

    group_id: str
    shard_id: str
    version: int          # directory version at the entry's last change
    storage_key: KeyMaterial


@dataclass(frozen=True)
class RouteResult:
    """Answer to one routing lookup.

    ``redirected`` is true when the caller routed with a stale cached
    version: the entry moved since, and ``previous`` names the shard
    the caller probably talked to — the redirect, spelled out.
    """

    group_id: str
    shard_id: str
    version: int
    redirected: bool = False
    previous: str | None = None


class GroupDirectory:
    """create / lookup / drain / delete over a shard pool."""

    def __init__(
        self,
        shard_ids: list[str],
        *,
        vnodes: int = 32,
        rng: RandomSource | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        if not shard_ids:
            raise ValueError("shard pool must not be empty")
        self.ring = HashRing(tuple(shard_ids), vnodes=vnodes)
        self._rng = rng if rng is not None else SystemRandom()
        self._telemetry = telemetry
        self.version = 0
        self._records: dict[str, GroupRecord] = {}
        self.draining: set[str] = set()
        self.failed: set[str] = set()

    # -- internals ----------------------------------------------------------

    def _bump(self, group_id: str, shard_id: str, change: str) -> None:
        self.version += 1
        if self._telemetry:
            self._telemetry.emit(DirectoryUpdated(
                self.version, group_id, shard_id, change
            ))

    def _ineligible(self) -> frozenset[str]:
        return frozenset(self.draining | self.failed)

    def _storage_key(self, group_id: str) -> KeyMaterial:
        rng = self._rng.fork(f"storage-{group_id}")
        return KeyMaterial(rng.key_material(KEY_LEN))

    # -- the service API ----------------------------------------------------

    @property
    def shard_ids(self) -> list[str]:
        """Shards currently serving (ring minus failed)."""
        return [s for s in self.ring.nodes if s not in self.failed]

    def create_group(self, group_id: str) -> GroupRecord:
        """Place a new group on the ring and mint its storage key."""
        if group_id in self._records:
            raise StateError(f"group {group_id!r} already exists")
        shard_id = self.ring.locate(group_id, exclude=self._ineligible())
        self._bump(group_id, shard_id, "create")
        record = GroupRecord(
            group_id, shard_id, self.version, self._storage_key(group_id)
        )
        self._records[group_id] = record
        return record

    def lookup(
        self, group_id: str, known_version: int | None = None
    ) -> RouteResult:
        """Route a group; loud on unknown groups, redirect on staleness.

        ``known_version`` is the directory version the caller last
        routed this group with.  If the entry changed since, the result
        carries ``redirected=True`` plus the shard the caller knew —
        a stale route is *answered*, never silently dropped.
        """
        record = self._records.get(group_id)
        if record is None:
            raise StateError(f"unknown group {group_id!r}")
        redirected = (
            known_version is not None and known_version < record.version
        )
        return RouteResult(
            group_id=group_id,
            shard_id=record.shard_id,
            version=record.version,
            redirected=redirected,
            previous=None,  # filled by move-aware callers via history
        )

    def record(self, group_id: str) -> GroupRecord:
        record = self._records.get(group_id)
        if record is None:
            raise StateError(f"unknown group {group_id!r}")
        return record

    def storage_key(self, group_id: str) -> KeyMaterial:
        return self.record(group_id).storage_key

    def move(self, group_id: str, target_shard: str) -> GroupRecord:
        """Flip a group's entry to ``target_shard`` (migration commit)."""
        old = self.record(group_id)
        if target_shard not in self.ring.nodes:
            raise StateError(f"unknown shard {target_shard!r}")
        if target_shard in self.failed:
            raise StateError(f"shard {target_shard!r} has failed")
        if old.shard_id == target_shard:
            raise StateError(
                f"group {group_id!r} already on {target_shard!r}"
            )
        self._bump(group_id, target_shard, "move")
        record = GroupRecord(
            group_id, target_shard, self.version, old.storage_key
        )
        self._records[group_id] = record
        return record

    def drain(self, shard_id: str) -> tuple[str, ...]:
        """Mark a shard draining; returns the groups to migrate off it.

        A draining shard keeps serving its current groups (migration
        moves them one by one) but receives no new placements.
        """
        if shard_id not in self.ring.nodes:
            raise StateError(f"unknown shard {shard_id!r}")
        self.draining.add(shard_id)
        return self.groups_on(shard_id)

    def delete(self, group_id: str) -> None:
        """Retire a group; its routing entry and storage key are gone."""
        record = self.record(group_id)
        del self._records[group_id]
        self._bump(group_id, record.shard_id, "delete")

    def fail_shard(self, shard_id: str) -> tuple[str, ...]:
        """Mark a shard dead and re-place its groups on the survivors.

        Returns the affected groups, already re-pointed in the routing
        table (directory failover); the caller re-hosts their state
        from the journals and members follow the new routes.
        """
        if shard_id not in self.ring.nodes:
            raise StateError(f"unknown shard {shard_id!r}")
        self.failed.add(shard_id)
        moved = self.groups_on(shard_id)
        for group_id in moved:
            old = self._records[group_id]
            new_shard = self.ring.locate(
                group_id, exclude=self._ineligible()
            )
            self._bump(group_id, new_shard, "fail")
            self._records[group_id] = GroupRecord(
                group_id, new_shard, self.version, old.storage_key
            )
        return moved

    # -- introspection -------------------------------------------------------

    def placements(self) -> dict[str, str]:
        """``group id -> shard id`` for every known group."""
        return {g: r.shard_id for g, r in sorted(self._records.items())}

    def groups_on(self, shard_id: str) -> tuple[str, ...]:
        return tuple(sorted(
            g for g, r in self._records.items() if r.shard_id == shard_id
        ))

    def load(self) -> dict[str, int]:
        """Groups per serving shard (the balancer's primary signal)."""
        counts = {s: 0 for s in self.shard_ids}
        for record in self._records.values():
            if record.shard_id in counts:
                counts[record.shard_id] += 1
        return counts
