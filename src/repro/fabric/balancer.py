"""Rebalance policy: telemetry-driven migration proposals.

The balancer is a pure function from observations to proposals.  It
reads the fabric's metrics (groups per shard from the directory;
per-group join rates and rekey latencies from a
:class:`~repro.telemetry.metrics.MetricsRegistry`) and proposes
:class:`MigrationProposal`\\ s; something else — an operator, the soak
harness, a control loop — decides whether to *execute* them via
:func:`~repro.fabric.migration.migrate_group`.  Keeping the policy free
of side effects makes it trivially testable and trivially deterministic:
sorted iteration everywhere, and the injected RNG is consulted only to
break exact ties.

The placement signal is a weighted load score per shard::

    load(shard) = Σ over hosted groups of (1 + JOIN_WEIGHT·join_rate
                                             + REKEY_WEIGHT·rekey_p99)

so a shard hosting few frantic groups can outweigh one hosting many
idle groups.  A move is proposed when shifting the busiest group off
the hottest shard onto the coolest one would shrink the gap between
them — the classic "does the move help" greedy test, one move per
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import RandomSource
from repro.fabric.directory import GroupDirectory
from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class MigrationProposal:
    """One proposed move, with the evidence that motivated it."""

    group_id: str
    source: str
    target: str
    #: Human-auditable motivation, e.g. ``"load 7.00 -> 3.00"``.
    reason: str
    #: Projected post-move gap between hottest and coolest shard.
    projected_gap: float


#: Extra load per unit of a group's join rate (joins per second).
JOIN_WEIGHT = 2.0
#: Extra load per second of a group's p99 rekey latency.
REKEY_WEIGHT = 1.0
#: Minimum hottest-to-coolest gap (in load units) worth acting on;
#: below this the fabric is considered balanced.
MIN_GAP = 0.5


@dataclass
class RebalancePolicy:
    """Greedy gap-shrinking rebalancer over shard load scores."""

    rng: RandomSource | None = field(default=None, repr=False)

    def group_load(self, group_id: str, metrics: MetricsRegistry) -> float:
        """One group's weighted load contribution (≥ 1)."""
        join_rate = metrics.gauge("fabric_join_rate", group=group_id).value
        rekey_p99 = 0.0
        hist = metrics.histogram("fabric_rekey_latency", group=group_id)
        if len(hist):
            rekey_p99 = hist.p99
        return 1.0 + JOIN_WEIGHT * join_rate + REKEY_WEIGHT * rekey_p99

    def shard_loads(
        self, fabric: GroupDirectory, metrics: MetricsRegistry
    ) -> dict[str, float]:
        """Projected load score per serving shard."""
        loads = {shard: 0.0 for shard in fabric.shard_ids}
        for group_id, shard in fabric.placements().items():
            if shard in loads:
                loads[shard] += self.group_load(group_id, metrics)
        return loads

    def propose(
        self, fabric: GroupDirectory, metrics: MetricsRegistry
    ) -> list[MigrationProposal]:
        """At most one migration proposal, and only one that would
        shrink the load gap (migrations are not free)."""
        loads = self.shard_loads(fabric, metrics)
        if len(loads) < 2:
            return []
        hottest = self._pick(loads, reverse=True)
        coolest = self._pick(loads, reverse=False)
        gap = loads[hottest] - loads[coolest]
        if gap < MIN_GAP or hottest == coolest:
            return []
        candidates = sorted(
            g for g, s in fabric.placements().items() if s == hottest
        )
        best: tuple[float, float, str] | None = None
        for group_id in candidates:
            load = self.group_load(group_id, metrics)
            new_gap = abs((loads[hottest] - load) - (loads[coolest] + load))
            # Moving must strictly shrink the gap, else skip.
            if new_gap >= gap:
                continue
            if best is None or (new_gap, -load) < (best[0], -best[1]):
                best = (new_gap, load, group_id)
        if best is None:
            return []
        new_gap, load, group_id = best
        return [MigrationProposal(
            group_id=group_id,
            source=hottest,
            target=coolest,
            reason=(
                f"shard load {loads[hottest]:.2f} -> "
                f"{loads[hottest] - load:.2f} "
                f"(gap {gap:.2f} -> {new_gap:.2f})"
            ),
            projected_gap=new_gap,
        )]

    def _pick(self, loads: dict[str, float], *, reverse: bool) -> str:
        """The extreme-load shard; RNG breaks *exact* ties only, so the
        policy stays deterministic under a seeded source."""
        extreme = max(loads.values()) if reverse else min(loads.values())
        tied = sorted(s for s, v in loads.items() if v == extreme)
        if len(tied) > 1 and self.rng is not None:
            pick = int.from_bytes(self.rng.random_bytes(2), "big") % len(tied)
            return tied[pick]
        return tied[0]
