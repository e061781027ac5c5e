"""Tests for the rebalance policy: pure, deterministic, greedy."""

from repro.crypto.rng import DeterministicRandom
from repro.fabric.balancer import (
    JOIN_WEIGHT,
    MIN_GAP,
    REKEY_WEIGHT,
    RebalancePolicy,
)
from repro.fabric.directory import GroupDirectory
from repro.telemetry.metrics import MetricsRegistry


def make_fabric(placements: dict[str, str]) -> GroupDirectory:
    """A directory with exact, hand-picked placements."""
    shards = sorted(set(placements.values()))
    fabric = GroupDirectory(shards, rng=DeterministicRandom(0))
    for group_id, shard in sorted(placements.items()):
        record = fabric.create_group(group_id)
        if record.shard_id != shard:
            fabric.move(group_id, shard)
    return fabric


def rates(metrics: MetricsRegistry, **per_group: float) -> MetricsRegistry:
    for group_id, rate in per_group.items():
        metrics.gauge("fabric_join_rate", group=group_id).set(rate)
    return metrics


class TestLoadModel:
    def test_idle_group_contributes_unit_load(self):
        policy = RebalancePolicy()
        assert policy.group_load("grp-x", MetricsRegistry()) == 1.0

    def test_join_rate_and_rekey_latency_weigh_in(self):
        metrics = rates(MetricsRegistry(), **{"grp-x": 2.0})
        metrics.histogram(
            "fabric_rekey_latency", group="grp-x"
        ).record(0.5)
        policy = RebalancePolicy()
        load = policy.group_load("grp-x", metrics)
        assert load == 1.0 + JOIN_WEIGHT * 2.0 + REKEY_WEIGHT * 0.5
        assert load == 5.5

    def test_shard_loads_sum_hosted_groups(self):
        fabric = make_fabric({
            "grp-0": "s0", "grp-1": "s0", "grp-2": "s1",
        })
        policy = RebalancePolicy()
        loads = policy.shard_loads(fabric, MetricsRegistry())
        assert loads == {"s0": 2.0, "s1": 1.0}


class TestPropose:
    def test_balanced_fabric_proposes_nothing(self):
        fabric = make_fabric({
            "grp-0": "s0", "grp-1": "s0",
            "grp-2": "s1", "grp-3": "s1",
        })
        policy = RebalancePolicy()
        assert policy.propose(fabric, MetricsRegistry()) == []
        # A gap just under MIN_GAP is balanced too.
        metrics = rates(MetricsRegistry(), **{"grp-0": 0.2})
        loads = policy.shard_loads(fabric, metrics)
        assert loads["s0"] - loads["s1"] < MIN_GAP
        assert policy.propose(fabric, metrics) == []

    def test_skew_produces_a_gap_shrinking_move(self):
        fabric = make_fabric({
            "grp-0": "s0", "grp-1": "s0", "grp-2": "s0", "grp-3": "s0",
            "grp-4": "s1",
        })
        policy = RebalancePolicy()
        proposals = policy.propose(fabric, MetricsRegistry())
        assert len(proposals) == 1
        move = proposals[0]
        assert move.source == "s0" and move.target == "s1"
        # 4 vs 1 -> 3 vs 2: the projected gap shrank from 3 to 1.
        assert move.projected_gap == 1.0
        assert "gap" in move.reason

    def test_hot_group_is_the_best_move_when_it_fits(self):
        """The policy picks the move that shrinks the gap most — here
        the hot group (load 3), because enough load stays behind."""
        fabric = make_fabric({
            "grp-hot": "s0", "grp-a": "s0", "grp-b": "s0",
            "grp-c": "s0", "grp-x": "s1",
        })
        metrics = rates(MetricsRegistry(), **{"grp-hot": 1.0})
        policy = RebalancePolicy()
        proposals = policy.propose(fabric, metrics)
        assert [p.group_id for p in proposals] == ["grp-hot"]

    def test_overshooting_move_is_passed_over_for_a_smaller_one(self):
        """Moving the hot group would flip the imbalance; the policy
        moves an idle neighbour instead."""
        fabric = make_fabric({
            "grp-idle": "s0", "grp-hot": "s0", "grp-x": "s1",
        })
        metrics = rates(MetricsRegistry(), **{"grp-hot": 3.0})
        policy = RebalancePolicy()
        proposals = policy.propose(fabric, metrics)
        assert [p.group_id for p in proposals] == ["grp-idle"]

    def test_no_proposal_when_moving_would_flip_the_gap(self):
        """One huge group on the hot shard: moving it just swaps which
        shard is overloaded, so the greedy test refuses."""
        fabric = make_fabric({"grp-big": "s0", "grp-x": "s1"})
        metrics = rates(MetricsRegistry(), **{"grp-big": 5.0})
        policy = RebalancePolicy()
        assert policy.propose(fabric, metrics) == []

    def test_max_proposals_caps_the_plan(self):
        """Eight groups against one: several moves would help, one is
        proposed (migrations are not free)."""
        placements = {f"grp-{i}": "s0" for i in range(8)}
        placements["grp-z"] = "s1"
        fabric = make_fabric(placements)
        policy = RebalancePolicy()
        assert len(policy.propose(fabric, MetricsRegistry())) == 1

    def test_deterministic_under_injected_rng(self):
        placements = {f"grp-{i}": f"s{i % 3}" for i in range(9)}
        placements["grp-hot"] = "s0"
        fabric_a = make_fabric(placements)
        fabric_b = make_fabric(placements)
        metrics = rates(MetricsRegistry(), **{"grp-hot": 2.5})
        run_a = RebalancePolicy(
            rng=DeterministicRandom(11).fork("balancer")
        ).propose(fabric_a, metrics)
        run_b = RebalancePolicy(
            rng=DeterministicRandom(11).fork("balancer")
        ).propose(fabric_b, metrics)
        assert run_a == run_b
        assert run_a, "the skewed fabric must produce proposals"

    def test_single_shard_fabric_never_proposes(self):
        fabric = make_fabric({"grp-0": "s0", "grp-1": "s0"})
        policy = RebalancePolicy()
        assert policy.propose(fabric, MetricsRegistry()) == []
