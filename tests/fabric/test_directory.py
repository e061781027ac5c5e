"""Tests for the group directory: placement and versioned routing."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.exceptions import StateError
from repro.fabric.directory import GroupDirectory, HashRing
from repro.telemetry.events import DirectoryUpdated, EventBus

SHARDS = ["shard-a", "shard-b", "shard-c"]


def make_directory(telemetry=None, shards=None):
    return GroupDirectory(
        shards if shards is not None else list(SHARDS),
        rng=DeterministicRandom(3),
        telemetry=telemetry,
    )


class TestHashRing:
    def test_placement_is_a_pure_function_of_the_node_set(self):
        a = HashRing(("n0", "n1", "n2"))
        b = HashRing(("n2", "n0", "n1"))  # insertion order irrelevant
        keys = [f"grp-{i}" for i in range(64)]
        assert [a.locate(k) for k in keys] == [b.locate(k) for k in keys]

    def test_node_removal_moves_only_its_own_keys(self):
        ring = HashRing(("n0", "n1", "n2", "n3"))
        keys = [f"grp-{i}" for i in range(128)]
        before = {k: ring.locate(k) for k in keys}
        for key, owner in before.items():
            if owner != "n3":
                assert ring.locate(key, exclude=frozenset({"n3"})) == owner, \
                    "keys on surviving nodes must not move"

    def test_exclude_skips_draining_nodes(self):
        ring = HashRing(("n0", "n1"))
        key = "grp-x"
        owner = ring.locate(key)
        other = "n1" if owner == "n0" else "n0"
        assert ring.locate(key, exclude=frozenset({owner})) == other

    def test_no_eligible_node_is_loud(self):
        ring = HashRing(("n0",))
        with pytest.raises(StateError):
            ring.locate("grp-x", exclude=frozenset({"n0"}))

    def test_duplicate_add_is_loud(self):
        ring = HashRing(("n0",))
        with pytest.raises(StateError):
            ring.add("n0")


class TestGroupDirectory:
    def test_create_places_and_mints_a_key(self):
        fabric = make_directory()
        record = fabric.create_group("grp-0")
        assert record.shard_id in SHARDS
        assert record.version == fabric.version == 1
        assert record.storage_key.fingerprint()
        with pytest.raises(StateError):
            fabric.create_group("grp-0")

    def test_lookup_unknown_group_is_loud(self):
        fabric = make_directory()
        with pytest.raises(StateError):
            fabric.lookup("grp-nope")

    def test_stale_version_routes_with_redirected_flag(self):
        fabric = make_directory()
        record = fabric.create_group("grp-0")
        fresh = fabric.lookup("grp-0", record.version)
        assert not fresh.redirected

        target = next(s for s in SHARDS if s != record.shard_id)
        fabric.move("grp-0", target)
        stale = fabric.lookup("grp-0", record.version)
        assert stale.redirected
        assert stale.shard_id == target
        assert stale.version > record.version

    def test_move_validates_topology(self):
        fabric = make_directory()
        record = fabric.create_group("grp-0")
        with pytest.raises(StateError):
            fabric.move("grp-0", record.shard_id)  # no-op move
        with pytest.raises(StateError):
            fabric.move("grp-0", "shard-nope")
        # The storage key survives the move unchanged.
        target = next(s for s in SHARDS if s != record.shard_id)
        moved = fabric.move("grp-0", target)
        assert (moved.storage_key.fingerprint()
                == record.storage_key.fingerprint())

    def test_fail_shard_repoints_exactly_its_groups(self):
        fabric = make_directory()
        for i in range(12):
            fabric.create_group(f"grp-{i:02d}")
        before = fabric.placements()
        victim = max(fabric.load(), key=lambda s: (fabric.load()[s], s))
        version_before = fabric.version

        moved = fabric.fail_shard(victim)
        assert sorted(moved) == sorted(
            g for g, s in before.items() if s == victim
        )
        assert victim not in fabric.shard_ids
        after = fabric.placements()
        for group_id, shard in after.items():
            assert shard != victim
            if group_id not in moved:
                assert shard == before[group_id], \
                    "groups on survivors must not move"
        assert fabric.version == version_before + len(moved)
        with pytest.raises(StateError):
            fabric.move(moved[0], victim)  # failed shards take nothing

    def test_every_change_bumps_the_version_and_tells_telemetry(self):
        bus = EventBus()
        with bus.capture() as records:
            fabric = make_directory(telemetry=bus)
            record = fabric.create_group("grp-0")
            target = next(s for s in SHARDS if s != record.shard_id)
            fabric.move("grp-0", target)
            fabric.fail_shard(target)
        events = [r.event for r in records
                  if isinstance(r.event, DirectoryUpdated)]
        assert [e.change for e in events] == [
            "create", "move", "fail"
        ]
        assert [e.version for e in events] == [1, 2, 3]
        assert fabric.version == 3

    def test_load_counts_groups_per_serving_shard(self):
        fabric = make_directory()
        for i in range(9):
            fabric.create_group(f"grp-{i}")
        load = fabric.load()
        assert sorted(load) == sorted(SHARDS)
        assert sum(load.values()) == 9
        for shard in SHARDS:
            assert load[shard] == len(fabric.groups_on(shard))
