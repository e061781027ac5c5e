"""FAB: fabric-layer costs — demux throughput, join scaling, downtime.

Three numbers the fabric design argues about, measured:

* **demux throughput** — sealed app frames routed per second through
  one :class:`ShardHost` as the number of co-hosted groups grows.  The
  demux is a dict hop, so per-frame cost must not grow with group
  count (bounded ratio between the largest and smallest hosting).
* **join cost vs group count** — wire frames per §3.2 join must be
  *identical* however many groups the fabric hosts: the directory and
  the wrapper add routing, never handshake rounds.  Wall seconds ride
  along for the trajectory.
* **migration downtime in virtual time** — from a seeded soak with a
  live migration: virtual seconds between the directory flip and the
  migrated group's members all holding the new leader's key.

All three are asserted and written to ``BENCH_fabric.json`` (shared
artifact envelope, see ``schema.py``).
"""

from __future__ import annotations

import time

from conftest import write_bench_record
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import AppMessage, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.scale import CONVERGE_TIMEOUT, FabricConfig, run_fabric_soak
from repro.fabric.shard import ShardHost
from repro.storage.simdisk import SimDisk

REPEATS = 3
MEMBERS_PER_GROUP = 2
THROUGHPUT_GROUPS = (1, 4, 8)
THROUGHPUT_ROUNDS = 10
JOIN_GROUP_COUNTS = (1, 4, 16)
#: Demux is a dict lookup: per-frame cost at 8 co-hosted groups within
#: 3x of the single-group cost (generous — scheduler noise included).
MAX_DEMUX_SPREAD = 3.0


def _build_fabric(n_groups: int, seed: int):
    """One shard hosting ``n_groups`` groups, members wired but not
    yet joined."""
    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    fabric = GroupDirectory(["shard-0"], rng=rng.fork("directory"))
    host = ShardHost(
        "shard-0", SimDisk(rng=rng.fork("disk")), rng=rng.fork("host"),
    )
    wire(net, "shard-0", host)
    members = {}
    for g in range(n_groups):
        group_id = f"grp-{g:02d}"
        users = UserDirectory()
        record = fabric.create_group(group_id)
        host.host_group(group_id, users, storage_key=record.storage_key)
        for j in range(MEMBERS_PER_GROUP):
            uid = f"{group_id}.u{j}"
            creds = users.register_password(uid, f"pw-{uid}")
            fm = FabricMember(creds, group_id, fabric, rng=rng.fork(uid))
            members[uid] = fm
            wire(net, uid, fm)
    return net, host, members


def _join_all(net, members) -> None:
    for fm in members.values():
        net.post_all(fm.start_join())
        net.run()


def test_demux_throughput_vs_cohosted_groups():
    """Frames/s through one shard as co-hosting grows."""
    points = []
    for n_groups in THROUGHPUT_GROUPS:
        best = float("inf")
        for attempt in range(REPEATS):
            net, host, members = _build_fabric(n_groups, seed=attempt)
            _join_all(net, members)
            frames = n_groups * MEMBERS_PER_GROUP * THROUGHPUT_ROUNDS
            start = time.perf_counter()
            for round_no in range(THROUGHPUT_ROUNDS):
                for uid, fm in members.items():
                    net.post(fm.seal_app(f"{uid}|r{round_no}".encode()))
                    net.run()
            best = min(best, (time.perf_counter() - start) / frames)
            # Every sealed frame was demuxed to its own group's leader
            # and fanned out to the other member — no foreign rejects.
            assert host.stats.foreign_rejected == 0
            delivered = sum(
                len(net.events_of(uid, AppMessage)) for uid in members
            )
            assert delivered == frames * (MEMBERS_PER_GROUP - 1)
        points.append({
            "groups": n_groups,
            "members": n_groups * MEMBERS_PER_GROUP,
            "seconds_per_frame": best,
            "frames_per_s": 1.0 / best,
        })
    spread = (points[-1]["seconds_per_frame"]
              / points[0]["seconds_per_frame"])
    assert spread < MAX_DEMUX_SPREAD, (
        f"per-frame demux cost grew {spread:.2f}x from "
        f"{THROUGHPUT_GROUPS[0]} to {THROUGHPUT_GROUPS[-1]} groups"
    )
    write_bench_record("fabric", _payload(throughput={
        "rounds": THROUGHPUT_ROUNDS,
        "curve": points,
        "spread_ratio": spread,
        "max_spread": MAX_DEMUX_SPREAD,
    }))


def test_join_cost_vs_group_count():
    """Wire frames per join must not depend on how many groups exist."""
    points = []
    frames_per_join = set()
    for n_groups in JOIN_GROUP_COUNTS:
        best = float("inf")
        frames = None
        for attempt in range(REPEATS):
            net, host, members = _build_fabric(n_groups, seed=attempt)
            start = time.perf_counter()
            _join_all(net, members)
            best = min(best, (time.perf_counter() - start) / len(members))
            frames = len(net.wire_log) / len(members)
        frames_per_join.add(frames)
        points.append({
            "groups": n_groups,
            "joins": n_groups * MEMBERS_PER_GROUP,
            "seconds_per_join": best,
            "frames_per_join": frames,
        })
    assert len(frames_per_join) == 1, (
        f"handshake frame count varies with group count: "
        f"{sorted(frames_per_join)}"
    )
    write_bench_record("fabric", _payload(join_latency={
        "curve": points,
        "frames_per_join": frames_per_join.pop(),
    }))


def test_migration_downtime_virtual():
    """Downtime of a live migration, in virtual (simulated) seconds."""
    config = FabricConfig.full(
        seed=7, n_groups=4, n_shards=2, duration=30.0,
        rebalance_at=None, crash_shard_at=None,
    )
    report = run_fabric_soak(config)
    assert report.safe and report.isolated and report.converged
    assert report.migrations, "the soak must have performed a migration"
    assert report.migration_downtime is not None
    assert report.migration_downtime < CONVERGE_TIMEOUT
    write_bench_record("fabric", _payload(migration={
        "groups": config.n_groups,
        "shards": config.n_shards,
        "duration_virtual_s": config.duration,
        "downtime_virtual_s": report.migration_downtime,
        "redirects": report.redirects,
        "rejoins": report.rejoins,
        "moves": report.migrations,
    }))


# -- artifact assembly --------------------------------------------------------

#: The three benches each own one section; whichever runs last writes
#: the union, so a full ``pytest benchmarks/`` run commits all three.
_SECTIONS: dict = {}


def _payload(**section) -> dict:
    _SECTIONS.update(section)
    return dict(_SECTIONS)
