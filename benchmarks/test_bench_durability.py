"""DUR: durability cost and recovery latency of the write-ahead journal.

Three paper-relevant numbers from the storage layer:

* **append overhead** — wall cost of the admin-broadcast hot path with
  the journal attached versus bare (the WAL tax on every mutation);
* **replay latency vs log length** — recovery is a linear scan, so the
  replay time must grow with the delta count and stay milliseconds at
  the sizes the soak produces; a delta holds what its flush appended,
  not the admin history, so **bytes per delta stay flat** as the log
  grows;
* **compaction bound** — with a compaction threshold the on-disk record
  count (and hence replay work) is bounded regardless of how many
  mutations ran.

All three are asserted and written to ``BENCH_durability.json`` so the
durability trajectory is part of the artifact history.
"""

from __future__ import annotations

import time

from conftest import build_itgm_group, write_bench_record
from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.itgm.admin import TextPayload
from repro.storage.journal import Journal
from repro.storage.recovery import replay_records
from repro.storage.simdisk import SimDisk

REPEATS = 3
BROADCAST_ROUNDS = 40
#: Delta counts for the replay-latency curve (compaction disabled).
LOG_LENGTHS = (16, 64, 256)
COMPACT_THRESHOLD = 16
#: Journaled hot path within 5x of bare (the per-mutation diff, JSON
#: encode, and seal dominate; measured ~1.8x).  The bound still trips
#: if appends degrade to full-snapshot writes.
MAX_APPEND_OVERHEAD = 5.0
#: Bytes per delta at the longest log over the shortest: a delta that
#: re-serialized its session's whole admin log measured 1.75x here.
MAX_DELTA_GROWTH = 1.25
#: The "before" row: this benchmark at commit 80bdba8, whose writer put
#: the touched session's whole admin log into every delta.
BEFORE_SUFFIX_DELTAS = {
    "commit": "80bdba8",
    "overhead_ratio": 3.1380865248649408,
    "replay_curve": [
        {"deltas": 16, "records": 21, "bytes": 42306},
        {"deltas": 64, "records": 66, "bytes": 144078},
        {"deltas": 256, "records": 261, "bytes": 863779},
    ],
}


def _journaled_group(n_members=4, seed=0, **journal_kw):
    net, leader, members = build_itgm_group(n_members, seed=seed)
    rng = DeterministicRandom(seed + 1000)
    disk = SimDisk(rng=rng.fork("disk"))
    key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
    journal = Journal(
        disk, "leader.wal", key, rng=rng.fork("seal"), **journal_kw
    )
    journal.attach(leader)
    return net, leader, members, journal, disk, key


def _broadcast_rounds(net, leader, rounds):
    start = time.perf_counter()
    for i in range(rounds):
        net.post_all(leader.broadcast_admin(TextPayload(f"m{i}")))
        net.run()
    return time.perf_counter() - start


def _grow_log(deltas, seed=0):
    """A journal holding ``deltas`` delta records (no compaction);
    returns ``(journal bytes, storage key, bytes of the base record)``."""
    net, leader, members, journal, disk, key = _journaled_group(
        seed=seed, compact_threshold=None,
    )
    base = journal.seq
    base_bytes = len(disk.read("leader.wal"))
    while journal.seq - base < deltas:
        net.post_all(leader.broadcast_admin(
            TextPayload(f"d{journal.seq}")))
        net.run()
    return disk.read("leader.wal"), key, base_bytes


def test_append_overhead_and_replay_curve():
    payload = {}

    # -- append overhead: journaled vs bare broadcast hot path -------
    bare = float("inf")
    journaled = float("inf")
    for attempt in range(REPEATS):
        net, leader, _ = build_itgm_group(4, seed=attempt)
        bare = min(bare, _broadcast_rounds(net, leader, BROADCAST_ROUNDS))
        net, leader, _, journal, disk, _ = _journaled_group(
            seed=attempt, compact_threshold=None)
        journaled = min(
            journaled, _broadcast_rounds(net, leader, BROADCAST_ROUNDS))
        assert journal.appends >= BROADCAST_ROUNDS
    overhead = journaled / bare
    payload["append"] = {
        "rounds": BROADCAST_ROUNDS,
        "bare_s": bare,
        "journaled_s": journaled,
        "overhead_ratio": overhead,
        "appends_per_s": BROADCAST_ROUNDS / journaled,
    }
    assert overhead < MAX_APPEND_OVERHEAD, \
        f"journal tax {overhead:.2f}x exceeds {MAX_APPEND_OVERHEAD}x"

    # -- replay latency vs log length --------------------------------
    curve = []
    for deltas in LOG_LENGTHS:
        data, key, base_bytes = _grow_log(deltas)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = replay_records(data, key)
            best = min(best, time.perf_counter() - start)
        assert not result.truncated
        # At least the asked-for deltas plus the base snapshot (member
        # acks journal too, so a broadcast round adds several records).
        assert result.records >= deltas + 1
        curve.append({
            "deltas": deltas,
            "records": result.records,
            "bytes": len(data),
            "bytes_per_delta":
                (len(data) - base_bytes) / (result.records - 1),
            "replay_s": best,
        })
    payload["replay_curve"] = curve
    # Linear scan: 16x the log must not replay faster than the shortest.
    assert curve[-1]["replay_s"] >= curve[0]["replay_s"]
    # A delta costs what changed, however much history precedes it.
    growth = curve[-1]["bytes_per_delta"] / curve[0]["bytes_per_delta"]
    payload["delta_growth"] = {
        "from_deltas": LOG_LENGTHS[0],
        "to_deltas": LOG_LENGTHS[-1],
        "bytes_per_delta_ratio": growth,
    }
    assert growth <= MAX_DELTA_GROWTH, \
        f"bytes per delta grew {growth:.2f}x with log length"

    # -- compaction bounds replay ------------------------------------
    net, leader, _, journal, disk, key = _journaled_group(
        compact_threshold=COMPACT_THRESHOLD)
    _broadcast_rounds(net, leader, max(LOG_LENGTHS))
    data = disk.read("leader.wal")
    start = time.perf_counter()
    result = replay_records(data, key)
    compacted_replay = time.perf_counter() - start
    assert result.records <= COMPACT_THRESHOLD + 1
    payload["compaction"] = {
        "mutations": max(LOG_LENGTHS),
        "threshold": COMPACT_THRESHOLD,
        "records_on_disk": result.records,
        "compactions": journal.compactions,
        "bytes": len(data),
        "replay_s": compacted_replay,
    }
    # Replaying the compacted log is cheaper than the longest raw log.
    assert result.records < max(LOG_LENGTHS)

    payload["before_suffix_deltas"] = BEFORE_SUFFIX_DELTAS
    write_bench_record("durability", payload)
