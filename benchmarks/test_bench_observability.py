"""PERF-O: phase-profile attribution and disabled-observability overhead.

Two halves of one gate, written to ``BENCH_observability.json``:

* **Attribution** — the seeded quorum-on-fabric workload ``repro obs``
  drives (joins, a sealed app round, a certified rekey, all through the
  shard's ``enqueue``/``pump`` intake) run under a
  :class:`~repro.observability.PhaseProfiler` on its own virtual clock.
  Every expected hot-path phase must appear, nested under the shard's
  ``demux`` where the call actually happens; ``demux`` must cover more
  frames than calls (a pumped batch was attributed on the path
  production takes); and the deterministic tick totals are committed so
  attribution drift across revisions shows up in review.
* **Disabled overhead** — with no profiler bound and no subscribers,
  the shard entry point (``handle``: the one-frame flush, with its stats
  bump, run coalescing and profiler guard) must stay within 2% of the
  pieces it is made of — ``_route`` then ``GroupLeader.handle``,
  composed here — measured on full join and rekey rounds through the
  fabric.  Same interleaved best-of discipline as the telemetry bench.
"""

from __future__ import annotations

import time

from conftest import write_bench_record
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.member import MemberState
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.shard import ShardHost
from repro.observability import PhaseProfiler
from repro.quorum.fabric import obs_scenario
from repro.storage.simdisk import SimDisk
from repro.telemetry.events import EventBus
from repro.util.clock import TickClock

REPEATS = 5
REKEY_ROUNDS = 8
MEMBER_IDS = ("alice", "bob", "carol")
#: The acceptance bound: observability-disabled hot path within 2%.
MAX_OVERHEAD = 1.02

#: Leaf phases the quorum-on-fabric workload must attribute time to.
EXPECTED_LEAVES = (
    "seal", "open", "demux", "certify", "wal.append", "multicast",
)

ENTRIES = ("bare", "handle")


def _profiled_scenario(seed: int = 7) -> PhaseProfiler:
    """The ``repro obs`` workload under a deterministic profiler."""
    profiler = PhaseProfiler(TickClock())
    # No subscribers: the telemetry guards stay falsy.
    obs_scenario(seed, EventBus(), profiler=profiler)
    return profiler


def _bare(shard: ShardHost):
    """``handle`` minus the flush: route one frame, hand it over."""
    def entry(envelope):
        delivery, out, events = shard._route(envelope)
        if delivery is None:
            return out, events
        leader, inner = delivery
        return leader.handle(inner)
    return entry


def _fabric_stack(entry: str, seed: int):
    """A fabric group whose shard is wired through ``entry`` —
    ``"bare"`` (:func:`_bare`) or ``"handle"`` (the flush)."""
    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    fabric = GroupDirectory(["shard-a"], rng=rng.fork("directory"))
    shard = ShardHost(
        "shard-a", SimDisk(rng=rng.fork("disk")), rng=rng.fork("shard"),
    )
    net.register(
        "shard-a", shard.handle if entry == "handle" else _bare(shard)
    )
    group_id = "grp-bench"
    record = fabric.create_group(group_id)
    users = UserDirectory()
    shard.host_group(group_id, users, storage_key=record.storage_key)
    members = {}
    for uid in MEMBER_IDS:
        creds = users.register_password(uid, f"pw-{uid}")
        fm = FabricMember(creds, group_id, fabric, rng=rng.fork(uid))
        members[uid] = fm
        wire(net, uid, fm)
    return net, shard, group_id, members


def _interleaved_best(measure) -> dict[str, float]:
    best = {entry: float("inf") for entry in ENTRIES}
    for attempt in range(REPEATS):
        order = ENTRIES if attempt % 2 == 0 else ENTRIES[::-1]
        for entry in order:
            best[entry] = min(best[entry], measure(entry, attempt))
    return best


def _joins_once(entry: str, attempt: int) -> float:
    net, shard, group_id, members = _fabric_stack(entry, seed=attempt)
    start = time.perf_counter()
    for fm in members.values():
        net.post_all(fm.start_join())
        net.run()
    elapsed = time.perf_counter() - start
    assert all(fm.protocol.state is MemberState.CONNECTED
               for fm in members.values())
    return elapsed


def _rekeys_once(entry: str, attempt: int) -> float:
    net, shard, group_id, members = _fabric_stack(entry, seed=attempt)
    for fm in members.values():
        net.post_all(fm.start_join())
        net.run()
    leader = shard.leader(group_id)
    start = time.perf_counter()
    for _ in range(REKEY_ROUNDS):
        net.post_all(leader.rekey_now())
        net.run()
    elapsed = time.perf_counter() - start
    epochs = {fm.protocol.group_epoch for fm in members.values()}
    assert epochs == {leader.group_epoch}
    return elapsed


def test_phase_attribution_and_disabled_overhead():
    # -- attribution (deterministic: TickClock on both axes) -------------
    profiler = _profiled_scenario(seed=7)
    phases = profiler.phases()
    leaves = {path.split("/")[-1] for path in phases}
    missing = [name for name in EXPECTED_LEAVES if name not in leaves]
    assert not missing, f"phases never attributed: {missing}"
    # The nested paths prove attribution flows through the demux: the
    # hosted leader's work lands *under* the shard's phase.
    assert any(path.startswith("demux/") for path in phases), (
        f"no phase nested under demux: {sorted(phases)}"
    )
    assert phases["demux"]["frames"] > phases["demux"]["calls"], (
        f"no pumped batch was attributed: {phases['demux']}"
    )
    total = profiler.total()
    assert total > 0.0

    # -- disabled overhead ------------------------------------------------
    handshake = _interleaved_best(_joins_once)
    rekey = _interleaved_best(_rekeys_once)
    handshake_ratio = handshake["handle"] / handshake["bare"]
    rekey_ratio = rekey["handle"] / rekey["bare"]

    write_bench_record("observability", {
        "bound": MAX_OVERHEAD,
        "profile": {
            "workload": "quorum-on-fabric join + app + certified rekey, "
                        "through enqueue/pump",
            "seed": 7,
            "clock": "TickClock(step=1)",
            "total_ticks": total,
            "phases": profiler.as_dict()["phases"],
        },
        "disabled_overhead": {
            "join": {
                "seed_s": handshake["bare"],
                "instrumented_disabled_s": handshake["handle"],
                "ratio": handshake_ratio,
                "joins_per_measurement": len(MEMBER_IDS),
            },
            "rekey": {
                "seed_s": rekey["bare"],
                "instrumented_disabled_s": rekey["handle"],
                "ratio": rekey_ratio,
                "rounds_per_measurement": REKEY_ROUNDS,
            },
            "repeats": REPEATS,
        },
    })

    assert handshake_ratio <= MAX_OVERHEAD, (
        f"join overhead {handshake_ratio:.4f} > {MAX_OVERHEAD}"
    )
    assert rekey_ratio <= MAX_OVERHEAD, (
        f"rekey overhead {rekey_ratio:.4f} > {MAX_OVERHEAD}"
    )
