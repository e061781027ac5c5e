"""PERF-R: overload-machinery disabled overhead + soak shed fairness.

Two halves of one gate, written to ``BENCH_overload.json``:

* **Disabled overhead** — the overload machinery ships behind no-op
  defaults, and the contract is that the defaults are (nearly) free.
  Each guarded hot path is timed against an unguarded comparator the
  bench composes from the pieces production runs:

  - journal shipping fan-out: ``_on_record`` (one ``breaker_config is
    None`` branch) vs a bare loop over ``shipper.followers`` calling
    ``receive`` + ``_note_shipped``;
  - fabric redirect chase: ``_on_redirect`` (one ``retry_budget is
    None`` branch) vs ``parse_redirect`` + ``refresh_route`` +
    ``retransmit_last`` (or ``reset_for_rejoin`` + ``start_join``).

  Each pair must stay within 2%, measured with the same interleaved
  best-of discipline as the telemetry and observability benches.

* **Shed fairness** — one protected run of the seeded overload soak
  (flooding insider + join surge).  The shed pain must land on the
  flooder: honest members absorb at most 5% of all sheds, and the
  protected stack's honest join p99 stays inside the SLO the
  unprotected baseline violates.
"""

from __future__ import annotations

import contextlib
import gc
import time

from conftest import write_bench_record
from repro.crypto.keys import KEY_LEN, KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol, MemberState
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.shard import parse_redirect, redirect_envelope
from repro.overload.soak import OverloadConfig, run_overload_soak
from repro.storage.journal import Journal
from repro.storage.shipping import JournalFollower, JournalShipper
from repro.storage.simdisk import SimDisk

REPEATS = 7
MUTATIONS = 50
FOLLOWERS = 3
REDIRECTS = 1500
#: The acceptance bound: overload-disabled hot paths within 2% of the
#: unguarded comparators.
MAX_OVERHEAD = 1.02
#: Honest members may absorb at most this fraction of all sheds.
SHED_HONEST_FRACTION = 0.05

#: ``bare`` is the bench-composed comparator, the other the production
#: entry point.
SHIP_ENTRIES = ("bare", "_on_record")
CHASE_ENTRIES = ("bare", "_on_redirect")

SOAK_CONFIG = OverloadConfig(seed=7, duration=8.0, surge_at=4.0,
                             flood_until=7.0)


@contextlib.contextmanager
def _gc_pinned():
    """Collector parked during a timed region: a cycle collection
    landing inside one arm but not the other would dwarf the sub-2%
    effect under measurement."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _interleaved_best(entries, measure) -> dict[str, float]:
    """Best-of-REPEATS per entry point, the two arms interleaved and
    alternating order each repeat so clock drift and frequency scaling
    hit both equally."""
    best = {entry: float("inf") for entry in entries}
    for attempt in range(REPEATS):
        order = entries if attempt % 2 == 0 else entries[::-1]
        for entry in order:
            best[entry] = min(best[entry], measure(entry, attempt))
    return best


def _ship_once(entry: str, attempt: int) -> float:
    """Seconds to run MUTATIONS journaled admin broadcasts with the
    journal's record hook bound to ``entry`` — ``bare`` is the
    unguarded fan-out, ``_on_record`` adds the breaker guard (left at
    its no-op default here)."""
    rng = DeterministicRandom(attempt)
    net = SyncNetwork()
    directory = UserDirectory()
    creds = directory.register_password("alice", "pw")
    leader = GroupLeader("mgr-0", directory, rng=rng.fork("leader"))
    wire(net, "mgr-0", leader)
    member = MemberProtocol(creds, "mgr-0", rng.fork("alice"))
    wire(net, "alice", member)
    key = KeyMaterial(rng.fork("storage").key_material(KEY_LEN))
    journal = Journal(
        SimDisk(rng=rng.fork("disk")), "mgr-0.wal", key,
        rng=rng.fork("seal"), node="mgr-0",
    )
    shipper = JournalShipper(journal)
    if entry == "bare":
        def ship_all(record, seq, kind):
            for follower in shipper.followers:
                follower.receive(record, seq, kind)
                shipper._note_shipped(follower, seq)

        shipper.detach()
        journal.subscribe_records(ship_all)
    followers = [
        JournalFollower(f"standby-{i}", key) for i in range(FOLLOWERS)
    ]
    for follower in followers:
        shipper.add_follower(follower)
    journal.attach(leader)
    net.post(member.start_join())
    net.run()
    with _gc_pinned():
        start = time.perf_counter()
        for _ in range(MUTATIONS):
            net.post_all(leader.broadcast_admin(TextPayload("t")))
            net.run()
        elapsed = time.perf_counter() - start
    assert all(f.applied_seq == f.offered_seq for f in followers)
    assert all(f.applied_seq >= MUTATIONS for f in followers)
    return elapsed


def _chase_once(entry: str, attempt: int) -> float:
    """Seconds to chase REDIRECTS redirect frames through ``entry`` on
    a default (no retry budget) fabric member."""
    rng = DeterministicRandom(attempt)
    fabric = GroupDirectory(["shard-0", "shard-1"], rng=rng.fork("d"))
    record = fabric.create_group("grp")
    users = UserDirectory()
    creds = users.register_password("alice", "pw")
    member = FabricMember(creds, "grp", fabric, rng=rng.fork("alice"))
    member.start_join()
    envelope = redirect_envelope(record.shard_id, "alice", "grp", None)

    def chase(envelope):
        parse_redirect(envelope)
        member.refresh_route()
        if member.protocol.state is MemberState.WAITING_FOR_KEY:
            return member.retransmit_last(), []
        member.reset_for_rejoin()
        return member.start_join(), []

    fn = chase if entry == "bare" else member._on_redirect
    with _gc_pinned():
        start = time.perf_counter()
        for _ in range(REDIRECTS):
            out = fn(envelope)
        elapsed = time.perf_counter() - start
    assert out[0]  # every redirect was chased
    assert member.chases_dropped == 0
    return elapsed


def test_overload_bench_gate():
    ship = _interleaved_best(SHIP_ENTRIES, _ship_once)
    chase = _interleaved_best(CHASE_ENTRIES, _chase_once)
    ship_ratio = ship["_on_record"] / ship["bare"]
    chase_ratio = chase["_on_redirect"] / chase["bare"]

    report = run_overload_soak(SOAK_CONFIG)
    protected = report.protected
    unprotected = report.unprotected

    write_bench_record("overload", {
        "bound": MAX_OVERHEAD,
        "shipping_fanout": {
            "seed_s": ship["bare"],
            "disabled_s": ship["_on_record"],
            "ratio": ship_ratio,
            "mutations_per_measurement": MUTATIONS,
            "followers": FOLLOWERS,
        },
        "redirect_chase": {
            "seed_s": chase["bare"],
            "disabled_s": chase["_on_redirect"],
            "ratio": chase_ratio,
            "redirects_per_measurement": REDIRECTS,
        },
        "repeats": REPEATS,
        "soak": {
            "seed": SOAK_CONFIG.seed,
            "duration_s": SOAK_CONFIG.duration,
            "protection_holds": report.protection_holds,
            "shed_honest_bound": SHED_HONEST_FRACTION,
            "protected": protected.as_dict(),
            "unprotected": unprotected.as_dict(),
        },
    })

    assert ship_ratio <= MAX_OVERHEAD, (
        f"shipping fan-out overhead {ship_ratio:.4f} > {MAX_OVERHEAD}"
    )
    assert chase_ratio <= MAX_OVERHEAD, (
        f"redirect chase overhead {chase_ratio:.4f} > {MAX_OVERHEAD}"
    )

    # Shed fairness: the pain lands on the flooder.
    assert report.protection_holds
    assert protected.frames_shed > 0
    assert protected.shed_flooder > protected.shed_honest
    assert (protected.shed_honest
            <= protected.frames_shed * SHED_HONEST_FRACTION)
    # And the protected stack keeps the SLO the baseline violates.
    assert protected.slo_met and not unprotected.slo_met
