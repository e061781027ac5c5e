"""PERF-DATA: data-plane throughput + ratchet overhead gate.

Three measurements, written to ``BENCH_dataplane.json``:

* **Throughput** — end-to-end seal→open frames/second through the
  ratcheted :class:`DataChannel` pair at a 1 KiB payload (the size
  where AES-CTR, not chain bookkeeping, should dominate).

* **Ratchet overhead** — the same seal→open loop on the plain
  :class:`GroupKeyChannel` baseline, interleaved best-of with the
  ratcheted arm.  The ratchet buys per-message forward secrecy with
  three HMACs per chain position plus replay accounting, and pays for a
  fresh cipher per frame where the baseline's one long-lived key keeps
  its own.  The gate is per backend (see ``MAX_OVERHEAD``); the record
  names the backend that produced it, and docs/architecture.md carries
  the measured caveat beside its "use the ratchet everywhere" guidance.

* **Skip-window hit rate** — delivery in seq-reversed batches (the
  worst in-window disorder) must recover every frame from the skip
  store, no evictions.  This is the property the reliability layer
  leans on when NACK refills arrive late.
"""

from __future__ import annotations

import contextlib
import gc
import time

from conftest import write_bench_record
from repro.crypto.keys import KEY_LEN, GroupKey
from repro.crypto.provider import get_provider
from repro.dataplane.channel import DataChannel, GroupKeyChannel

REPEATS = 7
FRAMES = 400
PAYLOAD = b"\xa5" * 1024
#: The acceptance bound on ratcheted / group-key seal→open time, by
#: whether the backend keeps a CTR context per long-lived key.
#:
#: * Without kept contexts (``reference``, which is what CI's
#:   ``dataplane`` job runs, and ``fast`` without ``cryptography``) both
#:   arms build their cipher per frame and the ratchet's extra is its
#:   HMACs: 2.0, as since this gate was written (measured 1.29 with a
#:   chain step's three HMACs under one key schedule, 1.37 with one
#:   schedule each, 1.58 before the message keys came straight off the
#:   chain).
#: * With them (``fast`` + ``cryptography``) the baseline's single
#:   long-lived key re-arms one context (~1 µs) while every one-time key
#:   must build its own (~15–22 µs, twice per seal→open) — that build is
#:   the floor of per-message keys on this backend, not ratchet
#:   overhead that can be optimised away.  Keeping contexts made the
#:   baseline 2.4x faster (13,669 → 32,837 frames/s) and the ratchet arm
#:   1.5x faster (8,547 → 12,920), so the ratio reads 2.54 where it read
#:   1.60: a faster denominator, not a slower ratchet.  3.5 keeps the
#:   headroom 2.0 had over 1.6.
MAX_OVERHEAD = {False: 2.0, True: 3.5}
#: Out-of-order batch size for the skip-store measurement — must stay
#: inside the default window so nothing is shed.
SHUFFLE_SPAN = 16

KEY = GroupKey(b"\x5c" * KEY_LEN)

ENTRIES = ("ratchet", "group_key")


@contextlib.contextmanager
def _gc_pinned():
    """Collector parked during a timed region, as in the other gates:
    a cycle collection landing inside one arm but not the other would
    swamp the ratio under measurement."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _pair(entry: str):
    cls = DataChannel if entry == "ratchet" else GroupKeyChannel
    alice, bob = cls("alice"), cls("bob")
    alice.rebind(KEY, 1)
    bob.rebind(KEY, 1)
    return alice, bob


def _seal_open_once(entry: str, attempt: int) -> float:
    """Seconds to push FRAMES payloads sender→receiver through one
    freshly bound channel pair of the given flavour."""
    alice, bob = _pair(entry)
    with _gc_pinned():
        start = time.perf_counter()
        for _ in range(FRAMES):
            _, env = alice.seal(PAYLOAD, "leader")
            bob.open(env)
        elapsed = time.perf_counter() - start
    assert bob.delivered == FRAMES and bob.shed == 0
    return elapsed


def _interleaved_best() -> dict[str, float]:
    """Best-of-REPEATS per arm, interleaved and alternating order each
    repeat so clock drift and frequency scaling hit both equally."""
    best = {entry: float("inf") for entry in ENTRIES}
    for attempt in range(REPEATS):
        order = ENTRIES if attempt % 2 == 0 else ENTRIES[::-1]
        for entry in order:
            best[entry] = min(best[entry], _seal_open_once(entry, attempt))
    return best


def _skip_window_rate() -> dict:
    """Deliver FRAMES frames in seq-reversed batches of SHUFFLE_SPAN
    and report how the skip store absorbed the disorder."""
    alice, bob = _pair("ratchet")
    frames = [alice.seal(PAYLOAD, "leader")[1] for _ in range(FRAMES)]
    for base in range(0, FRAMES, SHUFFLE_SPAN):
        for env in reversed(frames[base:base + SHUFFLE_SPAN]):
            bob.open(env)
    stats = bob.skip_stats()
    assert bob.delivered == FRAMES and bob.shed == 0
    assert stats["skips_evicted"] == 0
    assert stats["skip_hits"] == stats["skips_banked"] > 0
    return {
        "frames": FRAMES,
        "shuffle_span": SHUFFLE_SPAN,
        "hit_rate": stats["skip_hits"] / FRAMES,
        **stats,
    }


def test_dataplane_bench_gate():
    provider = get_provider()
    bound = MAX_OVERHEAD[provider.ctr_reuse]
    best = _interleaved_best()
    ratio = best["ratchet"] / best["group_key"]
    throughput = FRAMES / best["ratchet"]
    skip = _skip_window_rate()

    write_bench_record("dataplane", {
        "backend": provider.name,
        "aes_backend": provider.aes_backend,
        "ctr_reuse": provider.ctr_reuse,
        "bound": bound,
        "frames_per_measurement": FRAMES,
        "payload_bytes": len(PAYLOAD),
        "repeats": REPEATS,
        "ratchet_s": best["ratchet"],
        "group_key_s": best["group_key"],
        "ratio": ratio,
        "throughput_frames_per_s": throughput,
        "group_key_frames_per_s": FRAMES / best["group_key"],
        "skip_window": skip,
    })

    assert ratio <= bound, (
        f"ratchet seal/open overhead {ratio:.4f} > {bound} "
        f"({provider.name}, ctr_reuse={provider.ctr_reuse})"
    )
    assert throughput > 0
