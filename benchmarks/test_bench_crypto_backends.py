"""CRYPTO: pluggable-backend benchmark gate (BENCH_crypto.json).

Two promises from PR 10, measured and enforced:

* The ``fast`` backend is *worth having*: bulk frame sealing at least
  ``MIN_SPEEDUP``x the from-scratch reference (gated only when the
  ``cryptography`` AES is importable — on a bare interpreter the fast
  backend still accelerates hashing but cannot hit 10x on AEAD, so the
  ratio is recorded and the assertion skips gracefully).
* The provider seam is *free*: routing the reference backend through
  the provider indirection costs at most ``MAX_INDIRECTION`` over
  calling the pure primitives directly (the seed code path).

Alongside the gates, the artifact records per-backend handshake and
rekey throughput so protocol-level numbers can be normalized by crypto
cost across revisions, and ``fast_primitives``: the fast backend's MAC
and one-time-CTR kernels in µs per call, each beside the stdlib
``hmac.new`` / ``Cipher(...)`` call it replaced, and the ratio of the
two — the number that does not move with the box's load.  Two revert
sentinels ride on it: the provider's one-shot HMAC is no slower than
stdlib's, and its one-time CTR context (built by the OpenSSL
constructor, ``fast_ctr_direct``) no slower than a ``Cipher`` object's.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import hmac as std_hmac
import time

import pytest

from conftest import build_itgm_group, write_bench_record
from repro.crypto.aes import AES
from repro.crypto.mac import HMACSHA256
from repro.crypto.modes import ctr_transform
from repro.crypto.provider import available_backends, get_provider, using_provider
from repro.crypto.rng import DeterministicRandom
from repro.dataplane.ratchet import _LABELS as CHAIN_LABELS

REPEATS = 5
BULK_FRAMES = 120
PAYLOAD_LEN = 256
JOIN_MEMBERS = 4
REKEYS = 3
#: fast backend must seal bulk frames at least this many times faster.
MIN_SPEEDUP = 10.0
#: provider indirection on the reference backend must cost at most this.
MAX_INDIRECTION = 1.02
#: calls per timed arm of the fast-primitive block.
PRIMITIVE_CALLS = 2000

BACKENDS = sorted(available_backends())


@contextlib.contextmanager
def _gc_pinned():
    """Collector parked during a timed region (a cycle collection in
    one arm but not the other would dwarf a sub-2% effect)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _interleaved_best(entries, measure) -> dict[str, float]:
    """Best-of-REPEATS per entry, arms interleaved and alternating order
    each repeat so clock drift and frequency scaling hit both equally."""
    best = {entry: float("inf") for entry in entries}
    for attempt in range(REPEATS):
        order = list(entries) if attempt % 2 == 0 else list(entries)[::-1]
        for entry in order:
            best[entry] = min(best[entry], measure(entry, attempt))
    return best


def _bulk_jobs(attempt: int):
    rng = DeterministicRandom(1000 + attempt)
    enc_key, mac_key = rng.random_bytes(16), rng.random_bytes(32)
    jobs = [(rng.random_bytes(8), rng.random_bytes(PAYLOAD_LEN), b"bench")
            for _ in range(BULK_FRAMES)]
    return enc_key, mac_key, jobs


def _bulk_seal_once(backend: str, attempt: int) -> float:
    """Seconds to seal_many + open_many one bulk flush."""
    enc_key, mac_key, jobs = _bulk_jobs(attempt)
    with using_provider(backend) as provider:
        provider.seal_many(enc_key, mac_key, jobs[:2])  # warm key cache
        with _gc_pinned():
            start = time.perf_counter()
            sealed = provider.seal_many(enc_key, mac_key, jobs)
            opened = provider.open_many(enc_key, mac_key, [
                (nonce, ct, tag, ad)
                for (nonce, _, ad), (ct, tag) in zip(jobs, sealed)
            ])
            elapsed = time.perf_counter() - start
    assert all(got == job[1] for got, job in zip(opened, jobs))
    return elapsed


def _indirection_best() -> dict[str, float]:
    """Reference sealing, ``routed`` through the provider seam vs the
    pure primitives called ``direct`` (the seed's inline code path).

    A sub-2% effect on ~1.5 ms frames cannot be read off two long
    timed windows — CPU frequency drift across a window swamps it.
    Each frame is instead sealed by *both* arms back to back (order
    alternating), per-arm times accumulated separately, so drift lands
    on both arms equally; best-of-REPEATS as usual.
    """
    enc_key, mac_key, jobs = _bulk_jobs(0)
    best = {"routed": float("inf"), "direct": float("inf")}
    with using_provider("reference") as provider:
        cipher = AES(enc_key)
        keyed_mac = HMACSHA256(mac_key)

        def direct_one(nonce, plaintext, ad):
            ciphertext = ctr_transform(cipher, nonce, plaintext)
            header = len(ad).to_bytes(4, "big") + ad
            mac = keyed_mac.copy()
            mac.update(header + nonce + ciphertext)
            return ciphertext, mac.digest()

        def routed_one(nonce, plaintext, ad):
            # reuse=True: ``direct`` holds one expanded AES and one keyed
            # HMAC for the whole run, so the like-for-like routed call is
            # the long-lived-key path.  The one-shot default re-expands
            # both keys per frame, which is key lifetime, not
            # indirection.
            return provider.seal(enc_key, mac_key, nonce, plaintext, ad,
                                 reuse=True)

        assert direct_one(*jobs[0]) == routed_one(*jobs[0])  # and warm
        clock = time.perf_counter
        with _gc_pinned():
            for attempt in range(REPEATS):
                t_direct = t_routed = 0.0
                for i, job in enumerate(jobs):
                    pair = ((direct_one, routed_one) if (i + attempt) % 2
                            else (routed_one, direct_one))
                    start = clock()
                    pair[0](*job)
                    mid = clock()
                    pair[1](*job)
                    end = clock()
                    if pair[0] is direct_one:
                        t_direct += mid - start
                        t_routed += end - mid
                    else:
                        t_routed += mid - start
                        t_direct += end - mid
                best["direct"] = min(best["direct"], t_direct)
                best["routed"] = min(best["routed"], t_routed)
    return best


def _fast_primitives_best() -> dict[str, dict[str, float]]:
    """µs per call of each fast-backend kernel (``provider``) and of the
    stdlib ``hmac.new`` or ``cryptography`` ``Cipher(...)`` call it
    replaced (``replaced``), every arm interleaved with every other,
    best of REPEATS."""
    rng = DeterministicRandom(77)
    key, kept_key, data = (rng.random_bytes(32), rng.random_bytes(32),
                           rng.random_bytes(100))
    enc_key, nonce = rng.random_bytes(16), rng.random_bytes(8)
    sha256 = hashlib.sha256
    with using_provider("fast") as provider:
        kernels = {
            "hmac_one_shot": (
                lambda: provider.hmac_sha256(key, data),
                lambda: std_hmac.new(key, data, sha256).digest(),
            ),
            "hmac_kept_key": (
                lambda: provider.hmac_sha256(kept_key, data, reuse=True),
                lambda: std_hmac.new(kept_key, data, sha256).digest(),
            ),
            "chain_step_3_labels": (
                lambda: provider.hmac_sha256_many(key, CHAIN_LABELS),
                lambda: [std_hmac.new(key, label, sha256).digest()
                         for label in CHAIN_LABELS],
            ),
        }
        if provider.aes_backend == "cryptography":
            from cryptography.hazmat.primitives.ciphers import (
                Cipher,
                algorithms,
                modes,
            )

            def ctr_before():
                context = Cipher(algorithms.AES(enc_key),
                                 modes.CTR(nonce + bytes(8))).encryptor()
                return context.update(data) + context.finalize()

            kernels["ctr_one_time"] = (
                lambda: provider.ctr_transform(enc_key, nonce, data),
                ctr_before,
            )
        arms = {}
        for name, (after, before) in kernels.items():
            assert after() == before()  # same bytes, and warm
            arms[(name, "provider")], arms[(name, "replaced")] = after, before

        def measure(arm, _attempt):
            call = arms[arm]
            with _gc_pinned():
                start = time.perf_counter()
                for _ in range(PRIMITIVE_CALLS):
                    call()
                return (time.perf_counter() - start) / PRIMITIVE_CALLS * 1e6

        best = _interleaved_best(list(arms), measure)
    return {name: {"provider": best[(name, "provider")],
                   "replaced": best[(name, "replaced")],
                   "ratio": best[(name, "provider")]
                   / best[(name, "replaced")]} for name in kernels}


def _handshake_once(backend: str, attempt: int) -> float:
    """Seconds for JOIN_MEMBERS full join handshakes."""
    with using_provider(backend):
        with _gc_pinned():
            start = time.perf_counter()
            net, leader, members = build_itgm_group(
                JOIN_MEMBERS, seed=attempt)
            elapsed = time.perf_counter() - start
    assert leader.members == sorted(members)
    return elapsed


def _rekey_once(backend: str, attempt: int) -> float:
    """Seconds for REKEYS full rekey rounds on a joined group."""
    with using_provider(backend):
        net, leader, members = build_itgm_group(JOIN_MEMBERS, seed=attempt)
        epoch = leader.group_epoch
        with _gc_pinned():
            start = time.perf_counter()
            for _ in range(REKEYS):
                net.post_all(leader.rekey_now())
                net.run()
            elapsed = time.perf_counter() - start
    assert leader.group_epoch == epoch + REKEYS
    return elapsed


def test_crypto_backend_gate():
    bulk = _interleaved_best(BACKENDS, _bulk_seal_once)
    indirection = _indirection_best()
    handshake = _interleaved_best(BACKENDS, _handshake_once)
    rekey = _interleaved_best(BACKENDS, _rekey_once)
    primitives = _fast_primitives_best()

    with using_provider("fast") as fast:
        fast_aes, fast_ctr_reuse = fast.aes_backend, fast.ctr_reuse
        fast_ctr_direct = fast.ctr_direct
    speedup = bulk["reference"] / bulk["fast"]
    indirection_ratio = indirection["routed"] / indirection["direct"]

    write_bench_record("crypto", {
        "backends": {
            name: {
                "bulk_seal_open_s": bulk[name],
                "bulk_frames_per_s": BULK_FRAMES / bulk[name],
                "handshakes_per_s": JOIN_MEMBERS / handshake[name],
                "rekeys_per_s": REKEYS / rekey[name],
            }
            for name in BACKENDS
        },
        "bulk_frames_per_measurement": BULK_FRAMES,
        "payload_len": PAYLOAD_LEN,
        "repeats": REPEATS,
        "fast_aes_backend": fast_aes,
        "fast_ctr_reuse": fast_ctr_reuse,
        "fast_ctr_direct": fast_ctr_direct,
        "fast_speedup_over_reference": speedup,
        "min_speedup_gate": MIN_SPEEDUP,
        "speedup_gate_enforced": fast_aes == "cryptography",
        "provider_indirection": {
            "routed_s": indirection["routed"],
            "direct_s": indirection["direct"],
            "ratio": indirection_ratio,
            "bound": MAX_INDIRECTION,
        },
        "fast_primitives": {
            "unit": "us_per_call",
            "calls_per_measurement": PRIMITIVE_CALLS,
            "kernels": primitives,
        },
    })

    one_shot = primitives["hmac_one_shot"]
    assert one_shot["provider"] <= one_shot["replaced"], (
        f"fast one-shot HMAC {one_shot['provider']:.2f} µs slower than "
        f"stdlib hmac.new {one_shot['replaced']:.2f} µs"
    )
    one_time = primitives.get("ctr_one_time")
    if one_time is not None:
        assert one_time["provider"] <= one_time["replaced"], (
            f"fast one-time CTR {one_time['provider']:.2f} µs slower than "
            f"a Cipher(...) object {one_time['replaced']:.2f} µs"
        )

    assert indirection_ratio <= MAX_INDIRECTION, (
        f"provider indirection {indirection_ratio:.4f} > {MAX_INDIRECTION}"
    )
    if fast_aes != "cryptography":
        pytest.skip(
            "cryptography AES unavailable: fast backend ran on the pure "
            f"block cipher (speedup {speedup:.1f}x recorded, gate skipped)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"fast backend only {speedup:.1f}x reference on bulk sealing "
        f"(gate: {MIN_SPEEDUP}x)"
    )
