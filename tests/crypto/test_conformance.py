"""Differential conformance: every backend must be byte-identical.

The provider abstraction (PR 10) only holds if backends are perfectly
interchangeable — same bytes out for the same bytes in, same typed
errors on the same bad inputs.  This suite pins that down two ways:

* **Primitive-level**: seeded random inputs through every provider
  method, ``reference`` vs every other registered backend, compared
  byte-for-byte (including the batch ``seal_many``/``open_many`` forms
  against their one-at-a-time equivalents, and the kept-context path a
  long-lived key takes against the one-shot path).
* **Protocol-level**: a complete seeded group scenario (joins, app
  traffic, a rekey, a leave) replayed under each backend; the entire
  wire log — every envelope on the wire, in order — must be identical
  down to the last byte.

Nothing here knows how a backend is implemented; a future backend only
has to register itself to be held to the same contract.
"""

import random

import pytest

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import SessionKey
from repro.crypto.provider import (
    FastProvider,
    available_backends,
    get_provider,
    using_provider,
)
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import (
    CryptoError,
    IntegrityError,
    KeyError_,
    PaddingError,
)

REFERENCE = "reference"
OTHERS = sorted(set(available_backends()) - {REFERENCE})

pytestmark = pytest.mark.parametrize("other", OTHERS)


def providers(other):
    with using_provider(REFERENCE):
        ref = get_provider()
    with using_provider(other):
        alt = get_provider()
    return ref, alt


def cases(label, *shapes, n=12):
    """Seeded random byte tuples, one stream per (label, shape)."""
    rng = DeterministicRandom(f"conformance|{label}")
    return [tuple(rng.random_bytes(size) for size in shapes)
            for _ in range(n)]


class TestHashing:
    def test_sha256_one_shot(self, other):
        ref, alt = providers(other)
        rng = DeterministicRandom("conformance|sha")
        for size in (0, 1, 55, 56, 63, 64, 65, 1000, 4096):
            data = rng.random_bytes(size)
            assert ref.sha256(data) == alt.sha256(data)

    def test_sha256_incremental_split_points(self, other):
        ref, alt = providers(other)
        data = DeterministicRandom("conformance|sha-inc").random_bytes(300)
        for split in (0, 1, 64, 65, 150, 299, 300):
            h_ref = ref.sha256_new(data[:split])
            h_alt = alt.sha256_new(data[:split])
            h_ref.update(data[split:])
            h_alt.update(data[split:])
            assert h_ref.digest() == h_alt.digest() == ref.sha256(data)
            # A second digest() finds the state it left.
            assert h_ref.digest() == h_alt.digest()

    def test_hmac_all_key_lengths(self, other):
        ref, alt = providers(other)
        for key, data in cases("hmac", 20, 100) + cases("hmac-long", 64, 7) \
                + cases("hmac-oversize", 131, 50):
            assert ref.hmac_sha256(key, data) == alt.hmac_sha256(key, data)

    def test_hmac_reuse_and_many_match_one_shots(self, other):
        """A declared long-lived key (its HMAC state kept by a backend
        that keeps one) and a key keyed once for a batch give exactly the
        one-shot tags, hot or cold, on every backend."""
        ref, alt = providers(other)
        messages = [data for (data,) in cases("hmac-many", 40, n=5)]
        keys = cases("hmac-reuse", 32, n=2) + cases("hmac-reuse-long", 70, n=2)
        for (key,) in keys:
            want = [ref.hmac_sha256(key, data) for data in messages]
            for provider in (ref, alt):
                for _ in range(2):  # the second pass finds the key kept
                    assert [provider.hmac_sha256(key, data, reuse=True)
                            for data in messages] == want
                assert provider.hmac_sha256_many(key, messages) == want
                assert provider.hmac_sha256_many(key, []) == []

    def test_hmac_incremental(self, other):
        ref, alt = providers(other)
        key, a, b = cases("hmac-inc", 32, 40, 60, n=1)[0]
        m_ref, m_alt = ref.hmac_new(key, a), alt.hmac_new(key, a)
        m_ref.update(b)
        m_alt.update(b)
        assert m_ref.digest() == m_alt.digest() == \
            ref.hmac_sha256(key, a + b)


class TestDerivation:
    def test_hkdf_extract_and_expand(self, other):
        ref, alt = providers(other)
        for salt, ikm, info in cases("hkdf", 13, 22, 10):
            prk_ref = ref.hkdf_extract(salt, ikm)
            assert prk_ref == alt.hkdf_extract(salt, ikm)
            for length in (1, 16, 31, 32, 33, 64, 255, 8160):
                assert ref.hkdf_expand(prk_ref, info, length) == \
                    alt.hkdf_expand(prk_ref, info, length)

    def test_pbkdf2(self, other):
        ref, alt = providers(other)
        for password, salt in cases("pbkdf2", 11, 16, n=4):
            assert ref.pbkdf2_hmac_sha256(password, salt, 37, 24) == \
                alt.pbkdf2_hmac_sha256(password, salt, 37, 24)


class TestBlockCipher:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_aes_block_roundtrip_matches(self, other, key_len):
        ref, alt = providers(other)
        for key, block in cases(f"aes-{key_len}", key_len, 16):
            ct_ref = ref.aes_encrypt_block(key, block)
            assert ct_ref == alt.aes_encrypt_block(key, block)
            assert ref.aes_decrypt_block(key, ct_ref) == \
                alt.aes_decrypt_block(key, ct_ref) == block

    def test_ctr_transform(self, other):
        ref, alt = providers(other)
        rng = DeterministicRandom("conformance|ctr")
        for size in (0, 1, 15, 16, 17, 160, 1000):
            key, nonce = rng.random_bytes(16), rng.random_bytes(8)
            data = rng.random_bytes(size)
            ct = ref.ctr_transform(key, nonce, data)
            assert ct == alt.ctr_transform(key, nonce, data)
            assert alt.ctr_transform(key, nonce, ct) == data

    def test_cbc_roundtrip(self, other):
        ref, alt = providers(other)
        rng = DeterministicRandom("conformance|cbc")
        for size in (0, 1, 15, 16, 17, 160):
            key, iv = rng.random_bytes(16), rng.random_bytes(16)
            data = rng.random_bytes(size)
            ct = ref.cbc_encrypt(key, iv, data)
            assert ct == alt.cbc_encrypt(key, iv, data)
            assert ref.cbc_decrypt(key, iv, ct) == \
                alt.cbc_decrypt(key, iv, ct) == data

    @pytest.mark.parametrize("key_len", [15, 17, 31, 33])
    def test_wrong_size_key_is_typed_on_both(self, other, key_len):
        """Every AES entry point raises the same typed ``KeyError_`` —
        a ``CryptoError`` — for a wrong-size key on every backend, so no
        ``except CryptoError`` lets one through on one backend only."""
        ref, alt = providers(other)
        key, mac_key = bytes(key_len), bytes(32)
        nonce, iv, block = bytes(8), bytes(16), bytes(16)
        tag = ref._tag(mac_key, nonce, b"x", b"")
        entry_points = {
            "seal": lambda p: p.seal(key, mac_key, nonce, b"x"),
            "seal-reuse": lambda p: p.seal(key, mac_key, nonce, b"x",
                                           reuse=True),
            "open": lambda p: p.open(key, mac_key, nonce, b"x", tag),
            "open-reuse": lambda p: p.open(key, mac_key, nonce, b"x", tag,
                                           reuse=True),
            "ctr_transform": lambda p: p.ctr_transform(key, nonce, b"x"),
            "cbc_encrypt": lambda p: p.cbc_encrypt(key, iv, b"x"),
            "cbc_decrypt": lambda p: p.cbc_decrypt(key, iv, block),
            "aes_encrypt_block": lambda p: p.aes_encrypt_block(key, block),
            "aes_decrypt_block": lambda p: p.aes_decrypt_block(key, block),
        }
        for name, call in entry_points.items():
            for provider in (ref, alt):
                with pytest.raises(CryptoError) as raised:
                    call(provider)
                assert type(raised.value) is KeyError_, (name, provider.name)

    def test_cbc_bad_padding_is_typed_on_both(self, other):
        ref, alt = providers(other)
        rng = DeterministicRandom("conformance|cbc-bad")
        key, iv = rng.random_bytes(16), rng.random_bytes(16)
        garbage = rng.random_bytes(32)
        for provider in (ref, alt):
            with pytest.raises(PaddingError):
                provider.cbc_decrypt(key, iv, garbage)


class TestSealedBoxes:
    def test_seal_fixed_nonce_bytes_identical(self, other):
        ref, alt = providers(other)
        for enc_key, mac_key, nonce, plaintext, ad in cases(
                "seal", 16, 32, 8, 100, 20):
            sealed_ref = ref.seal(enc_key, mac_key, nonce, plaintext, ad)
            sealed_alt = alt.seal(enc_key, mac_key, nonce, plaintext, ad)
            assert sealed_ref == sealed_alt
            ciphertext, tag = sealed_ref
            assert ref.open(enc_key, mac_key, nonce, ciphertext, tag, ad) \
                == alt.open(enc_key, mac_key, nonce, ciphertext, tag, ad) \
                == plaintext

    def test_cross_backend_open(self, other):
        """A frame sealed by one backend opens under the other."""
        ref, alt = providers(other)
        enc_key, mac_key, nonce, plaintext = cases(
            "cross", 16, 32, 8, 77, n=1)[0]
        ct, tag = ref.seal(enc_key, mac_key, nonce, plaintext)
        assert alt.open(enc_key, mac_key, nonce, ct, tag) == plaintext
        ct, tag = alt.seal(enc_key, mac_key, nonce, plaintext)
        assert ref.open(enc_key, mac_key, nonce, ct, tag) == plaintext

    def test_forgery_rejected_typed_on_both(self, other):
        ref, alt = providers(other)
        enc_key, mac_key, nonce, plaintext = cases(
            "forge", 16, 32, 8, 50, n=1)[0]
        ct, tag = ref.seal(enc_key, mac_key, nonce, plaintext)
        bad = bytes([tag[0] ^ 1]) + tag[1:]
        for provider in (ref, alt):
            with pytest.raises(IntegrityError):
                provider.open(enc_key, mac_key, nonce, ct, bad)

    def test_seal_many_equals_seal_loop(self, other):
        ref, alt = providers(other)
        rng = DeterministicRandom("conformance|batch")
        enc_key, mac_key = rng.random_bytes(16), rng.random_bytes(32)
        jobs = [(rng.random_bytes(8), rng.random_bytes(60),
                 rng.random_bytes(9)) for _ in range(17)]
        loop = [ref.seal(enc_key, mac_key, *job) for job in jobs]
        assert ref.seal_many(enc_key, mac_key, jobs) == loop
        assert alt.seal_many(enc_key, mac_key, jobs) == loop

    def test_open_many_per_item_failure(self, other):
        ref, alt = providers(other)
        rng = DeterministicRandom("conformance|batch-open")
        enc_key, mac_key = rng.random_bytes(16), rng.random_bytes(32)
        jobs = [(rng.random_bytes(8), rng.random_bytes(40), b"ad")
                for _ in range(6)]
        sealed = ref.seal_many(enc_key, mac_key, jobs)
        items = [(nonce, ct, tag, ad)
                 for (nonce, _, ad), (ct, tag) in zip(jobs, sealed)]
        # Corrupt item 2's tag and item 4's AD; the rest must still open.
        items[2] = (items[2][0], items[2][1], bytes(32), items[2][3])
        items[4] = (items[4][0], items[4][1], items[4][2], b"evil")
        want = [job[1] if i not in (2, 4) else None
                for i, job in enumerate(jobs)]
        assert ref.open_many(enc_key, mac_key, items) == want
        assert alt.open_many(enc_key, mac_key, items) == want


class TestKeptContexts:
    """``reuse=True`` (a long-lived key: cipher state kept between
    frames) must be indistinguishable from the one-shot path and from
    the other backend — across evictions, forgeries and backend
    switches."""

    N_KEYS = 600  # more than the provider's 512-entry LRU holds
    SIZES = (0, 1, 15, 16, 17, 28, 100, 255, 256, 1025)

    def stream(self, n_ops=1200):
        """A seeded interleaving of seals over hot and cold keys."""
        rng = random.Random(1717)
        keys = [(rng.randbytes(16), rng.randbytes(32))
                for _ in range(self.N_KEYS)]
        for index in range(n_ops):
            # Half the frames re-arm one of eight hot contexts; the rest
            # sweep every key, so the LRU keeps evicting and rebuilding.
            which = rng.randrange(8) if rng.random() < 0.5 \
                else rng.randrange(self.N_KEYS)
            size = 20 * 1024 if index % 200 == 7 else rng.choice(self.SIZES)
            yield (*keys[which], rng.randbytes(8), rng.randbytes(size),
                   rng.randbytes(rng.randrange(12)))

    def test_interleaved_seals_and_opens_match_one_shot(self, other):
        ref, alt = providers(other)
        rng = random.Random(29)
        backlog = []
        for enc_key, mac_key, nonce, plaintext, ad in self.stream():
            sealed = alt.seal(enc_key, mac_key, nonce, plaintext, ad,
                              reuse=True)
            assert sealed == alt.seal(enc_key, mac_key, nonce, plaintext, ad)
            assert sealed == ref.seal(enc_key, mac_key, nonce, plaintext, ad,
                                      reuse=True)
            backlog.append((enc_key, mac_key, nonce, *sealed, ad, plaintext))
            while backlog and rng.random() < 0.5:
                *frame, want = backlog.pop(rng.randrange(len(backlog)))
                assert alt.open(*frame, reuse=True) == want
                assert ref.open(*frame, reuse=True) == want
        assert len(alt._schedules) <= 512 and len(ref._schedules) <= 512
        assert len(alt._macs) <= 512 and len(ref._macs) <= 512

    def test_forged_tag_rejected_before_any_decrypt(self, other):
        ref, alt = providers(other)
        enc_key, mac_key, nonce, plaintext, ad = next(self.stream(1))
        ct, tag = alt.seal(enc_key, mac_key, nonce, plaintext, ad, reuse=True)
        bad = bytes([tag[0] ^ 1]) + tag[1:]
        for provider in (ref, alt):
            real_ctr, calls = provider._ctr, []
            provider._ctr = lambda *a: calls.append(a) or real_ctr(*a)
            try:
                with pytest.raises(IntegrityError):
                    provider.open(enc_key, mac_key, nonce, ct, bad, ad,
                                  reuse=True)
                assert calls == []
                assert provider.open(enc_key, mac_key, nonce, ct, tag, ad,
                                     reuse=True) == plaintext
                assert len(calls) == 1
            finally:
                del provider._ctr

    def test_fast_backend_without_reuse_capability(self, other):
        """What this box cannot show by uninstalling: a ``cryptography``
        whose contexts lack ``reset_nonce``, and no ``cryptography`` at
        all, both fall through to per-frame construction — same bytes,
        and the first keeps no context."""
        ref, _ = providers(other)
        no_reset, no_package = FastProvider(), FastProvider()
        no_reset.ctr_reuse = False
        no_package.ctr_reuse = False
        no_package._cipher_cls = None
        for enc_key, mac_key, nonce, plaintext, ad in self.stream(60):
            want = ref.seal(enc_key, mac_key, nonce, plaintext, ad)
            for provider in (no_reset, no_package):
                ct, tag = provider.seal(enc_key, mac_key, nonce, plaintext,
                                        ad, reuse=True)
                assert (ct, tag) == want
                assert provider.open(enc_key, mac_key, nonce, ct, tag, ad,
                                     reuse=True) == plaintext
            # Without `cryptography` the pure AES serves ``reuse=True``
            # and keeps its key schedule, which is not a CTR context.
            if no_reset.aes_backend == "cryptography":
                assert not no_reset.caches_key(enc_key)

    def test_backend_switch_mid_stream_serves_no_stale_context(self, other):
        """Long-lived ciphers outlive ``using_provider`` switches; each
        provider instance keeps its own cache, and every frame equals
        the one-shot reference bytes whichever backend is active."""
        ref, alt = providers(other)
        ciphers = {}
        for index, (enc_seed, mac_seed, nonce, plaintext, ad) in enumerate(
                self.stream(400)):
            material = enc_seed + mac_seed[:16]
            cipher = ciphers.setdefault(
                material, AuthenticatedCipher(SessionKey(material)))
            active = (ref, alt)[(index // 25) % 2]
            with using_provider(active):
                box = cipher.seal_with_nonce(nonce, plaintext, ad)
                assert cipher.open(box, ad) == plaintext
            want = ref.seal(*cipher._keys(), nonce, plaintext, ad)
            assert (box.ciphertext, box.tag) == want


def group_scenario_wire_log(backend):
    """A complete seeded group run; returns every wire byte, in order."""
    from repro.enclaves.common import RekeyPolicy, UserDirectory
    from repro.enclaves.harness import SyncNetwork, wire
    from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
    from repro.enclaves.itgm.member import MemberProtocol

    with using_provider(backend):
        rng = DeterministicRandom("conformance|scenario")
        net = SyncNetwork()
        directory = UserDirectory()
        leader = GroupLeader(
            "leader", directory,
            config=LeaderConfig(rekey_policy=RekeyPolicy.ON_LEAVE),
            rng=rng.fork("leader"),
        )
        wire(net, "leader", leader)
        members = {}
        for i in range(4):
            user_id = f"user-{i}"
            creds = directory.register_password(user_id, f"pw-{i}")
            member = MemberProtocol(creds, "leader", rng.fork(user_id))
            members[user_id] = member
            wire(net, user_id, member)
            net.post(member.start_join())
            net.run()
        for i in range(8):
            sender = members[f"user-{i % 4}"]
            net.post(sender.seal_app(f"payload-{i}".encode()))
            net.run()
        net.post_all(leader.rekey_now())
        net.run()
        net.post(members["user-3"].start_leave())
        net.run()
        net.post(members["user-0"].seal_app(b"after-rekey"))
        net.run()
        return [
            (e.label.name, e.sender, e.recipient, e.body)
            for e in net.wire_log
        ]


class TestEndToEndTranscript:
    def test_full_group_run_is_byte_identical(self, other):
        """Joins, traffic, rekey-on-leave — same wire bytes per backend."""
        reference_log = group_scenario_wire_log(REFERENCE)
        other_log = group_scenario_wire_log(other)
        assert len(reference_log) == len(other_log)
        assert reference_log == other_log
        # Sanity: the scenario actually exercised sealed traffic.
        labels = {entry[0] for entry in reference_log}
        assert "APP_DATA" in labels and "ADMIN_MSG" in labels
