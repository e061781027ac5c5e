"""Tests for randomness sources and nonces."""

import pytest

from repro.crypto.rng import (
    NONCE_LEN,
    DeterministicRandom,
    Nonce,
    SystemRandom,
)


class TestNonce:
    def test_valid(self):
        n = Nonce(bytes(NONCE_LEN))
        assert n.value == bytes(16)
        assert n.hex() == "00" * 16

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Nonce(bytes(8))
        with pytest.raises(ValueError):
            Nonce(bytes(17))

    def test_non_bytes_rejected(self):
        with pytest.raises(ValueError):
            Nonce("x" * 16)  # type: ignore[arg-type]

    def test_equality_and_hash(self):
        assert Nonce(bytes(16)) == Nonce(bytes(16))
        assert hash(Nonce(bytes(16))) == hash(Nonce(bytes(16)))
        assert Nonce(bytes(16)) != Nonce(b"\x01" + bytes(15))

    def test_repr_is_short(self):
        assert len(repr(Nonce(bytes(16)))) < 30


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom(42)
        b = DeterministicRandom(42)
        assert [a.random_bytes(10) for _ in range(5)] == [
            b.random_bytes(10) for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        assert DeterministicRandom(1).random_bytes(16) != DeterministicRandom(
            2
        ).random_bytes(16)

    def test_successive_calls_differ(self):
        rng = DeterministicRandom(7)
        assert rng.random_bytes(16) != rng.random_bytes(16)

    def test_exact_lengths(self):
        rng = DeterministicRandom(0)
        for n in (1, 31, 32, 33, 100):
            assert len(rng.random_bytes(n)) == n

    def test_seed_types(self):
        # int, str, and bytes seeds are all accepted.
        DeterministicRandom(5)
        DeterministicRandom("seed")
        DeterministicRandom(b"seed")

    def test_str_and_bytes_seed_equivalent(self):
        assert DeterministicRandom("s").random_bytes(8) == DeterministicRandom(
            b"s"
        ).random_bytes(8)

    def test_fork_independent(self):
        rng = DeterministicRandom(9)
        fork_a = rng.fork("a")
        fork_b = rng.fork("b")
        assert fork_a.random_bytes(16) != fork_b.random_bytes(16)
        # Forking does not disturb the parent stream.
        parent1 = DeterministicRandom(9)
        parent1.fork("x")
        assert parent1.random_bytes(8) == DeterministicRandom(9).random_bytes(8)

    def test_fork_deterministic(self):
        assert DeterministicRandom(9).fork("a").random_bytes(
            8
        ) == DeterministicRandom(9).fork("a").random_bytes(8)

    def test_nonce_method(self):
        rng = DeterministicRandom(3)
        n1, n2 = rng.nonce(), rng.nonce()
        assert isinstance(n1, Nonce) and n1 != n2

    def test_key_material(self):
        assert len(DeterministicRandom(0).key_material()) == 32

    def test_known_answer(self):
        """Literal bytes: every seeded stream in the repository grows from
        this generator, so a change to it (or under it, in the HMAC it
        keys once per seed) must fail here before it re-bases them all."""
        assert DeterministicRandom(0).random_bytes(48).hex() == (
            "baaaab637cc146fa4a89b9204250466e3ed16a12bbfc90418dc95ef18448af9e"
            "40870a01d0c49083df7cef596f46be23"
        )
        assert DeterministicRandom(0).fork("x").random_bytes(48).hex() == (
            "321e2d7caa6aa672c0eefd779e41586cfdeceb62c63dba93cc88480cd974cb97"
            "9da8b1408442c2b9e537dfb3e92d1e2c"
        )


class TestSystemRandom:
    def test_lengths(self):
        rng = SystemRandom()
        assert len(rng.random_bytes(16)) == 16
        assert len(rng.key_material()) == 32

    def test_nonces_unique(self):
        rng = SystemRandom()
        nonces = {rng.nonce().value for _ in range(100)}
        assert len(nonces) == 100

    def test_fork_is_the_source_itself(self):
        """No streams to keep apart: sub-components share the CSPRNG."""
        rng = SystemRandom()
        assert rng.fork("x") is rng


class TestDraws:
    def test_uniform_and_exponential_spend_eight_bytes_each(self):
        """The byte contract every seeded schedule depends on."""
        import math

        drawn, reference = DeterministicRandom(3), DeterministicRandom(3)
        raw = int.from_bytes(reference.random_bytes(8), "big")
        assert drawn.uniform() == raw / 2**64
        raw = int.from_bytes(reference.random_bytes(8), "big")
        assert drawn.exponential() == -math.log((raw + 1) / 2**64)
        assert drawn.random_bytes(4) == reference.random_bytes(4)


class TestTypedRejection:
    """Negative paths: bad inputs fail loudly and typed, never truncate.

    ``bytes[:n]`` with a negative ``n`` silently shortens — for an RNG
    that means *short key material*, the worst silent failure there is.
    These tests pin the typed errors that closed that hole.
    """

    @pytest.mark.parametrize("rng", [SystemRandom(), DeterministicRandom(1)],
                             ids=["system", "deterministic"])
    def test_negative_count_is_value_error(self, rng):
        with pytest.raises(ValueError):
            rng.random_bytes(-1)

    @pytest.mark.parametrize("rng", [SystemRandom(), DeterministicRandom(1)],
                             ids=["system", "deterministic"])
    @pytest.mark.parametrize("count", [None, 3.0, "16", True],
                             ids=["none", "float", "str", "bool"])
    def test_non_int_count_is_type_error(self, rng, count):
        with pytest.raises(TypeError):
            rng.random_bytes(count)

    def test_zero_count_is_fine(self):
        assert DeterministicRandom(1).random_bytes(0) == b""

    def test_bool_seed_rejected(self):
        # bool is an int subclass; True would silently alias seed 1.
        with pytest.raises(TypeError):
            DeterministicRandom(True)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(-1)

    def test_oversized_int_seed_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(1 << 64)
        # The boundary itself is fine.
        DeterministicRandom((1 << 64) - 1)

    @pytest.mark.parametrize("seed", [None, 1.5, ["s"]],
                             ids=["none", "float", "list"])
    def test_unsupported_seed_type_rejected(self, seed):
        with pytest.raises(TypeError):
            DeterministicRandom(seed)

    def test_bytearray_seed_accepted_and_equivalent(self):
        assert DeterministicRandom(bytearray(b"s")).random_bytes(8) == \
            DeterministicRandom(b"s").random_bytes(8)

    def test_fork_label_must_be_str(self):
        with pytest.raises(TypeError):
            DeterministicRandom(1).fork(b"label")
