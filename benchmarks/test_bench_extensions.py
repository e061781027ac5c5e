"""Extension benchmarks: DH provisioning, loss recovery.

The paper's footnote (public-key authentication) carries a cost; these
benches quantify it next to the password-provisioned baseline.  (The
multiple-group-managers failover is timed in ``test_bench_recovery.py``.)
"""

import pytest

from repro.crypto.dh import generate_keypair, shared_secret
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.pubkey import PublicKeyInfrastructure


def test_dh_keypair_generation(benchmark):
    rng = DeterministicRandom(0)
    pair = benchmark(lambda: generate_keypair(rng))
    assert pair.public > 1


def test_dh_agreement(benchmark):
    alice = generate_keypair(DeterministicRandom(1))
    leader = generate_keypair(DeterministicRandom(2))
    secret = benchmark(lambda: shared_secret(alice, leader.public))
    assert len(secret) == 256


def test_pki_enrollment(benchmark):
    pki = PublicKeyInfrastructure.create("leader", DeterministicRandom(0))
    rng = DeterministicRandom(1)
    counter = [0]

    def enroll():
        counter[0] += 1
        return pki.enroll_user(f"user-{counter[0]}", rng)

    creds = benchmark(enroll)
    assert creds.long_term_key is not None


def test_loss_recovery_roundtrip(benchmark):
    """Cost of one lost-AdminMsg recovery: drop, retransmit, ack."""
    from repro.enclaves.itgm.admin import TextPayload
    from repro.wire.labels import Label
    from conftest import build_itgm_group

    net, leader, members = build_itgm_group(2)
    counter = [0]

    def lose_and_recover():
        counter[0] += 1
        dropped = []

        def drop_one(envelope):
            if (
                envelope.label is Label.ADMIN_MSG
                and not dropped
            ):
                dropped.append(envelope)
                return []
            return None

        net.set_interceptor(drop_one)
        net.post_all(
            leader.broadcast_admin(TextPayload(f"frame-{counter[0]}"))
        )
        net.run()
        net.set_interceptor(None)
        net.post_all(leader.retransmit_stalled())
        net.run()

    benchmark(lose_and_recover)
    for user_id, member in members.items():
        assert member.admin_log == leader.admin_send_log(user_id)
