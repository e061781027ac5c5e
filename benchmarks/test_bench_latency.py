"""FIG-1 companion: latency structure of the star architecture.

Under a modelled one-way delay d, the §3.2 message diagram predicts
exact hop counts (join→K_a = 2d, join→operational = 4d, admin delivery
= 1d).  This bench measures the study itself and asserts those shapes —
the latency-structure half of the Figure 1 reproduction.
"""

import pytest

from repro.sim.latency import run_latency_study
from repro.sim.netmodel import ExponentialDelay, FixedDelay


@pytest.mark.parametrize("delay", [0.01, 0.05], ids=["10ms", "50ms"])
def test_fixed_delay_study(benchmark, delay):
    report = benchmark(
        lambda: run_latency_study(
            n_members=4, delay_model=FixedDelay(delay), n_admin_rounds=3
        )
    )
    assert abs(report.join_to_connected.mean - 2 * delay) < 1e-9
    assert abs(report.join_to_group_key.mean - 4 * delay) < 1e-9
    assert abs(report.admin_round_trip.mean - delay) < 1e-9
    benchmark.extra_info["join_to_key_hops"] = round(
        report.join_to_group_key.mean / delay
    )


def test_exponential_delay_study(benchmark):
    mean = 0.02
    report = benchmark(
        lambda: run_latency_study(
            n_members=4, delay_model=ExponentialDelay(mean, seed=1),
            n_admin_rounds=3,
        )
    )
    # Expected join-to-key ≈ 4 hops x mean; allow wide slack for the
    # exponential tails with few samples.
    assert 2 * mean < report.join_to_group_key.mean < 12 * mean
