"""PERF-R: overload soak shed fairness, written to ``BENCH_overload.json``.

One protected run of the seeded overload soak (flooding insider + join
surge).  The shed pain must land on the flooder: honest members absorb
at most 5% of all sheds, and the protected stack's honest join p99
stays inside the SLO the unprotected baseline violates.
"""

from __future__ import annotations

from conftest import write_bench_record
from repro.overload.soak import OverloadConfig, run_overload_soak

#: Honest members may absorb at most this fraction of all sheds.
SHED_HONEST_FRACTION = 0.05

SOAK_CONFIG = OverloadConfig(seed=7, duration=8.0, surge_at=4.0,
                             flood_until=7.0)


def test_overload_bench_gate():
    report = run_overload_soak(SOAK_CONFIG)
    protected = report.protected
    unprotected = report.unprotected

    write_bench_record("overload", {
        "soak": {
            "seed": SOAK_CONFIG.seed,
            "duration_s": SOAK_CONFIG.duration,
            "protection_holds": report.protection_holds,
            "shed_honest_bound": SHED_HONEST_FRACTION,
            "protected": protected.as_dict(),
            "unprotected": unprotected.as_dict(),
        },
    })

    # Shed fairness: the pain lands on the flooder.
    assert report.protection_holds
    assert protected.frames_shed > 0
    assert protected.shed_flooder > protected.shed_honest
    assert (protected.shed_honest
            <= protected.frames_shed * SHED_HONEST_FRACTION)
    # And the protected stack keeps the SLO the baseline violates.
    assert protected.slo_met and not unprotected.slo_met
