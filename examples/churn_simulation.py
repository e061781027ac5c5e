#!/usr/bin/env python3
"""Churn simulation: rekey policies under membership churn.

Sweeps the leader's rekey policy (the paper's "application-dependent
policy": on-join/on-leave, periodic, manual) across a Poisson
join/leave/message workload on the virtual-time event loop, and reports
the cost (rekeys, relayed frames) and the safety signal (every connected
member's membership view matches the leader's at the end).

Run:  python examples/churn_simulation.py
"""

from repro.enclaves.common import RekeyPolicy
from repro.sim import ChurnScenario, run_churn


def main() -> None:
    policies = [
        ("on-join+on-leave", RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE),
        ("on-leave only", RekeyPolicy.ON_LEAVE),
        ("periodic (10s)", RekeyPolicy.PERIODIC),
        ("manual (never)", RekeyPolicy.MANUAL),
    ]

    print(f"{'policy':<20} {'joins':>6} {'leaves':>7} {'rekeys':>7} "
          f"{'relayed':>8} {'views-ok':>9}")
    print("-" * 62)
    for name, policy in policies:
        report = run_churn(
            ChurnScenario(
                n_users=10,
                duration=120.0,
                join_rate=0.4,
                mean_session=30.0,
                message_rate=3.0,
                rekey_policy=policy,
                rekey_interval=10.0,
                seed=42,
            )
        )
        print(f"{name:<20} {report.joins:>6} {report.leaves:>7} "
              f"{report.rekeys:>7} {report.relayed:>8} "
              f"{str(report.views_consistent):>9}")

    print()
    print("Reading the table: rekey-on-membership-change costs one rekey")
    print("per join/leave (cryptographic eviction of every leaver);")
    print("periodic rekeying caps the damage window instead; manual never")
    print("rotates — the §2.3 replay attack's favourite configuration.")


if __name__ == "__main__":
    main()
