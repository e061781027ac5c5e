#!/usr/bin/env python3
"""Chaos-soak demo: the self-healing stack vs. a hostile network.

Drives 5 supervised members and 2 group managers through a seeded
fault plan — 30% loss with duplication, delay/reordering, a bursty
Gilbert-Elliott overlay, a partition that isolates half the members,
a leader crash restored warm by replaying its journal, and a second
crash that fails over to the standby manager — all on a virtual-time
event loop, so 60 simulated seconds take a few wall seconds and every
run of the same seed is byte-identical.

While the plan runs, a monitor continuously asserts the paper's §5.4
safety invariants on live state; afterwards every member must be back
on the current manager's current group key.  The same plan is then
thrown at the legacy (§2.2) stack, which has no freshness on new_key,
no retransmission, and no recovery path — watch the difference.

Run:  python examples/chaos_soak.py
"""

from repro.chaos import SoakConfig, run_soak
from repro.chaos.soak import _scenario_config


def main() -> None:
    print("=== improved (itgm) stack: full 60 s fault plan ===\n")
    report = run_soak(SoakConfig(seed=7))
    print(report.format_table())
    assert report.converged and report.safe

    print("\n=== legacy (§2.2) stack: same loss plan, no crash ===\n")
    legacy = run_soak(_scenario_config("loss", "legacy", seed=7))
    print(legacy.format_table())

    print("\n=== legacy stack: the crash leg ===\n")
    stranded = run_soak(_scenario_config("crash-failover", "legacy", seed=7))
    print(stranded.format_table())

    print(
        "\nThe contrast in one line: benign faults alone make the legacy\n"
        "stack accept a replayed new_key twice (the §2.3 flaw, no attacker\n"
        "needed), and a single crash strands it forever — while the\n"
        "improved stack reconverges from everything with zero violations."
    )


if __name__ == "__main__":
    main()
