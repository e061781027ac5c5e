"""SEC-2.3: the attack matrix — the paper's central security table.

Regenerates, as a measured run, the claim structure of §2.3/§3:

    attack                legacy §2.2     improved §3.2
    forged-denial         SUCCEEDS        blocked
    forged-removal        SUCCEEDS        blocked
    rekey-replay          SUCCEEDS        blocked
    admin-replay          SUCCEEDS        blocked
    impersonation         blocked         blocked
    forged-close          SUCCEEDS        blocked
    stale-session-key     blocked         blocked
    quorum-forgery        SUCCEEDS        blocked
    quorum-equivocation   SUCCEEDS        blocked
    past-member-data      SUCCEEDS        blocked
    data-replay           SUCCEEDS        blocked

For the two Byzantine-insider rows the "legacy" column is the single
*trusted-leader* deployment (the improved §3.2 stack with no quorum
layer — §6's stated trust assumption) and the "improved" column is the
quorum-certified stack from :mod:`repro.quorum`.  For the two
data-plane rows "legacy" is the group-key-only data channel and
"improved" the ratcheted channel of :mod:`repro.dataplane`.

A failing assertion here means the reproduction no longer matches the
paper's predictions.
"""

import pytest

from repro.attacks import ALL_ATTACKS, run_attack_matrix
from repro.attacks.suite import format_matrix


def test_attack_matrix(benchmark):
    rows = benchmark(run_attack_matrix)
    print("\n" + format_matrix(rows))
    for row in rows:
        assert row.as_expected, (
            f"{row.attack} deviates from the paper: "
            f"legacy={row.legacy.succeeded} "
            f"(expected {row.expected_legacy}), "
            f"itgm={row.itgm.succeeded} (expected {row.expected_itgm})"
        )
    # Shape of the table: the baseline stacks fall to every attack the
    # matrix predicts they do (5 wire attacks, 2 Byzantine-insider ones,
    # 2 on the data plane), improved to none.
    legacy_broken = sum(1 for r in rows if r.legacy.succeeded)
    itgm_broken = sum(1 for r in rows if r.itgm.succeeded)
    assert legacy_broken == sum(a.expected_on_legacy for a in ALL_ATTACKS)
    assert itgm_broken == 0
    benchmark.extra_info["legacy_broken"] = legacy_broken
    benchmark.extra_info["itgm_broken"] = itgm_broken


@pytest.mark.parametrize("attack_cls", ALL_ATTACKS,
                         ids=[a.name for a in ALL_ATTACKS])
def test_individual_attack_cost(benchmark, attack_cls):
    """Per-attack wall time against both stacks (defender-side cost of
    repelling each attack is included, since the victims run inline)."""

    def run_both():
        return attack_cls().run_both()

    legacy, itgm = benchmark(run_both)
    attack = attack_cls()
    assert legacy.succeeded == attack.expected_on_legacy
    assert itgm.succeeded == attack.expected_on_itgm
