"""The attack matrix: every attack against both protocol stacks.

``run_attack_matrix`` regenerates the paper's central security claim as
a table (experiment SEC-2.3 in DESIGN.md): each §2.3 attack succeeds
against the legacy protocol and is blocked by the improved one, and the
additional attacks are blocked everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.admin_replay import AdminReplayAttack
from repro.attacks.base import Attack, AttackResult
from repro.attacks.data_replay import DataReplayAttack
from repro.attacks.forged_close import ForgedCloseAttack
from repro.attacks.forged_denial import ForgedDenialAttack
from repro.attacks.forged_removal import ForgedRemovalAttack
from repro.attacks.impersonation import ImpersonationAttack
from repro.attacks.past_member_data import PastMemberDataAttack
from repro.attacks.quorum_equivocation import QuorumEquivocationAttack
from repro.attacks.quorum_forgery import QuorumForgeryAttack
from repro.attacks.rekey_replay import RekeyReplayAttack
from repro.attacks.stale_key import StaleSessionKeyAttack

#: All attacks, in paper order.  The two ``quorum-*`` rows model a
#: *Byzantine leader* (§6/§7's trusted party turning hostile): their
#: "legacy" column is the single-trusted-leader deployment and their
#: "improved" column is the quorum-hardened stack of :mod:`repro.quorum`.
#: The two data-plane rows follow the same convention: their "legacy"
#: column is the group-key-only data channel (what sealing app traffic
#: directly under K_g gives you) and their "improved" column is the
#: ratcheted channel of :mod:`repro.dataplane`.
ALL_ATTACKS: list[type[Attack]] = [
    ForgedDenialAttack,
    ForgedRemovalAttack,
    RekeyReplayAttack,
    AdminReplayAttack,
    ImpersonationAttack,
    ForgedCloseAttack,
    StaleSessionKeyAttack,
    QuorumForgeryAttack,
    QuorumEquivocationAttack,
    PastMemberDataAttack,
    DataReplayAttack,
]


@dataclass(frozen=True)
class MatrixRow:
    """One attack's outcome on both stacks, with expectations."""

    attack: str
    reference: str
    legacy: AttackResult
    itgm: AttackResult
    expected_legacy: bool
    expected_itgm: bool

    @property
    def as_expected(self) -> bool:
        return (
            self.legacy.succeeded == self.expected_legacy
            and self.itgm.succeeded == self.expected_itgm
        )


def run_attack_matrix(
    seed: int = 0, attacks: list[type[Attack]] = ALL_ATTACKS
) -> list[MatrixRow]:
    """Run ``attacks`` (default: every attack) against both stacks;
    returns one row each."""
    rows = []
    for attack_cls in attacks:
        attack = attack_cls(seed=seed + 11)
        legacy_result, itgm_result = attack.run_both()
        rows.append(
            MatrixRow(
                attack=attack.name,
                reference=attack.reference,
                legacy=legacy_result,
                itgm=itgm_result,
                expected_legacy=attack.expected_on_legacy,
                expected_itgm=attack.expected_on_itgm,
            )
        )
    return rows


def format_matrix(rows: list[MatrixRow]) -> str:
    """Render the matrix as the table the paper's §2.3 implies."""
    header = (
        f"{'attack':<20} {'legacy §2.2':<14} {'improved §3.2':<14} "
        f"{'as predicted':<12}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        legacy = "SUCCEEDS" if row.legacy.succeeded else "blocked"
        itgm = "SUCCEEDS" if row.itgm.succeeded else "blocked"
        lines.append(
            f"{row.attack:<20} {legacy:<14} {itgm:<14} "
            f"{'yes' if row.as_expected else 'NO':<12}"
        )
    return "\n".join(lines)


def print_attack_rows(
    attacks: list[type[Attack]], seed: int, header: str,
    verdicts: tuple[str, str],
) -> int:
    """Run some rows of the matrix on their own (``quorum attack``,
    ``data attack``): the table under ``header``, each improved-stack
    detail, then ``verdicts[0]`` when every row came out as expected
    and ``verdicts[1]`` when not.  Returns the exit status."""
    rows = run_attack_matrix(seed, attacks=attacks)
    print(header)
    print(format_matrix(rows))
    for row in rows:
        print(f"\n{row.attack}: {row.itgm.detail}")
    as_expected = all(row.as_expected for row in rows)
    print("\n" + verdicts[0 if as_expected else 1])
    return 0 if as_expected else 1


def _cmd_attack_matrix(args, _bus) -> int:
    rows = run_attack_matrix(seed=args.seed)
    print(format_matrix(rows))
    deviations = [row for row in rows if not row.as_expected]
    if deviations:
        print(f"\n{len(deviations)} deviation(s) from the paper!")
        return 1
    print("\nall outcomes match the paper's predictions")
    return 0


def register(sub) -> None:
    matrix = sub.add_parser("attack-matrix", help="run the §2.3 attacks")
    matrix.add_argument("--seed", type=int, default=0)
    matrix.set_defaults(
        select="command",
        dispatch={"attack-matrix": (_cmd_attack_matrix, None, False, "")},
    )
