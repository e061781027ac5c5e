"""Comparative Byzantine soak: quorum stack vs. single leader.

One soak run is a fixed, fully deterministic script — build a stack,
run an honest baseline round, strike it with one Byzantine fault
(:mod:`repro.quorum.byzantine`), let the stack's own defences respond
(the quorum stack only: certificate gossip, epoch audit, view change),
then settle with retransmission rounds and judge the end state against
the §5.4-shaped invariants:

1. **Epoch monotonicity** — no member's installed group-key epoch ever
   goes backwards (or re-installs a different key at a held epoch).
2. **Key agreement** — at the end of the run, any two members holding
   the same epoch hold the same key.  (Certificates make forks
   *detectable and attributable*, not impossible — a fork may exist
   transiently between delivery and gossip — so agreement is an
   end-state property, matching §5.4's "at any time the protocol is
   quiescent".)
3. **Convergence to authority** — every member ends connected, on the
   authority's current epoch and key, with empty outboxes.

The matrix claim, checked by the chaos tests and the CI ``quorum``
job: for every fault and seed, the quorum stack reports **zero**
violations (and, for every fault it has a detector for, an explicit
detection), while the single-leader stack reports at least one.

Determinism: all randomness flows from the run seed; telemetry, when
attached, should use a :class:`~repro.util.clock.TickClock` so the
exported JSONL is byte-identical across runs of the same seed (the
chaos suite asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.enclaves.harness import wire
from repro.enclaves.itgm.member import MemberState
from repro.quorum.attestation import EquivocationEvidence
from repro.quorum.byzantine import (
    FAULT_NAMES,
    FAULTS,
    QuorumScenario,
    SingleScenario,
    build_quorum_scenario,
    build_single_scenario,
)
from repro.telemetry.events import EventBus

#: Both stacks, in report order.
STACKS = ("quorum", "single")

#: Members' identities used by every soak run.
_MEMBER_IDS = ("user-0", "user-1", "user-2")

#: Retransmission/settling rounds after the response phase.
_HEAL_ROUNDS = 4


@dataclass
class QuorumSoakReport:
    """Outcome of one (stack, fault, seed) soak run."""

    stack: str
    fault: str
    seed: int
    detected: bool
    detail: str
    view_changes: int
    violations: list[str] = field(default_factory=list)
    converged: bool = False
    final_epoch: int = -1
    n_members: int = 0

    @property
    def safe(self) -> bool:
        return not self.violations


def run_quorum_soak(
    fault: str,
    stack: str = "quorum",
    seed: int = 7,
    telemetry: EventBus | None = None,
) -> QuorumSoakReport:
    """One scripted soak run; see the module docstring for the phases."""
    if fault not in FAULTS:
        raise ValueError(
            f"unknown fault {fault!r} (one of {FAULT_NAMES})"
        )
    if stack not in STACKS:
        raise ValueError(f"unknown stack {stack!r} (one of {STACKS})")
    fault_obj = FAULTS[fault](seed=seed + 5)

    if stack == "quorum":
        scenario: QuorumScenario | SingleScenario = build_quorum_scenario(
            _MEMBER_IDS, seed, telemetry=telemetry
        )
    else:
        scenario = build_single_scenario(
            _MEMBER_IDS, seed, telemetry=telemetry
        )
    net = scenario.net
    members = scenario.members

    def authority():
        # Re-resolved each time: view changes (quorum) and promotions
        # (single) replace the live leader object mid-run.
        if stack == "quorum":
            return scenario.qs.leader
        return scenario.managers.primary

    histories: dict[str, list[tuple[int, str | None]]] = {
        uid: [] for uid in members
    }

    def sample() -> None:
        for uid, member in members.items():
            if member.group_epoch < 0:
                continue
            point = (member.group_epoch, member.group_key_fingerprint)
            if not histories[uid] or histories[uid][-1] != point:
                histories[uid].append(point)

    sample()

    # Phase 1 — honest baseline: a rekey and an app round, proving the
    # stack is healthy before the strike.
    net.post_all(authority().rekey_now())
    net.run()
    sample()
    net.post(members[_MEMBER_IDS[0]].seal_app(b"baseline traffic"))
    net.run()

    # Phase 2 — the strike.
    if stack == "quorum":
        fault_obj.strike_quorum(scenario)
    else:
        fault_obj.strike_single(scenario)
    sample()

    # Phase 3 — detection and response.  Only the quorum stack has
    # machinery here; the single stack's "response" is whatever the
    # fault already did to it.
    detected = False
    detail_bits: list[str] = []
    if stack == "quorum":
        detected, detail_bits, _, _ = quorum_respond(scenario, fault)
        sample()

    # Phase 4 — settling: retransmission rounds flush stalled channels.
    for _ in range(_HEAL_ROUNDS):
        net.post_all(authority().tick())
        net.run()
        sample()

    # Phase 5 — judge.
    violations = _judge(histories, members, authority())
    auth = authority()
    return QuorumSoakReport(
        stack=stack,
        fault=fault,
        seed=seed,
        detected=detected,
        detail="; ".join(detail_bits) if detail_bits else "no detector",
        view_changes=(
            scenario.qs.view_changes if stack == "quorum" else 0
        ),
        violations=violations,
        converged=not any("not converged" in v for v in violations),
        final_epoch=auth.group_epoch,
        n_members=len(members),
    )


def quorum_respond(
    scenario: QuorumScenario, fault: str
) -> tuple[bool, list[str], str | None, EquivocationEvidence | None]:
    """The quorum stack's defences, run in their deployment order.

    The one response procedure: the soak runs it after every strike and
    the ``quorum-equivocation`` attack row after its own, so the row
    certifies the procedure the soak exercises.  Returns ``(detected,
    detail, detector, evidence)`` — the last two name the member whose
    gossip found a fork and what it found, ``None`` otherwise.

    1. *Certificate gossip*: members exchange recently accepted
       certificates; any member's verifier that observes a conflict
       produces self-verifying evidence.
    2. *Epoch audit*: members' acked epochs are compared against the
       certified epoch — the withholding/silence symptom.
    3. *Response*: evidence (or a persistent audit finding, or a
       damaged-replica refusal during a drill) drives a view change;
       members learn the eviction and the new primary out of band and
       start a fresh observation window.
    """
    qs = scenario.qs
    net = scenario.net
    members = scenario.members
    detail: list[str] = []

    # 1 — gossip.
    evidence = None
    detector = None
    pool = [
        (uid, cert)
        for uid, member in sorted(members.items())
        for cert in member.accepted_certificates[-3:]
    ]
    for uid, member in sorted(members.items()):
        for origin_uid, cert in pool:
            if origin_uid == uid:
                continue
            found = member.observe_gossip(cert)
            if found is not None:
                evidence, detector = found, uid
                break
        if evidence is not None:
            break

    # 2 — audit.
    lagging = qs.audit(
        {uid: member.group_epoch for uid, member in members.items()}
    )

    # 3 — respond.
    accused = None
    out = []
    if evidence is not None:
        accused = evidence.accused
        detail.append(
            f"{detector} gossip produced equivocation evidence "
            f"against {accused}"
        )
        out = qs.view_change(accused, "equivocation evidence", evidence)
    elif lagging:
        accused = qs.primary_id
        detail.append(
            f"audit: {sorted(lagging)} behind certified epoch "
            f"{qs.leader.group_epoch}"
        )
        out = qs.view_change(
            accused, f"audit: members {sorted(lagging)} starved"
        )
    elif fault == "corruption":
        refusing = sorted(
            rid for rid, witness in qs.witnesses.items() if witness.refused
        )
        if refusing:
            accused = qs.primary_id
            detail.append(
                f"witnesses {refusing} refused to attest a damaged "
                "replica; running a failover drill"
            )
            out = qs.view_change(
                accused, "failover drill with damaged replica present"
            )
    if accused is None:
        return False, detail, None, None

    # The accused primary is gone: its standing interference with the
    # wire (selective silence) goes with it.
    net.set_interceptor(None)
    wire(net, scenario.leader_addr, qs.leader)
    for member in members.values():
        member.verifier.evict(accused)
        member.verifier.set_primary(qs.primary_id)
    detail.append(
        f"view change -> primary {qs.primary_id}, "
        f"epoch {qs.leader.group_epoch}"
    )
    net.post_all(out)
    net.run()
    return True, detail, detector, evidence


def _judge(
    histories: dict[str, list[tuple[int, str | None]]],
    members: dict,
    authority,
) -> list[str]:
    """Apply the three invariants; returns human-readable violations."""
    violations: list[str] = []

    for uid in sorted(histories):
        epochs = [epoch for epoch, _ in histories[uid]]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            violations.append(
                f"{uid}: group-key epoch not strictly increasing "
                f"({epochs})"
            )

    uids = sorted(members)
    for i, first in enumerate(uids):
        for second in uids[i + 1:]:
            a, b = members[first], members[second]
            if (
                a.group_epoch >= 0
                and a.group_epoch == b.group_epoch
                and a.group_key_fingerprint != b.group_key_fingerprint
            ):
                violations.append(
                    f"key disagreement at epoch {a.group_epoch}: "
                    f"{first}={a.group_key_fingerprint} "
                    f"{second}={b.group_key_fingerprint}"
                )

    auth_epoch = authority.group_epoch
    auth_fp = authority.group_key_fingerprint
    for uid in uids:
        member = members[uid]
        problems = []
        if member.state is not MemberState.CONNECTED:
            problems.append(f"state {member.state.name}")
        if member.group_epoch != auth_epoch:
            problems.append(
                f"epoch {member.group_epoch} != authority {auth_epoch}"
            )
        elif member.group_key_fingerprint != auth_fp:
            problems.append("holds a different key than the authority")
        if authority.outbox_depth(uid):
            problems.append(
                f"{authority.outbox_depth(uid)} undelivered payloads"
            )
        if problems:
            violations.append(f"{uid}: not converged ({', '.join(problems)})")

    return violations


def run_byzantine_matrix(
    seed: int = 7,
    faults: tuple[str, ...] | None = None,
    telemetry: EventBus | None = None,
) -> list[QuorumSoakReport]:
    """Every fault against both stacks — the full comparison grid."""
    reports = []
    for fault in (faults if faults is not None else FAULT_NAMES):
        for stack in STACKS:
            reports.append(run_quorum_soak(
                fault, stack=stack, seed=seed, telemetry=telemetry
            ))
    return reports


def soak_as_expected(report: QuorumSoakReport) -> bool:
    """The matrix claim, for one cell: the quorum stack must be safe
    *and* have explicitly detected the fault; the single-leader stack
    must have violated at least one invariant (that contrast is the
    point of the comparison)."""
    expected_safe = report.stack == "quorum"
    return report.safe == expected_safe and (
        not expected_safe or report.fault == "none" or report.detected
    )


def format_byzantine_matrix(reports: list[QuorumSoakReport]) -> str:
    """Render the grid the way the CLI and CI logs show it."""
    header = (
        f"{'fault':<14} {'stack':<8} {'detected':<9} "
        f"{'view-chg':<9} {'violations':<11} verdict"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        verdict = (
            "as expected" if soak_as_expected(report) else "UNEXPECTED"
        )
        lines.append(
            f"{report.fault:<14} {report.stack:<8} "
            f"{str(report.detected):<9} {report.view_changes:<9} "
            f"{len(report.violations):<11} {verdict}"
        )
    return "\n".join(lines)


def _cmd_demo(args, _bus) -> int:
    """Scripted tour: certified mutations, a fork, detection, healing."""
    seed = args.seed
    scenario = build_quorum_scenario(["alice", "bob", "carol"], seed=seed)
    qs = scenario.qs
    print(f"quorum demo — n={qs.config.n} replicas (f={qs.config.f}), "
          f"certificates need {qs.config.threshold} attestations, "
          f"seed={seed}")
    print(f"  replica set        : primary {qs.primary_id}, "
          f"witnesses {sorted(qs.witnesses)}")
    print(f"  members joined     : {qs.leader.members} "
          f"(every join certified)")
    scenario.net.post_all(qs.leader.rekey_now())
    scenario.net.run()
    alice = scenario.members["alice"]
    certificate = alice.accepted_certificates[-1]
    print(f"  certified rekey    : epoch {alice.group_epoch}, "
          f"signed by {sorted(certificate.signers)}")

    report = run_quorum_soak("equivocation", stack="quorum", seed=seed)
    print(f"  equivocation drill : detected={report.detected} — "
          f"{report.detail}")
    print(f"  view change        : {report.view_changes} "
          f"(healed at epoch {report.final_epoch}, "
          f"{len(report.violations)} invariant violations)")
    ok = report.safe and report.detected and report.converged
    print("  verdict            : "
          + ("OK — fork detected, attributed, healed" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_attack(args, _bus) -> int:
    """The Byzantine-leader rows of the attack matrix, on their own."""
    from repro.attacks import QuorumEquivocationAttack, QuorumForgeryAttack
    from repro.attacks.suite import print_attack_rows

    return print_attack_rows(
        [QuorumForgeryAttack, QuorumEquivocationAttack], args.seed,
        "Byzantine-leader attacks — 'legacy' is the single-trusted-"
        "leader deployment,\n'improved' the quorum-hardened stack:\n",
        ("both attacks break the single leader and die on the quorum",
         "deviation from the quorum claim!"),
    )


def _cmd_soak(args, bus):
    """The full Byzantine fault × stack comparison grid."""
    faults = tuple(args.faults.split(",")) if args.faults else None
    reports = run_byzantine_matrix(
        seed=args.seed, faults=faults, telemetry=bus
    )
    print(format_byzantine_matrix(reports))

    def verdict() -> int:
        bad = [r for r in reports if not soak_as_expected(r)]
        if bad:
            print(f"\n{len(bad)} cell(s) deviated from the quorum claim!")
            for r in bad:
                for violation in r.violations[:3]:
                    print(f"  {r.fault}/{r.stack}: {violation}")
            return 1
        print("\nquorum stack: zero violations, every fault detected; "
              "single leader: broken under every fault")
        return 0

    return verdict


def register(sub) -> None:
    quorum = sub.add_parser(
        "quorum",
        help="drive the Byzantine leader quorum (demo / attack / soak)",
    )
    quorum.add_argument("mode", choices=("demo", "attack", "soak"),
                        help="scripted certification-and-healing demo, "
                             "Byzantine-leader attack rows, or the "
                             "fault × stack soak matrix")
    quorum.add_argument("--seed", type=int, default=7)
    quorum.add_argument("--faults", metavar="F1,F2",
                        help="comma-separated subset of equivocation,"
                             "silence,withholding,corruption "
                             "(soak mode only)")
    quorum.add_argument("--out", metavar="PATH",
                        help="export the run's event stream as "
                             "deterministic JSONL")
    quorum.set_defaults(select="mode", dispatch={
        "demo": (_cmd_demo, "out", False, ""),
        "attack": (_cmd_attack, "out", False, ""),
        "soak": (_cmd_soak, "out", True, "\n"),
    })


__all__ = [
    "STACKS",
    "QuorumSoakReport",
    "format_byzantine_matrix",
    "quorum_respond",
    "run_byzantine_matrix",
    "run_quorum_soak",
    "soak_as_expected",
]
