"""One-call verification of the improved protocol.

:func:`verify_protocol` runs the §5 pipeline end to end:

1. the invariant suite (regularity, secrecy, coideal invariant, prefix,
   authentication, agreement) on every reachable state,
2. the Figure 4 diagram obligations on every explored transition,
3. diagram coverage (every state in some box) and the Q1 initial
   obligation,

within the bounds of a :class:`~repro.formal.model.ModelConfig`, and
returns a :class:`VerificationReport` summarizing what was checked.
This powers ``examples/formal_verification.py`` and the FIG-4/THM-5.x
reproduction benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.formal import diagram as diagram_mod
from repro.formal.explorer import Explorer, Violation
from repro.formal.legacy_model import (
    LEGACY_CHECKS,
    LegacyConfig,
    LegacyEnclavesModel,
)
from repro.formal.model import EnclavesModel, ModelConfig
from repro.formal.properties import ALL_CHECKS
from repro.formal.render import render_figure4
from repro.formal.walker import RandomWalker


@dataclass
class VerificationReport:
    """Summary of a verification run."""

    config: ModelConfig
    states_explored: int
    transitions_explored: int
    checks_run: tuple[str, ...]
    diagram_boxes: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ALL PROPERTIES HOLD" if self.ok else "VIOLATIONS FOUND"
        lines = [
            f"verification: {status}",
            f"  bounds: sessions={self.config.max_sessions} "
            f"admin={self.config.max_admin} spy={self.config.spy_budget} "
            f"compromised_member={self.config.compromised_member}",
            f"  states explored:      {self.states_explored}",
            f"  transitions explored: {self.transitions_explored}",
            f"  invariants checked:   {', '.join(self.checks_run)}",
            f"  diagram boxes:        {self.diagram_boxes} "
            "(coverage + successor obligations on every edge)",
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def verify_protocol(
    config: ModelConfig | None = None,
    include_diagram: bool = True,
    stop_on_first: bool = True,
    max_states: int = 500_000,
) -> VerificationReport:
    """Explore the model and check every §5 property.

    Returns the report; callers decide whether to raise (see
    :meth:`~repro.formal.explorer.ExplorationResult.raise_on_violation`).
    """
    config = config if config is not None else ModelConfig()
    model = EnclavesModel(config)

    checks = dict(ALL_CHECKS)
    edge_hooks = []
    if include_diagram:
        checks["diagram_coverage"] = diagram_mod.check_coverage
        edge_hooks.append(diagram_mod.check_obligation)

    explorer = Explorer(
        model,
        checks=checks,
        edge_hooks=edge_hooks,
        max_states=max_states,
        stop_on_first=stop_on_first,
    )
    violations: list[Violation] = []
    if include_diagram:
        initial_message = diagram_mod.initial_obligation(
            model, model.initial_state()
        )
        if initial_message is not None:
            violations.append(
                Violation(
                    check="diagram_initial",
                    message=initial_message,
                    state=model.initial_state(),
                    path=[],
                )
            )

    result = explorer.run()
    violations.extend(result.violations)
    return VerificationReport(
        config=config,
        states_explored=result.states_explored,
        transitions_explored=result.transitions_explored,
        checks_run=tuple(checks),
        diagram_boxes=len(diagram_mod.DIAGRAM),
        violations=violations,
    )


def _cmd_verify(args, _bus) -> int:
    config = ModelConfig(
        max_sessions=args.sessions,
        max_admin=args.admin,
        spy_budget=args.spy,
        compromised_member=args.compromised_member,
    )
    report = verify_protocol(config)
    print(report.summary())
    if args.walks:
        walk_config = ModelConfig(
            max_sessions=50, max_admin=100, spy_budget=10,
            compromised_member=args.compromised_member,
        )
        result = RandomWalker(
            EnclavesModel(walk_config), seed=args.seed
        ).run(walks=args.walks, max_steps=200)
        status = "ok" if result.ok else "VIOLATION"
        print(f"random walks: {result.walks} walks, "
              f"{result.steps_taken} steps, {status}")
        if not result.ok:
            print(result.violations[0])
            return 1
    return 0 if report.ok else 1


def _cmd_report(args, _bus) -> int:
    """Regenerate the whole reproduction as one markdown report."""
    from repro.attacks import run_attack_matrix
    from repro.attacks.suite import format_matrix
    from repro.sim.latency import run_latency_study
    from repro.sim.netmodel import FixedDelay

    lines = ["# Reproduction report", ""]
    ok = True

    lines += ["## §5 verification (improved protocol)", "", "```"]
    for config in [
        ModelConfig(max_sessions=1, max_admin=2, spy_budget=1),
        ModelConfig(max_sessions=1, max_admin=1, spy_budget=1,
                    compromised_member=True),
    ]:
        report = verify_protocol(config)
        ok = ok and report.ok
        lines.append(report.summary())
        lines.append("")
    lines += ["```", ""]

    lines += ["## §2.3 attack matrix", "", "```"]
    rows = run_attack_matrix(seed=args.seed)
    ok = ok and all(row.as_expected for row in rows)
    lines += [format_matrix(rows), "```", ""]

    lines += ["## Automatic flaw discovery (legacy symbolic model)", "",
              "```"]
    for name, check in sorted(LEGACY_CHECKS.items()):
        result = Explorer(
            LegacyEnclavesModel(LegacyConfig(max_sessions=2, max_rekeys=2)),
            checks={name: check}, stop_on_first=True,
        ).run()
        found = "FOUND" if not result.ok else "NOT FOUND (unexpected!)"
        ok = ok and not result.ok
        lines.append(
            f"{name:<24} counterexample {found} "
            f"after {result.states_explored} states"
        )
    lines += ["```", ""]

    lines += ["## Latency structure (fixed 10 ms one-way delay)", "", "```"]
    study = run_latency_study(n_members=3, delay_model=FixedDelay(0.01),
                              n_admin_rounds=2)
    lines.append(f"join -> connected : {study.join_to_connected.mean*1000:.1f} ms"
                 "  (2 hops expected: 20.0 ms)")
    lines.append(f"join -> group key : {study.join_to_group_key.mean*1000:.1f} ms"
                 "  (4 hops expected: 40.0 ms)")
    lines.append(f"admin delivery    : {study.admin_round_trip.mean*1000:.1f} ms"
                 "  (1 hop expected: 10.0 ms)")
    lines += ["```", ""]

    lines += ["## Figures", "", "```",
              render_figure4("ascii"), "```", ""]
    verdict = "ALL ARTIFACTS REPRODUCED" if ok else "DEVIATIONS FOUND"
    lines += [f"**{verdict}**", ""]

    output = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as f:
            f.write(output)
        print(f"wrote {args.out} ({verdict})")
    else:
        print(output)
    return 0 if ok else 1


def register(sub) -> None:
    verify = sub.add_parser("verify", help="run the §5 verification")
    verify.add_argument("--sessions", type=int, default=1)
    verify.add_argument("--admin", type=int, default=2)
    verify.add_argument("--spy", type=int, default=1)
    verify.add_argument("--compromised-member", action="store_true")
    verify.add_argument("--walks", type=int, default=0,
                        help="additionally run N deep random walks")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(select="command",
                        dispatch={"verify": (_cmd_verify, None, False, "")})

    report = sub.add_parser(
        "report", help="regenerate the whole reproduction as one report"
    )
    report.add_argument("--out", help="write markdown to a file")
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(select="command",
                        dispatch={"report": (_cmd_report, None, False, "")})
