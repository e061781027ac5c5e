"""Randomized deep exploration (complement to the BFS explorer).

BFS is exhaustive but shallow: the budgets keep it to a few protocol
sessions.  :class:`RandomWalker` trades exhaustiveness for depth: many
seeded random walks, each hundreds of transitions long (dozens of
sessions, admin exchanges, forgeries), with every invariant checked at
every step.  Used by the slow tests and the FIG-4 benchmark sweep to
push the same §5 predicates far beyond the exhaustive frontier.  A walk
keeps no visited set, so it does not run the explorer's ``search``
loop; it shares its check helper and :class:`Violation` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRandom
from repro.formal.explorer import Violation, failed_checks
from repro.formal.model import EnclavesModel
from repro.formal.properties import ALL_CHECKS, Check


@dataclass
class WalkResult:
    """Outcome of a batch of random walks."""

    walks: int
    steps_taken: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class RandomWalker:
    """Seeded random walks over the protocol model."""

    def __init__(
        self,
        model: EnclavesModel,
        checks: dict[str, Check] | None = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.checks = checks if checks is not None else dict(ALL_CHECKS)
        self._rng = DeterministicRandom(seed)

    def walk(self, max_steps: int) -> tuple[int, list[Violation], list[str]]:
        """One walk from the initial state; returns (steps, violations,
        path)."""
        state = self.model.initial_state()
        path: list[str] = []
        for step in range(max_steps + 1):
            violations = [Violation(name, message, state, list(path))
                          for name, message in failed_checks(
                              self.checks, self.model, state)]
            if violations or step == max_steps:
                return step, violations, path
            # successors() builds some transitions from sets: pick in
            # description order, not PYTHONHASHSEED's iteration order.
            transitions = sorted(self.model.successors(state),
                                 key=lambda t: t.description)
            if not transitions:
                return step, [], path
            pick = int.from_bytes(self._rng.random_bytes(4), "big")
            transition = transitions[pick % len(transitions)]
            path.append(transition.description)
            state = transition.target

    def run(self, walks: int, max_steps: int = 200) -> WalkResult:
        """Run a batch of walks; stop at the first violation."""
        result = WalkResult(walks=0, steps_taken=0)
        for _ in range(walks):
            steps, violations, _path = self.walk(max_steps)
            result.walks += 1
            result.steps_taken += steps
            if violations:
                result.violations.extend(violations)
                break
        return result
