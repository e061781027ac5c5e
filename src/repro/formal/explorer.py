"""Bounded-exhaustive exploration: the one search loop of the repository.

:func:`search` runs breadth first under :class:`Explorer` (the symbolic
models) and depth first under
:func:`repro.enclaves.modelcheck.explore_interleavings` (the real
sans-IO objects).  It merges states on a caller-supplied key (here
:meth:`GlobalState.fingerprint`: interleavings that agree on local
states, Parts(trace), spy knowledge, and logs are one state), enforces
the budget, runs the checks on every reached state and every explored
edge (the diagram's proof obligations), and reports each
:class:`Violation` with the event path that reaches it.
:class:`~repro.formal.walker.RandomWalker` shares :func:`failed_checks`.

This is the model-checking counterpart of the paper's PVS induction:
PVS proves invariance for all traces; the explorer verifies the same
predicates on every state reachable within the budgets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from repro.exceptions import PropertyViolation
from repro.formal.model import EnclavesModel, GlobalState, Transition
from repro.formal.properties import ALL_CHECKS, Check

#: Edge hooks get (model, source, transition) and return None or a message.
EdgeHook = Callable[[EnclavesModel, GlobalState, Transition], "str | None"]

#: What a check call returns: one (check name, message) per failed check.
Failures = list[tuple[str, str]]


@dataclass
class Violation:
    """A failed check with its counterexample."""

    check: str
    message: str
    state: object
    path: list[str]

    def __str__(self) -> str:
        steps = "\n  ".join(self.path) if self.path else "(initial state)"
        return f"[{self.check}] {self.message}\n  path:\n  {steps}"


@dataclass
class ExplorationResult:
    """Outcome of one search: distinct states reached from the start,
    edges taken, the longest path, and what failed."""

    states_explored: int
    transitions_explored: int
    violations: list[Violation] = field(default_factory=list)
    depth_reached: int = 0

    # The concrete explorer's names for the same outcome.
    worlds_explored = property(lambda self: self.states_explored)
    max_depth_reached = property(lambda self: self.depth_reached)
    violation = property(lambda self: self.violations[0].message
                         if self.violations else None)
    violating_schedule = property(lambda self: self.violations[0].path
                                  if self.violations else [])

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_on_violation(self) -> None:
        if self.violations:
            v = self.violations[0]
            raise PropertyViolation(str(v), state=v.state, trace=v.path)


def failed_checks(checks: dict[str, Check], model, state) -> Failures:
    """(name, message) for every check in ``checks`` that ``state`` fails."""
    return [(name, message) for name, check in checks.items()
            if (message := check(model, state)) is not None]


def search(
    start,
    successors: Callable[[object], Iterable],
    key: Callable[[object], Hashable],
    check: Callable[[object], Failures],
    edge_check: Callable[[object, object], Failures] | None = None,
    *,
    max_states: int,
    max_depth: int | None = None,
    depth_first: bool = False,
    stop_on_first: bool = True,
) -> ExplorationResult:
    """Check every state reachable from ``start``, each once.

    ``successors(state)`` yields edges with a ``description`` and a
    ``target``, taken one at a time from the oldest frontier entry
    (breadth first: shortest counterexamples) or the newest
    (``depth_first``: one path of states alive).  States at
    ``max_depth`` are checked, not expanded; more than ``max_states``
    distinct states raise :class:`PropertyViolation`.
    """
    result = ExplorationResult(states_explored=0, transitions_explored=0)
    start_key = key(start)
    # key -> (parent key, edge description): the visited set and the
    # counterexample paths in one dict.
    parents: dict = {start_key: (None, None)}

    def found(failures: Failures, state, state_key, last=None) -> bool:
        """Record failures, with the path to ``state_key`` then ``last``;
        True when the search stops."""
        if failures:
            steps = [last] if last is not None else []
            while state_key is not None:
                state_key, description = parents[state_key]
                if description is not None:
                    steps.append(description)
            result.violations += [Violation(name, message, state, steps[::-1])
                                  for name, message in failures]
        return stop_on_first and bool(failures)

    if found(check(start), start, start_key):
        return result
    # Entries are [state, key, depth, edges]; edges is made on first use,
    # so a waiting entry holds no successor list.
    frontier = deque([[start, start_key, 0, None]] if max_depth != 0 else [])
    while frontier:
        entry = frontier[-1] if depth_first else frontier[0]
        state, state_key, depth, edges = entry
        if edges is None:
            edges = entry[3] = iter(successors(state))
        edge = next(edges, None)
        if edge is None:
            (frontier.pop if depth_first else frontier.popleft)()
            continue
        result.transitions_explored += 1
        target = edge.target
        if edge_check is not None and found(
            edge_check(state, edge), target, state_key, edge.description
        ):
            return result
        target_key = key(target)
        if target_key in parents:
            continue
        parents[target_key] = (state_key, edge.description)
        result.states_explored += 1
        if result.states_explored > max_states:
            raise PropertyViolation(
                f"state budget exceeded ({max_states}); tighten the bounds"
            )
        result.depth_reached = max(result.depth_reached, depth + 1)
        if found(check(target), target, target_key):
            return result
        if max_depth is None or depth + 1 < max_depth:
            frontier.append([target, target_key, depth + 1, None])
    return result


@dataclass
class Explorer:
    """Breadth-first bounded-exhaustive explorer of a symbolic model;
    ``checks`` defaults to every §5 property."""

    model: EnclavesModel
    checks: dict[str, Check] | None = None
    edge_hooks: list[EdgeHook] | None = None
    max_states: int = 500_000
    stop_on_first: bool = True

    def run(self) -> ExplorationResult:
        """Explore all reachable states within the configured budgets."""
        model, hooks = self.model, self.edge_hooks
        checks = ALL_CHECKS if self.checks is None else self.checks

        def edge_check(state, transition) -> Failures:
            return [("edge", message) for hook in hooks
                    if (message := hook(model, state, transition)) is not None]

        return search(
            model.initial_state(), model.successors,
            lambda state: state.fingerprint(),
            lambda state: failed_checks(checks, model, state),
            edge_check if hooks else None,
            max_states=self.max_states, stop_on_first=self.stop_on_first,
        )
