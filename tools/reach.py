#!/usr/bin/env python3
"""Which functions under ``src/repro`` no shipped run enters.

Runs every declared entry point in-process under ``sys.settrace`` (call
events only) and reports each ``def`` / ``async def`` under
``src/repro`` — nested ones, methods and properties included — whose
code object never ran.  The entry points are what ships and what CI
runs:

* the seeded CLI rows of ``tools/seeded_streams.py`` (``ROWS``, imported);
* ``COMMANDS``: the seeded ``python -m repro`` commands that CI or a user
  runs and the manifest lacks;
* every ``examples/*.py`` as ``__main__``;
* every end-to-end workload of ``benchmarks/e2e/workloads.py`` at the
  suite's quick scale, untraced and traced.

``--check`` fails on an unreached def that ``tools/reach_allowlist.txt``
does not name, and on a stale allow-list entry: one that is reached, that
names no def, or (reason ``bench``) whose name no file under
``benchmarks/`` still mentions.  Each entry carries one reason from
``REASONS`` or ``item N`` (an open ROADMAP item decides it); at most
``TEST_SEAM_CAP`` entries may be test seams.

    python tools/reach.py            # what is unreached, by package
    python tools/reach.py --check    # exit 1 on a problem (about 30 s)
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
SRC = ROOT / "src" / "repro"
ALLOWLIST = TOOLS / "reach_allowlist.txt"
ROADMAP = ROOT / "ROADMAP.md"

#: ``abstract``: an abstract method or protocol stub.  ``error-path``: runs
#: only on malformed input, a violated invariant, a failure, an abort or
#: back-pressure.  ``reference``: an oracle a test compares shipped code
#: against.  ``bench``: a file under ``benchmarks/`` names it.
#: ``test-seam``: a hook tests use to observe a property or inject a fault.
#: ``item N`` (an open ROADMAP item decides it) is the one open-ended form.
REASONS = ("abstract", "error-path", "reference", "bench", "test-seam")
TEST_SEAM_CAP = 40

#: Seeded ``python -m repro`` commands that CI runs or a user is told to
#: run, and that ``seeded_streams.ROWS`` lacks; ``{out}`` is a temp path.
COMMANDS = (
    "demo",
    "verify",
    "render 2 3 4 --format dot",
    "render 2 3 4 --format ascii",
    "attack-matrix",
    "trace --scenario demo",
    "trace --scenario chaos --prometheus",
    "obs trace --seed 7 --out {out}",
    "obs profile --seed 7 --out {out}",
    "obs flightrec --seed 7 --out {out}",
    "obs slo --scenario chaos --out {out}",
    "obs slo --scenario equivocation",
    "report --out {out}",
)
E2E_SEED = 11


@dataclass(frozen=True)
class Def:
    """One ``def``: ``id`` is ``<path under src/repro>::<Qual.name>``."""

    id: str
    name: str
    first: int  # the code object's co_firstlineno: the first decorator's line
    line: int  # the ``def`` line
    end: int

    @property
    def lines(self) -> int:
        return self.end - self.first + 1

    @property
    def package(self) -> str:
        head = self.id.split("::")[0].split("/")
        return head[0] if len(head) > 1 else head[0].removesuffix(".py")


def index(root: Path = SRC) -> dict[tuple[str, int], Def]:
    """Every def under ``root``, keyed as its code object is:
    ``(co_filename, co_firstlineno)``."""
    found: dict[tuple[str, int], Def] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        file = os.path.realpath(path)

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    first = min(
                        [d.lineno for d in child.decorator_list]
                        + [child.lineno]
                    )
                    found[file, first] = Def(
                        f"{rel}::{qual}", child.name, first,
                        child.lineno, child.end_lineno,
                    )
                    walk(child, f"{qual}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


@contextlib.contextmanager
def probe():
    """Collect the code object of every Python frame entered inside the
    block, on this thread and on threads started inside it."""
    # Keyed by identity: code objects compare equal across files when
    # their name, first line and body match (two one-line ``__init__``s
    # at the same line), and a set would keep only one of them.
    seen: dict[int, object] = {}

    def on_call(frame, event, arg):
        seen[id(frame.f_code)] = frame.f_code  # no per-line tracing

    previous = sys.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        yield seen
    finally:
        threading.settrace(None)
        sys.settrace(previous)


def reached(seen: dict, defs: dict[tuple[str, int], Def]) -> set[str]:
    """Ids of the defs whose code objects ``probe`` collected."""
    ids, paths = set(), {}
    for code in seen.values():
        name = code.co_filename
        if name not in paths:
            paths[name] = os.path.realpath(name)
        hit = defs.get((paths[name], code.co_firstlineno))
        if hit is not None and hit.name == code.co_name:
            ids.add(hit.id)
    return ids


# -- the entry points --------------------------------------------------------

def run_entry_points() -> list[str]:
    """Run every shipped entry point; return one line per nonzero exit."""
    sys.path.insert(0, str(TOOLS))
    import seeded_streams  # pins the fast backend and puts src/ on the path

    notes = []
    with tempfile.TemporaryDirectory() as workdir:
        for row in seeded_streams.ROWS + COMMANDS:
            code = seeded_streams.run_row(row, workdir)["exit"]
            if code:
                notes.append(f"exit {code}: python -m repro {row}")
    for example in sorted((ROOT / "examples").glob("*.py")):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                runpy.run_path(str(example), run_name="__main__")
            except SystemExit as exc:
                if exc.code:
                    notes.append(f"exit {exc.code}: {example.name}")
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from e2e import run as e2e_run, workloads

    for workload in workloads.WORKLOADS.values():
        for traced in (False, True):
            rep = workloads.run(workload, E2E_SEED, e2e_run.QUICK_SCALE, traced)
            if rep.problems:
                notes.append(f"{workload.name} traced={traced}: {rep.problems}")
    return notes


# -- the allow-list ----------------------------------------------------------

def load_allowlist(path: Path = ALLOWLIST) -> list[tuple[str, str]]:
    """``(def id, reason)`` per entry line; ``#`` starts a comment line."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            ident, _, reason = line.partition(" ")
            entries.append((ident, reason.strip()))
    return entries


def open_items(roadmap: Path = ROADMAP) -> set[int]:
    """Numbers of the items under ROADMAP's *Open items* that are not
    retired."""
    text = roadmap.read_text().split("\n## Open items", 1)[-1]
    text = text.split("\n## ", 1)[0]
    return {
        int(number)
        for number, head in re.findall(r"^(\d+)\. (.*)$", text, re.M)
        if "Retired" not in head
    }


def bench_name(ident: str) -> str:
    """The name a benchmark would use for a def: its own, or its class's
    for a dunder method (``ExponentialDelay`` for its ``__init__``)."""
    parts = ident.split("::")[1].split(".")
    if parts[-1].startswith("__") and len(parts) > 1:
        return parts[-2]
    return parts[-1]


def bench_text(root: Path = ROOT / "benchmarks") -> str:
    return "\n".join(p.read_text() for p in sorted(root.rglob("*.py")))


def allowlist_problems(entries, defs, bench: str, items: set[int]) -> list[str]:
    """What is wrong with the allow-list itself, whatever ran."""
    by_id = {d.id: d for d in defs.values()}
    problems, counted = [], Counter(ident for ident, _ in entries)
    for ident, reason in entries:
        item = re.fullmatch(r"item (\d+)", reason)
        if ident not in by_id:
            problems.append(f"stale: {ident} names no def")
        elif reason == "bench" and not re.search(
            rf"\b{re.escape(bench_name(ident))}\b", bench
        ):
            problems.append(
                f"stale: {ident} is `bench` but no file under benchmarks/ "
                f"names {bench_name(ident)}"
            )
        if reason not in REASONS and not item:
            problems.append(f"{ident}: reason {reason!r} is not one of "
                            f"{', '.join(REASONS)} or `item N`")
        elif item and int(item.group(1)) not in items:
            problems.append(f"{ident}: ROADMAP has no open item {item.group(1)}")
    problems += [f"{ident} is listed {n} times"
                 for ident, n in counted.items() if n > 1]
    seams = sum(reason == "test-seam" for _, reason in entries)
    if seams > TEST_SEAM_CAP:
        problems.append(f"{seams} test-seam entries (at most {TEST_SEAM_CAP})")
    return problems


def check(unreached: set[str], known: set[str], entries) -> list[str]:
    """Unreached defs the allow-list does not name, and listed defs that
    are reached after all."""
    listed = {ident for ident, _ in entries}
    return (
        [f"unreached and not allow-listed: {i}"
         for i in sorted(unreached - listed)]
        + [f"stale: {i} is reached"
           for i in sorted((listed & known) - unreached)]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on an unlisted unreached def or a stale entry")
    args = parser.parse_args(argv)

    defs = index()
    with probe() as seen:
        notes = run_entry_points()
    hit = reached(seen, defs)
    by_id = {d.id: d for d in defs.values()}
    unreached = set(by_id) - hit
    entries = load_allowlist()
    reasons = dict(entries)

    for note in notes:
        print(f"note: {note}")
    packages: Counter[str] = Counter()
    lines: Counter[str] = Counter()
    for ident in unreached:
        packages[by_id[ident].package] += 1
        lines[by_id[ident].package] += by_id[ident].lines
    print(f"{len(unreached)} of {len(defs)} defs under src/repro unreached "
          f"({sum(lines.values())} lines)")
    for package, n in sorted(packages.items(), key=lambda p: (-p[1], p[0])):
        print(f"  {package:<16} {n:>4} defs {lines[package]:>5} lines")
    per_reason = Counter(
        reason for ident, reason in entries if ident in unreached
    )
    items = sorted((r for r in per_reason if r not in REASONS),
                   key=lambda r: int(r.split()[1]))
    print("allow-listed: " + ", ".join(
        f"{reason} {per_reason[reason]}" for reason in (*REASONS, *items)
    ))
    if not args.check:
        for ident in sorted(unreached):
            d = by_id[ident]
            print(f"{ident}  ({d.lines} lines)  {reasons.get(ident, '-')}")
        return 0
    problems = allowlist_problems(entries, defs, bench_text(), open_items())
    problems += check(unreached, set(by_id), entries)
    for problem in problems:
        print(problem)
    print("reach check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
