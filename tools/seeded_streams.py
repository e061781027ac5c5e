#!/usr/bin/env python3
"""Same bytes as the parent, as a check instead of a private script.

Runs the 31 deterministic rows of EXPERIMENTS *DELETION-II* (plus the
attack-matrix trace of *STREAMS* and the seeded random walks of *SPANS*)
in-process through ``repro.cli.main`` on the ``fast`` crypto backend and
takes the SHA-256 of each row's stdout (export path masked) and of the
JSONL it exported.

``--write`` records the digests in ``tests/data/seeded_streams.json``
under this interpreter's minor version (virtual-time scheduling across
asyncio versions is unverified, so each version pins its own bytes);
``--check`` re-runs the rows, names every row that moved and exits
nonzero if one did.  A refactor that claims "no seeded byte moves" is
checked against the manifest written on its parent commit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "seeded_streams.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

# Pinned before anything imports `repro`: the backends are byte-identical
# (tests/crypto), `fast` keeps the run inside tier-1's budget.
os.environ["REPRO_CRYPTO_BACKEND"] = "fast"
sys.path.insert(0, str(ROOT / "src"))

#: ``python -m repro …`` per row; ``{out}`` is where the export path goes.
ROWS = (
    "churn --seed 7 --policy membership --telemetry {out}",
    "churn --seed 7 --policy on-leave --telemetry {out}",
    "churn --seed 7 --policy periodic --telemetry {out}",
    "churn --seed 7 --policy manual --telemetry {out}",
    "churn --seed 0 --users 12 --duration 90 --policy periodic --telemetry {out}",
    "churn --seed 3 --users 12 --duration 90 --policy periodic --telemetry {out}",
    "churn --seed 11 --users 12 --duration 90 --policy periodic --telemetry {out}",
    "report",
    "chaos --seed 7 --stack itgm --telemetry {out}",
    "chaos --seed 7 --stack legacy --telemetry {out}",
    "chaos --matrix",
    "fabric soak --seed 7 --groups 4 --shards 2 --duration 25 --telemetry {out}",
    "fabric migrate --telemetry {out}",
    "fabric demo",
    "quorum soak --seed 7 --out {out}",
    "quorum soak --seed 23 --out {out}",
    "quorum soak --seed 101 --out {out}",
    "quorum demo --out {out}",
    "quorum attack --out {out}",
    "data soak --seed 3 --out {out}",
    "data soak --seed 7 --out {out}",
    "data soak --seed 19 --out {out}",
    "data demo --out {out}",
    "data attack --out {out}",
    "overload soak --seed 7 --duration 12 --out {out}",
    "obs flightrec --seed 7",
    "durability --seed 3",
    "durability --seed 7",
    "durability --seed 11",
    "trace --scenario attack-matrix --out {out}",
    "verify --walks 5 --seed 3",
)


def _argv(row: str, path: str) -> list[str]:
    return [path if word == "{out}" else word for word in row.split()]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_row(row: str, workdir: str) -> dict:
    """Exit code, stdout digest and exported-JSONL digest of one row."""
    from repro.cli import main

    path = os.path.join(workdir, "export.jsonl")
    if os.path.exists(path):
        os.remove(path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = main(_argv(row, path))
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    text = stdout.getvalue().replace(path, "<export>")
    jsonl = None
    if os.path.exists(path):
        with open(path, "rb") as f:
            jsonl = _sha256(f.read())
    return {"exit": code, "stdout": _sha256(text.encode()), "jsonl": jsonl}


def digest_all() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as workdir:
        return {
            row.replace(" {out}", ""): run_row(row, workdir) for row in ROWS
        }


def _load() -> dict:
    if not MANIFEST.exists():
        return {}
    return json.loads(MANIFEST.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true",
                        help="record this tree's digests in the manifest")
    action.add_argument("--check", action="store_true",
                        help="compare this tree's digests to the manifest")
    args = parser.parse_args(argv)

    manifest = _load()
    if args.write:
        manifest[PYTHON] = digest_all()
        MANIFEST.parent.mkdir(parents=True, exist_ok=True)
        MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
        print(f"wrote {len(manifest[PYTHON])} rows for Python {PYTHON} "
              f"to {MANIFEST.relative_to(ROOT)}")
        return 0

    if PYTHON not in manifest:
        print(f"no manifest entry for Python {PYTHON} "
              f"(have: {', '.join(sorted(manifest)) or 'none'}); "
              "run --write on the parent commit first", file=sys.stderr)
        return 2
    expected, got = manifest[PYTHON], digest_all()
    moved = 0
    for name in {**expected, **got}:
        want, have = expected.get(name), got.get(name)
        if want == have:
            print(f"ok     {name}")
            continue
        moved += 1
        if want is None or have is None:
            what = "not in the manifest" if want is None else "not run"
        else:
            what = ", ".join(
                f"{field} {want[field]!s:.12} -> {have[field]!s:.12}"
                for field in ("exit", "stdout", "jsonl")
                if want[field] != have[field]
            )
        print(f"MOVED  {name}: {what}")
    print(f"\n{len(got) - moved} of {len(got)} seeded rows byte-identical "
          f"to the manifest (Python {PYTHON}, fast backend)")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
