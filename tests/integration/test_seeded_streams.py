"""Same bytes as the manifest: every seeded CLI row's stdout and JSONL.

``tools/seeded_streams.py --check`` re-runs the deterministic CLI rows
in a fresh interpreter and compares their SHA-256 digests with
``tests/data/seeded_streams.json``.  The manifest pins bytes per Python
minor version (virtual-time scheduling across asyncio versions is
unverified); on an interpreter it has no entry for, the run-twice
``cmp`` steps in CI are the check and this one skips.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "tests" / "data" / "seeded_streams.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def test_seeded_streams_match_the_manifest():
    if PYTHON not in json.loads(MANIFEST.read_text()):
        pytest.skip(f"no seeded-stream manifest entry for Python {PYTHON}")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "seeded_streams.py"),
         "--check"],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
