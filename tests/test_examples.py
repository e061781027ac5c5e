"""The asyncio examples run end to end.

Each example is a subprocess on the crypto backend the suite runs on;
it must exit 0 and print one line that does not depend on random keys,
ports or timing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

NOTICES = [f"notice-{i}" for i in range(10)]

EXPECTED = {
    "quickstart": "after carol leaves: members = ['alice', 'bob'], "
                  "group-key epoch = 3",
    "secure_chat_tcp": "everyone left; members = []",
    "shared_document": "All replicas hold the same document, "
                       "in the same order —",
    "adversarial_network": f"   notices in order: {NOTICES}",
    "extensions_demo": "post-failover chat received by bob: "
                       "[b'we survived']",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert EXPECTED[name] in result.stdout.splitlines(), result.stdout
