"""The legacy protocol's flaws, discovered automatically (SEC-2.3).

The explorer finds the §2.3 weaknesses in the symbolic legacy model
with no scripted attack — the counterexample traces it returns ARE the
paper's attacks.  The improved protocol, checked for the equivalent
properties, is clean under the same exploration.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.formal.explorer import Explorer
from repro.formal.legacy_model import (
    LEGACY_CHECKS,
    LegacyConfig,
    LegacyEnclavesModel,
)
from repro.formal.model import EnclavesModel, ModelConfig
from repro.formal.properties import ALL_CHECKS

ROOT = Path(__file__).resolve().parents[2]


def explore_legacy(check_name, **cfg):
    config = LegacyConfig(**{**dict(max_sessions=2, max_rekeys=2), **cfg})
    model = LegacyEnclavesModel(config)
    return Explorer(
        model, checks={check_name: LEGACY_CHECKS[check_name]},
        stop_on_first=True, max_states=200_000,
    ).run()


class TestFlawDiscovery:
    def test_rekey_replay_discovered(self):
        """§2.3: 'An attacker can force A to reuse an old group key K'_g
        by replaying an old key-distribution message' — found by search."""
        result = explore_legacy("group_key_freshness")
        assert not result.ok
        violation = result.violations[0]
        assert "reverted" in violation.message
        # The counterexample applies a newer key, then an older one.
        applies = [s for s in violation.path if "applies new_key" in s]
        assert len(applies) >= 2

    def test_past_member_key_knowledge_discovered(self):
        """§2.3: 'The rekeying procedure is insecure unless all present
        and past participants are trustworthy' — a leaver keeps the
        group key; without rekey-on-leave the next session hands the
        member a key the ex-member knows."""
        result = explore_legacy("group_key_secrecy")
        assert not result.ok
        violation = result.violations[0]
        assert "known to the spy" in violation.message
        assert any("leaves; Oops" in step for step in violation.path)

    def test_rekey_duplication_discovered(self):
        """§3.1's no-duplication requirement fails for legacy new_key."""
        result = explore_legacy("rekey_no_duplication")
        assert not result.ok
        applies = [s for s in result.violations[0].path
                   if "applies new_key" in s]
        assert len(applies) == 2
        # The same key, applied twice.
        assert applies[0] == applies[1]

    def test_counterexamples_are_minimal_ish(self):
        """Discovery is cheap: tens of states, not thousands (BFS finds
        shortest traces first)."""
        for name in LEGACY_CHECKS:
            result = explore_legacy(name)
            assert result.states_explored < 200


class TestImprovedProtocolIsCleanInContrast:
    def test_improved_model_passes_equivalent_checks(self):
        """The same exploration effort against the improved protocol
        finds nothing: its rekeying rides the nonce-chained admin
        channel (prefix/no-duplicates checks subsume freshness and
        duplication; session-key secrecy subsumes key knowledge)."""
        model = EnclavesModel(ModelConfig(max_sessions=2, max_admin=2,
                                          spy_budget=1))
        result = Explorer(model, checks=dict(ALL_CHECKS),
                          stop_on_first=True).run()
        assert result.ok

    def test_flaw_requires_the_missing_nonce(self):
        """Sanity link between the models: the legacy flaw disappears
        in the improved model precisely because AdminMsg carries the
        member's chained nonce — the NoNonceChainModel mutant removes
        it and the same violation comes back."""
        from repro.formal.mutants import NoNonceChainModel

        model = NoNonceChainModel(ModelConfig(max_sessions=1, max_admin=2,
                                              spy_budget=0))
        result = Explorer(model, stop_on_first=True).run()
        assert not result.ok
        assert result.violations[0].check in ("prefix", "no_duplicates")


class TestLegacyModelMechanics:
    def test_happy_path_reaches_membership(self):
        model = LegacyEnclavesModel(LegacyConfig(max_sessions=1,
                                                 max_rekeys=0))
        result = Explorer(model, checks={}).run()
        assert result.states_explored > 3

    def test_fingerprints_merge_states(self):
        model = LegacyEnclavesModel(LegacyConfig(max_sessions=1,
                                                 max_rekeys=1))
        result = Explorer(model, checks={}).run()
        # Exploration terminates (finite, merged) within modest bounds.
        assert result.states_explored < 1000

    def test_search_order_does_not_follow_the_string_hash_seed(self):
        """The search visits the trace's parts in a sorted order, so the
        states it explores before the first counterexample are the same
        under every ``PYTHONHASHSEED`` (37 visited 39 where 0 visited
        40 while it walked the frozenset in set order)."""
        script = (
            "from tests.formal.test_legacy_model import explore_legacy;"
            "print(explore_legacy('group_key_freshness').states_explored)"
        )
        counts = {
            subprocess.run(
                [sys.executable, "-c", script], check=True,
                capture_output=True, text=True, cwd=ROOT,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(
                         [str(ROOT / "src"), str(ROOT)])},
            ).stdout
            for seed in ("0", "37", "68")
        }
        assert len(counts) == 1, counts
