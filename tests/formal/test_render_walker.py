"""Tests for figure rendering and the random walker."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.formal.diagram import DIAGRAM
from repro.formal.model import EnclavesModel, ModelConfig
from repro.formal.render import (
    FIGURE2_EDGES,
    FIGURE3_EDGES,
    observed_leader_edges,
    observed_user_edges,
    render_figure2,
    render_figure3,
    render_figure4,
)
from repro.formal.walker import RandomWalker

ROOT = Path(__file__).resolve().parents[2]


class TestRenderings:
    def test_dot_outputs_are_valid_digraphs(self):
        for renderer in (render_figure2, render_figure3, render_figure4):
            dot = renderer("dot")
            assert dot.startswith("digraph")
            assert dot.rstrip().endswith("}")
            assert "->" in dot

    def test_ascii_outputs_readable(self):
        assert "user state machine" in render_figure2("ascii")
        assert "leader per-user state machine" in render_figure3("ascii")
        assert "verification diagram" in render_figure4("ascii")

    def test_figure4_covers_all_boxes(self):
        dot = render_figure4("dot")
        for name in DIAGRAM:
            assert f'"{name}"' in dot

    def test_figure2_matches_executable_model(self):
        """The rendered Figure 2 edge set equals what the explorer
        actually observes for the user A."""
        rendered = {
            (f"U{source}".replace("U", "U", 1), f"U{target}")
            for source, _label, target in FIGURE2_EDGES
        }
        rendered = {(f"U{s}", f"U{t}") for s, _l, t in FIGURE2_EDGES}
        observed = observed_user_edges()
        assert observed == rendered

    def test_figure3_matches_executable_model(self):
        rendered = {(f"L{s}", f"L{t}") for s, _l, t in FIGURE3_EDGES}
        observed = observed_leader_edges()
        assert observed == rendered


class TestRandomWalker:
    def test_deep_walks_hold_all_invariants(self):
        config = ModelConfig(
            max_sessions=20, max_admin=50, spy_budget=5,
        )
        walker = RandomWalker(EnclavesModel(config), seed=3)
        result = walker.run(walks=8, max_steps=120)
        assert result.ok, str(result.violations[0])
        assert result.steps_taken > 50

    def test_walks_with_compromised_member(self):
        config = ModelConfig(
            max_sessions=10, max_admin=20, spy_budget=5,
            compromised_member=True, max_c_sessions=3, max_c_admin=3,
        )
        walker = RandomWalker(EnclavesModel(config), seed=4)
        result = walker.run(walks=6, max_steps=100)
        assert result.ok, str(result.violations[0])

    def test_walker_finds_mutant_flaws(self):
        from repro.formal.mutants import NoNonceChainModel

        config = ModelConfig(max_sessions=2, max_admin=4, spy_budget=0)
        walker = RandomWalker(NoNonceChainModel(config), seed=0)
        result = walker.run(walks=30, max_steps=80)
        assert not result.ok
        assert result.violations[0].check in ("prefix", "no_duplicates")

    def test_deterministic_given_seed(self):
        config = ModelConfig(max_sessions=3, max_admin=3, spy_budget=1)
        r1 = RandomWalker(EnclavesModel(config), seed=9).run(3, 50)
        r2 = RandomWalker(EnclavesModel(config), seed=9).run(3, 50)
        assert r1.steps_taken == r2.steps_taken

    def test_walks_independent_of_the_string_hash_seed(self):
        """``successors()`` builds some transitions from sets; the walker
        picks among them in a hash-free order, so one seed walks the
        same path in every interpreter."""
        outputs = {
            subprocess.run(
                [sys.executable, "-m", "repro", "verify", "--walks", "5",
                 "--seed", "3"],
                check=True, capture_output=True, text=True, cwd=ROOT,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "REPRO_CRYPTO_BACKEND": "fast",
                     "PYTHONPATH": str(ROOT / "src")},
            ).stdout
            for seed in ("0", "1")
        }
        assert len(outputs) == 1, outputs

    @pytest.mark.slow
    def test_long_walk_campaign(self):
        config = ModelConfig(
            max_sessions=100, max_admin=200, spy_budget=20,
            compromised_member=True, max_c_sessions=10, max_c_admin=10,
        )
        walker = RandomWalker(EnclavesModel(config), seed=11)
        result = walker.run(walks=30, max_steps=300)
        assert result.ok, str(result.violations[0])
        assert result.steps_taken > 500
