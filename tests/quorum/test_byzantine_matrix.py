"""The comparative soak matrix: quorum survives what the paper's own
single-manager architecture provably does not.

The fast tests run one cell per claim shape inline; the full grid —
every fault x both stacks x several seeds, plus the byte-identical
JSONL determinism check CI diffs on failure — is ``chaos``-marked
(deselected by default, run by the CI ``quorum`` job and
``pytest -m chaos``).
"""

import dataclasses

import pytest

from repro.quorum.byzantine import FAULT_NAMES
from repro.quorum.soak import (
    format_byzantine_matrix,
    run_byzantine_matrix,
    run_quorum_soak,
    soak_as_expected,
)
from repro.telemetry import EventBus, attach_jsonl, validate_jsonl
from repro.util.clock import TickClock


class TestSingleCells:
    """One cell per fault on the quorum stack (fast, seed-pinned)."""

    @pytest.mark.parametrize("fault", FAULT_NAMES)
    def test_quorum_stack_survives(self, fault):
        report = run_quorum_soak(fault, stack="quorum", seed=7)
        assert report.safe, report.violations
        assert report.detected, report.detail
        assert report.converged
        assert report.view_changes == 1  # exactly one eviction healed it

    def test_single_stack_breaks_under_equivocation(self):
        report = run_quorum_soak("equivocation", stack="single", seed=7)
        assert not report.safe
        assert any("disagreement" in v for v in report.violations)

    def test_single_stack_breaks_under_corruption(self):
        """The silent-rollback promotion: members end up *ahead of*
        their own re-hosted manager."""
        report = run_quorum_soak("corruption", stack="single", seed=7)
        assert not report.safe

    def test_unknown_fault_and_stack_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            run_quorum_soak("gremlins")
        with pytest.raises(ValueError, match="unknown stack"):
            run_quorum_soak("equivocation", stack="triplex")


class TestReportShape:
    def test_as_dict_round_trips_the_verdict_inputs(self):
        report = run_quorum_soak("withholding", stack="quorum", seed=3)
        data = dataclasses.asdict(report)
        assert data["stack"] == "quorum"
        assert data["fault"] == "withholding"
        assert data["seed"] == 3
        assert data["violations"] == []
        assert data["n_members"] == 3
        assert soak_as_expected(report)

    def test_formatting_carries_the_verdict(self):
        reports = run_byzantine_matrix(seed=7, faults=("withholding",))
        grid = format_byzantine_matrix(reports)
        assert "as expected" in grid
        assert "UNEXPECTED" not in grid


@pytest.mark.chaos
class TestFullMatrix:
    @pytest.mark.parametrize("seed", [7, 23, 101])
    def test_matrix_holds_for_seed(self, seed):
        reports = run_byzantine_matrix(seed=seed)
        assert len(reports) == len(FAULT_NAMES) * 2
        bad = [r for r in reports if not soak_as_expected(r)]
        assert not bad, format_byzantine_matrix(bad)
        # Quorum side: zero violations, every fault detected, exactly
        # one view change per drill.
        for report in reports:
            if report.stack == "quorum":
                assert report.violations == []
                assert report.view_changes == 1

    def test_jsonl_export_is_byte_identical_per_seed(self, tmp_path):
        """CI diffs the soak artifact on failure; that only means
        anything if a same-seed rerun reproduces it byte for byte."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            bus = EventBus()
            bus.set_clock(TickClock())
            bus.reset_seq()
            exporter = attach_jsonl(bus, str(path))
            run_byzantine_matrix(seed=7, telemetry=bus)
            exporter.close()
            validate_jsonl(str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

        other = tmp_path / "c.jsonl"
        bus = EventBus()
        bus.set_clock(TickClock())
        bus.reset_seq()
        exporter = attach_jsonl(bus, str(other))
        run_byzantine_matrix(seed=8, telemetry=bus)
        exporter.close()
        assert other.read_bytes() != paths[0].read_bytes()
