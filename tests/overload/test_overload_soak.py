"""Tests for the seeded overload chaos soak.

The acceptance shape from the issue: under the same seeded workload —
a flooding insider plus a join surge — the protected stack (bounded
mailbox + fair share) keeps honest join p99 inside the SLO
while the unprotected stack's queue grows without bound and joins
starve.  And the whole thing is deterministic: same seed, byte-identical
telemetry.
"""

from dataclasses import asdict

import pytest

from repro.overload.soak import (
    FLOODER,
    MAILBOX_CAPACITY,
    SLO_JOIN_P99,
    OverloadConfig,
    OverloadReport,
    render_report,
    run_overload_soak,
)
from repro.telemetry.events import EventBus
from repro.telemetry.export import JsonlExporter, validate_jsonl

#: Short enough to keep the suite quick, long enough for the surge and
#: the flood to collide (surge at 6s, flood for the whole window).
CONFIG = OverloadConfig(seed=7, duration=8.0, surge_at=4.0, flood_until=7.0)


@pytest.fixture(scope="module")
def report() -> OverloadReport:
    return run_overload_soak(CONFIG)


class TestProtectionHolds:
    def test_headline(self, report):
        assert report.protection_holds

    def test_unprotected_starves_honest_joins(self, report):
        rep = report.unprotected
        assert not rep.slo_met
        assert rep.joins_pending > 0
        assert rep.frames_shed == 0  # it never sheds — that's the bug

    def test_protected_completes_every_join_in_slo(self, report):
        rep = report.protected
        assert rep.slo_met
        assert rep.joins_pending == 0
        assert rep.joins_completed == rep.joins_started
        assert rep.join_p99 is not None
        assert rep.join_p99 <= SLO_JOIN_P99

    def test_bounded_queue(self, report):
        assert report.protected.max_queue_depth <= MAILBOX_CAPACITY
        assert report.unprotected.max_queue_depth > MAILBOX_CAPACITY

    def test_shed_fairness(self, report):
        """The shed pain lands on the flooder, not the honest members."""
        rep = report.protected
        assert rep.frames_shed > 0
        assert rep.shed_flooder > 0
        assert rep.shed_honest <= rep.frames_shed * 0.05

    def test_flood_work_mostly_refused(self, report):
        """The protected stack services far fewer flood frames."""
        assert (report.protected.flood_frames_serviced
                < report.unprotected.flood_frames_serviced / 4)


class TestDeterminism:
    def test_same_seed_same_report(self, report):
        again = run_overload_soak(CONFIG)
        assert again == report

    def test_report_is_seed_independent(self, report):
        """The workload is a fixed schedule: the seed moves only key
        material (and the JSONL frame ids), never a count or a
        latency."""
        other = run_overload_soak(
            OverloadConfig(seed=8, duration=8.0, surge_at=4.0,
                           flood_until=7.0)
        )
        other, mine = asdict(other), asdict(report)
        assert (other.pop("seed"), mine.pop("seed")) == (8, 7)
        assert other == mine

    def test_jsonl_byte_identical(self, tmp_path):
        config = OverloadConfig(seed=3, duration=4.0, surge_at=2.0,
                                flood_until=3.5)
        blobs = []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            bus = EventBus()
            exporter = JsonlExporter(str(path))
            bus.subscribe(exporter)
            run_overload_soak(config, telemetry=bus)
            exporter.close()
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        validate_jsonl(blobs[0].decode().splitlines())

    def test_flooder_name_is_stable(self):
        assert FLOODER == "mallory"


class TestRendering:
    def test_report_table(self, report):
        text = render_report(report)
        assert "protection holds" in text
        assert "unprotected" in text and "protected" in text
        assert "join p99" in text
