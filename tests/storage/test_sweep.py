"""The crash-point sweep as a test.

Tier-1 runs a strided subsample (fast, still crossing every fault mode,
the compaction boundary and the group-committed flushes); the chaos
marker runs the exhaustive sweep on a seed matrix, mirroring `python -m
repro durability`.
"""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.storage.simdisk import SimDisk
from repro.storage.sweep import SweepConfig, _Run, run_crash_sweep


class TestSweepSubsampled:
    def test_strided_sweep_passes(self):
        report = run_crash_sweep(SweepConfig(seed=7, stride=7))
        assert report.ok, "\n".join(report.failures)
        assert report.cases > 0
        assert report.warm > 0
        # Some crashes struck the append/fsync of a whole flush's
        # record; report.ok says each withheld every frame of it and
        # that nobody connected had to re-authenticate.
        assert report.flush_crashes > 0

    def test_script_reaches_group_commit(self):
        """The batched half of the script really is group-committed:
        flushes carrying several mutating frames, one record each."""
        run = _Run(SweepConfig(seed=7), SimDisk(
            rng=DeterministicRandom(7).fork("disk")))
        flushes = []
        handle_many = run.leader.handle_many

        def spying(envelopes):
            before = run.journal.appends
            result = handle_many(envelopes)
            flushes.append((len(envelopes), run.journal.appends - before))
            return result

        run.leader.handle_many = spying  # instance shadow
        run.execute()
        assert max(frames for frames, _ in flushes) >= 3
        assert all(records <= 1 for _, records in flushes)

    def test_torn_and_lost_tails_are_truncated_not_fatal(self):
        report = run_crash_sweep(SweepConfig(
            seed=5, stride=5, modes=("torn", "lost", "bitrot"),
        ))
        assert report.ok, "\n".join(report.failures)
        assert report.truncated > 0

    def test_batched_fsync_trades_warmth_not_safety(self):
        """fsync_every > 1 may force re-authentication (members can be
        ahead of the journal) but never corrupt recovered state."""
        report = run_crash_sweep(SweepConfig(
            seed=7, stride=9, fsync_every=4, modes=("lost",),
        ))
        assert report.ok, "\n".join(report.failures)

    def test_report_table_renders(self):
        report = run_crash_sweep(SweepConfig(
            seed=3, stride=17, modes=("failstop",),
        ))
        table = report.format_table()
        assert "verdict" in table
        assert "PASS" in table


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [3, 7, 11])
class TestSweepExhaustive:
    def test_full_sweep(self, seed):
        report = run_crash_sweep(SweepConfig(seed=seed))
        assert report.ok, "\n".join(report.failures)
        # Every write boundary was crashed under every crash mode.
        assert report.cases >= 3 * report.total_writes
