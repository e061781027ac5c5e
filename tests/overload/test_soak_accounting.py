"""The overload soak's report counts what its intake and leader did.

Two gaps the headline verdict once hid: a frame evicted to make room
was shed without being counted in ``frames_shed``, and a member whose
ACK was shed could end the run stranded in ``WAITING_FOR_ACK`` while
the report still said "SLO met".
"""

import pytest

from repro.overload import soak
from repro.overload.soak import FLOODER, OverloadConfig, run_overload_soak

#: The 8 s config of ``test_overload_soak.py``.
CONFIG = OverloadConfig(seed=7, duration=8.0, surge_at=4.0, flood_until=7.0)


@pytest.mark.parametrize("fair_share", [True, False],
                         ids=["fair-share", "no-fair-share"])
def test_every_shed_is_counted_once(monkeypatch, fair_share):
    """A small intake evicts; each eviction is a shed like any other."""
    monkeypatch.setattr(soak, "MAILBOX_CAPACITY", 8)
    if not fair_share:
        monkeypatch.setattr(soak, "FairShareAdmission", lambda: None)
    run = soak._StackRun("protected", CONFIG, None)
    rep = run.run()
    stats = run.mailbox.stats
    assert stats.evicted > 0
    # The e2e workload's formula: refused at the door, plus evicted.
    assert rep.frames_shed == stats.offered - stats.accepted + stats.evicted
    assert rep.shed_honest == sum(
        n for sender, n in stats.shed_by_sender.items() if sender != FLOODER
    )
    assert rep.shed_flooder + rep.shed_honest == rep.frames_shed


def test_protected_stack_strands_nobody_without_a_flood():
    """Ten surge joins in one tick make ``user-000`` send more ACKs
    than its CONTROL bucket holds; the leader's resend recovers them."""
    report = run_overload_soak(
        OverloadConfig(seed=7, duration=8.0, surge_at=4.0,
                       flood_until=7.0, flood_rate=0.0)
    )
    assert report.protected.shed_honest > 0
    assert report.protected.members_stranded == 0
    assert report.protected.slo_met


def test_stranded_members_are_reported():
    report = run_overload_soak(CONFIG)
    assert report.protected.members_stranded == 0
    # Joins still queued behind the flood leave handshakes half open.
    assert report.unprotected.members_stranded == 3
    assert "members stranded" in soak.render_report(report)
