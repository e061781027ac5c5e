"""Overload machinery wired through the stack's layers.

A shard's bounded intake is opt-in (no mailbox = a loud error on
``enqueue``); the data plane's adaptive retransmit deadline tightens
on the round trips it observes.
"""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.exceptions import StateError
from repro.fabric.shard import ShardHost
from repro.overload.deadline import LatencyTracker
from repro.overload.mailbox import BoundedMailbox
from repro.storage.simdisk import SimDisk
from repro.wire.labels import Label
from repro.wire.message import Envelope


class TestShardBoundedIntake:
    def build(self, mailbox=None):
        rng = DeterministicRandom(4)
        host = ShardHost(
            "shard-0", SimDisk(rng=rng.fork("disk")),
            rng=rng.fork("host"), mailbox=mailbox,
        )
        return host

    def test_no_mailbox_enqueue_is_loud(self):
        host = self.build()
        with pytest.raises(StateError, match="no bounded intake"):
            host.enqueue(Envelope(Label.APP_DATA, "a", "shard-0", b""))
        with pytest.raises(StateError):
            host.pump(1)

    def test_enqueue_sheds_past_capacity(self):
        mailbox = BoundedMailbox("shard-0", capacity=2)
        host = self.build(mailbox=mailbox)
        frames = [
            Envelope(Label.APP_DATA, "m", "shard-0", bytes([i]))
            for i in range(5)
        ]
        accepted = [host.enqueue(f) for f in frames]
        assert accepted == [True, True, False, False, False]
        assert host.stats.shed == 3

    def test_pump_drains_through_the_demux(self):
        mailbox = BoundedMailbox("shard-0", capacity=8)
        host = self.build(mailbox=mailbox)
        # A frame for a never-hosted group demuxes to a loud rejection
        # — enough to prove the pump drives handle().
        from repro.enclaves.common import Rejected
        from repro.wire.message import wrap_group
        inner = Envelope(Label.AUTH_INIT_REQ, "alice", "ghost-grp", b"")
        host.enqueue(wrap_group("ghost-grp", inner, "shard-0"))
        _, events = host.pump(8)
        assert [type(e) for e in events] == [Rejected]
        assert host.stats.frames_in == 1
        assert host.stats.foreign_rejected == 1
        assert mailbox.depth == 0


class TestAdaptiveDeadline:
    def test_adaptive_deadline_tightens_after_joins(self):
        tracker = LatencyTracker()
        # What the data plane's ACK round trips feed: fast operations.
        for _ in range(10):
            tracker.observe(0.02)
        assert tracker.deadline() < 0.5  # far below the 1s static default
