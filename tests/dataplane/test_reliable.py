"""Tests for the end-to-end ACK/NACK reliability layer."""

from repro.crypto.keys import KEY_LEN, GroupKey
from repro.dataplane.channel import DataChannel, decode_data_body
from repro.dataplane.reliable import (
    ReliableReceiver,
    ReliableSender,
    unwrap_msg,
    wrap_msg,
)
from repro.telemetry.events import EventBus, RetryBudgetExhausted
from repro.overload.deadline import RetryBudget

KEY_A = GroupKey(b"\x33" * KEY_LEN)
KEY_B = GroupKey(b"\x44" * KEY_LEN)


def rig(peers=("bob",), epoch=1):
    """One reliable sender (alice) and one reliable receiver (bob)."""
    alice_ch = DataChannel("alice")
    bob_ch = DataChannel("bob")
    alice_ch.rebind(KEY_A, epoch)
    bob_ch.rebind(KEY_A, epoch)
    sender = ReliableSender("alice", alice_ch, peers=lambda: list(peers))
    receiver = ReliableReceiver("bob", bob_ch)
    return sender, receiver, alice_ch, bob_ch


class TestMsgFraming:
    def test_roundtrip(self):
        assert unwrap_msg(wrap_msg(7, b"payload")) == (7, b"payload")

    def test_bare_payload_passthrough(self):
        assert unwrap_msg(b"not framed") == (None, b"not framed")

    def test_empty_payload(self):
        assert unwrap_msg(wrap_msg(0, b"")) == (0, b"")


class TestAckFlow:
    def test_ack_clears_pending(self):
        sender, receiver, _, _ = rig()
        env = sender.send(b"one", "leader", now=0.0)
        delivery, control = receiver.on_data(env, "leader")
        assert delivery == ("alice", 0, b"one")
        assert sender.pending == 1
        sender.on_ack(control[0], now=0.1)
        assert sender.pending == 0
        assert sender.fully_acked == 1

    def test_ack_observes_rtt(self):
        sender, receiver, _, _ = rig()
        env = sender.send(b"one", "leader", now=0.0)
        _, control = receiver.on_data(env, "leader")
        sender.on_ack(control[0], now=0.5)
        assert sender.tracker.samples == 1

    def test_partial_peers_keep_pending(self):
        """Both peers must ack before a frame is collected."""
        sender, receiver, _, _ = rig(peers=("bob", "carol"))
        env = sender.send(b"one", "leader", now=0.0)
        _, control = receiver.on_data(env, "leader")
        sender.on_ack(control[0], now=0.1)
        assert sender.pending == 1  # carol hasn't acked

    def test_foreign_origin_ack_ignored(self):
        sender, receiver, _, _ = rig()
        env = sender.send(b"one", "leader", now=0.0)
        _, control = receiver.on_data(env, "leader")
        other = ReliableSender("carol", receiver.channel,
                               peers=lambda: ["bob"])
        other.on_ack(control[0], now=0.1)  # not carol's frame
        assert sender.pending == 1


class TestNackFlow:
    def test_gap_nacked_and_refilled(self):
        sender, receiver, _, _ = rig()
        lost = sender.send(b"first", "leader", now=0.0)
        env2 = sender.send(b"second", "leader", now=0.0)
        delivery, control = receiver.on_data(env2, "leader")
        assert delivery[2] == b"second"
        # ACK (cum -1: nothing contiguous) + NACK naming the gap.
        assert len(control) == 2
        sender.on_ack(control[0], now=0.1)
        assert sender.pending == 2  # cum was -1
        retransmits = sender.on_nack(control[1])
        assert retransmits == [lost]
        delivery, control = receiver.on_data(retransmits[0], "leader")
        assert delivery[2] == b"first"
        sender.on_ack(control[0], now=0.2)
        assert sender.pending == 0


class TestRetransmitTimer:
    def test_overdue_frames_retransmit(self):
        sender, _, _, _ = rig()
        env = sender.send(b"one", "leader", now=0.0)
        assert sender.tick(now=0.1) == []  # not overdue yet
        out = sender.tick(now=10.0)
        assert out == [env]
        assert sender.retransmits == 1

    def test_budget_bounds_retransmits(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        sender, _, _, _ = rig()
        sender._telemetry = bus
        sender.budget = RetryBudget(ratio=0.0, min_reserve=2)
        sender.send(b"one", "leader", now=0.0)
        total = 0
        for i in range(10):
            total += len(sender.tick(now=10.0 * (i + 1)))
        assert total == 2  # reserve spent, then silence
        exhausted = [r for r in records
                     if isinstance(r.event, RetryBudgetExhausted)]
        assert len(exhausted) == 1  # emitted once, not per tick


class TestEpochRebind:
    def test_rebind_reseals_pending(self):
        sender, receiver, alice_ch, bob_ch = rig()
        sender.send(b"unacked", "leader", now=0.0)
        alice_ch.rebind(KEY_B, 2)
        bob_ch.rebind(KEY_B, 2)
        out = sender.rebind(now=1.0)
        assert len(out) == 1
        # Re-sealed at the head of the new epoch's chain, which this
        # very seal seeded (rebinding the channel derived nothing).
        assert decode_data_body(out[0].body)[:3] == ("alice", 2, 0)
        delivery, control = receiver.on_data(out[0], "leader")
        assert delivery[2] == b"unacked"
        sender.on_ack(control[0], now=1.1)
        assert sender.pending == 0

    def test_cross_epoch_duplicate_suppressed(self):
        """Delivered at epoch 1, ack lost, re-sealed at epoch 2: the
        receiver must not hand the payload to the application twice —
        but must still ack so the sender's pending clears."""
        sender, receiver, alice_ch, bob_ch = rig()
        env = sender.send(b"once only", "leader", now=0.0)
        delivery, _control = receiver.on_data(env, "leader")  # ack lost
        assert delivery is not None
        alice_ch.rebind(KEY_B, 2)
        bob_ch.rebind(KEY_B, 2)
        out = sender.rebind(now=1.0)
        delivery, control = receiver.on_data(out[0], "leader")
        assert delivery is None
        assert receiver.duplicates_suppressed == 1
        assert control  # the duplicate still acks
        sender.on_ack(control[0], now=1.1)
        assert sender.pending == 0

    def test_fresh_payload_after_rebind_delivers(self):
        sender, receiver, alice_ch, bob_ch = rig()
        alice_ch.rebind(KEY_B, 2)
        bob_ch.rebind(KEY_B, 2)
        env = sender.send(b"new epoch", "leader", now=0.0)
        delivery, _ = receiver.on_data(env, "leader")
        assert delivery[2] == b"new epoch"
