"""Tests for the end-to-end ACK/NACK reliability layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import build_data
from repro.crypto.keys import KEY_LEN, GroupKey
from repro.crypto.provider import using_provider
from repro.dataplane.channel import DataChannel, data_ad, decode_data_body
from repro.dataplane.reliable import (
    ReliableReceiver,
    ReliableSender,
    _control_ad,
    _control_ad_head,
    bundle_control,
    decode_control_routing,
    unbundle_control,
    unwrap_msg,
    wrap_msg,
)
from repro.enclaves.itgm.member import app_ad
from repro.telemetry.events import EventBus, RetryBudgetExhausted
from repro.overload.deadline import LatencyTracker, RetryBudget
from repro.wire.codec import encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope

KEY_A = GroupKey(b"\x33" * KEY_LEN)
KEY_B = GroupKey(b"\x44" * KEY_LEN)


def group(peers, epoch=1, key=KEY_A):
    """Alice's reliable sender and one reliable receiver per peer."""
    alice_ch = DataChannel("alice")
    alice_ch.rebind(key, epoch)
    sender = ReliableSender("alice", alice_ch, peers=lambda: list(peers))
    receivers = {}
    for peer in peers:
        channel = DataChannel(peer)
        channel.rebind(key, epoch)
        receivers[peer] = ReliableReceiver(peer, channel)
    return sender, receivers


def rig(peers=("bob",), epoch=1):
    """One reliable sender (alice) and one reliable receiver (bob)."""
    sender, receivers = group(peers, epoch)
    bob = receivers["bob"]
    return sender, bob, sender.channel, bob.channel


def relayed(*uplinks, label=None):
    """The downlink frame the relay makes of these uplink control
    frames: their bodies verbatim, as one bundle for the origin."""
    origin = decode_control_routing(uplinks[0].body)[0]
    return Envelope(
        label or uplinks[0].label, "leader", origin,
        bundle_control([u.body for u in uplinks]),
    )


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
        sender.on_ack(relayed(control[0]), now=0.1)
        assert sender.pending == 0
        assert sender.fully_acked == 1

    def test_ack_observes_rtt(self):
        sender, receiver, _, _ = rig()
        env = sender.send(b"one", "leader", now=0.0)
        _, control = receiver.on_data(env, "leader")
        sender.on_ack(relayed(control[0]), now=0.5)
        assert sender.tracker.samples == 1

    def test_partial_peers_keep_pending(self):
        """Both peers must ack before a frame is collected."""
        sender, receiver, _, _ = rig(peers=("bob", "carol"))
        env = sender.send(b"one", "leader", now=0.0)
        _, control = receiver.on_data(env, "leader")
        sender.on_ack(relayed(control[0]), now=0.1)
        assert sender.pending == 1  # carol hasn't acked

    def test_foreign_origin_ack_ignored(self):
        sender, receiver, _, _ = rig()
        env = sender.send(b"one", "leader", now=0.0)
        _, control = receiver.on_data(env, "leader")
        other = ReliableSender("carol", receiver.channel,
                               peers=lambda: ["bob"])
        other.on_ack(relayed(control[0]), now=0.1)  # not carol's frame
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
        sender.on_ack(relayed(control[0]), now=0.1)
        assert sender.pending == 2  # cum was -1
        retransmits = sender.on_nack(relayed(control[1]))
        assert retransmits == [lost]
        delivery, control = receiver.on_data(retransmits[0], "leader")
        assert delivery[2] == b"first"
        sender.on_ack(relayed(control[0]), now=0.2)
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
        sender.on_ack(relayed(control[0]), now=1.1)
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
        sender.on_ack(relayed(control[0]), now=1.1)
        assert sender.pending == 0

    def test_fresh_payload_after_rebind_delivers(self):
        sender, receiver, alice_ch, bob_ch = rig()
        alice_ch.rebind(KEY_B, 2)
        bob_ch.rebind(KEY_B, 2)
        env = sender.send(b"new epoch", "leader", now=0.0)
        delivery, _ = receiver.on_data(env, "leader")
        assert delivery[2] == b"new epoch"


# -- the MAC-only control format and the per-flush bundle ---------------------


def forged_item(label, cipher, payload, origin="alice", acker="bob", epoch=1):
    """An uplink body with a *valid* tag over an arbitrary payload: what
    a member holding the group key could put on the wire."""
    tag = cipher.tag(payload, _control_ad(label, origin, acker, epoch))
    return encode_fields([encode_str(origin), encode_str(acker), payload, tag])


class TestControlWireFormat:
    #: fields[origin | acker | payload | tag] for origin alice, acker
    #: bob, K_g = 0x33 * 32, epoch 1.  The tags were computed with
    #: hashlib/hmac alone: HKDF for the MAC subkey, then HMAC over
    #: len(ad) || ad || payload.
    HEAD = "0000000400000005616c69636500000003626f62"
    EPOCH_1 = "0000000000000001"
    VECTORS = {
        # (label, seq words after the epoch): tag
        (Label.DATA_ACK, (0,)):  # nothing contiguous yet (cum -1)
            "010acfad466b12b8ea996e0a201dad576725c91c8eed7c542a20e7d469c5cefe",
        (Label.DATA_NACK, (0,)):  # ...and seq 0 is the gap
            "7cad119f7922b8b6c1c2513bbe3d630a4afe920c370bdf37ce30fc19e60a88b1",
        (Label.DATA_ACK, (2,)):  # cum 1 once the gap is filled
            "cc4d485860efca36e4ead2821893178803fc739eb172e81409927bc07d0747f9",
    }

    def expected(self, label, words):
        payload = self.EPOCH_1 + "".join("%016x" % w for w in words)
        return (self.HEAD + "%08x" % (len(payload) // 2) + payload
                + "00000020" + self.VECTORS[label, words])

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_known_answer_uplink_bodies(self, backend):
        with using_provider(backend):
            sender, receiver, _, _ = rig()
            first = sender.send(b"first", "leader", now=0.0)
            second = sender.send(b"second", "leader", now=0.0)
            _, (ack, nack) = receiver.on_data(second, "leader")
            _, (refilled,) = receiver.on_data(first, "leader")
        assert (ack.label, ack.sender, ack.recipient) == \
            (Label.DATA_ACK, "bob", "leader")
        assert ack.body.hex() == self.expected(Label.DATA_ACK, (0,))
        assert nack.body.hex() == self.expected(Label.DATA_NACK, (0,))
        assert refilled.body.hex() == self.expected(Label.DATA_ACK, (2,))

    def test_routing_peek_and_bundle_roundtrip(self):
        sender, receiver, _, _ = rig()
        _, control = receiver.on_data(
            sender.send(b"one", "leader", now=0.0), "leader")
        origin, acker, payload, tag = decode_control_routing(control[0].body)
        assert (origin, acker) == ("alice", "bob")
        assert payload == (1).to_bytes(8, "big") + (1).to_bytes(8, "big")
        assert len(tag) == 32
        items = [control[0].body, b"", b"anything"]
        assert unbundle_control(bundle_control(items)) == items


class TestControlAdIsRemembered:
    """All of ``_control_ad`` but the epoch is computed once per
    (label, origin, acker) — a rekey adds nothing to remember; the
    bytes are the ones every epoch-1 tag above was made over, and
    nothing a rekey or another acker needs is shared."""

    KNOWN = {
        (Label.DATA_ACK, "alice", "bob", 1):
            "0000000500000012726570726f2d646174612d63746c2d6d6163"
            "000000014100000005616c69636500000003626f62"
            "000000080000000000000001",
        (Label.DATA_NACK, "alice", "carol", 2):
            "0000000500000012726570726f2d646174612d63746c2d6d6163"
            "000000014200000005616c696365000000056361726f6c"
            "000000080000000000000002",
    }

    def test_known_answers_first_and_every_later_time(self):
        _control_ad_head.cache_clear()
        for _ in range(2):
            for args, expected in self.KNOWN.items():
                assert _control_ad(*args).hex() == expected
        assert _control_ad_head.cache_info().hits == len(self.KNOWN)

    def test_every_argument_is_in_the_key(self):
        names = ("alice", "bob", "carol")
        grid = [(label, origin, acker, epoch)
                for label in (Label.DATA_ACK, Label.DATA_NACK)
                for origin in names for acker in names
                for epoch in (0, 1, 2, 1 << 40)]
        for args in grid + grid[::-1]:
            label, origin, acker, epoch = args
            assert _control_ad(*args) == encode_fields([
                b"repro-data-ctl-mac", bytes([label.value]),
                encode_str(origin), encode_str(acker),
                epoch.to_bytes(8, "big"),
            ])
        assert len({_control_ad(*args) for args in grid}) == len(grid)
        assert _control_ad_head.cache_info().maxsize == 4096

    def test_a_new_epoch_is_nothing_more_to_remember(self):
        _control_ad_head.cache_clear()
        ads = {_control_ad(Label.DATA_ACK, "alice", "bob", epoch)
               for epoch in range(50)}
        assert len(ads) == 50
        assert _control_ad_head.cache_info().currsize == 1

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_known_answer_bodies_whatever_was_remembered_before(self, backend):
        for acker, epoch in (("carol", 1), ("bob", 0), ("bob", 2)):
            _control_ad(Label.DATA_ACK, "alice", acker, epoch)
            _control_ad(Label.DATA_ACK, acker, "alice", epoch)
        for _ in range(2):
            TestControlWireFormat().test_known_answer_uplink_bodies(backend)

    def test_a_rekey_under_the_same_key_still_retires_every_ack(self):
        """Epoch 1 → 2 with K_g unchanged: only the associated data (and
        the payload's epoch word) tell bob's two ACKs apart."""
        peers = ("bob", "carol")
        sender, receivers = group(peers)
        env = sender.send(b"one", "leader", now=0.0)
        old = {p: receivers[p].on_data(env, "leader")[1][0] for p in peers}
        for channel in (sender.channel,
                        *(r.channel for r in receivers.values())):
            channel.rebind(KEY_A, 2)
        (resealed,) = sender.rebind(now=1.0)
        sender.on_ack(relayed(*old.values()), now=1.1)
        assert sender._acked == {} and sender.pending == 1
        new = {p: receivers[p].on_data(resealed, "leader")[1][0]
               for p in peers}
        # carol's new ACK relabelled as bob's: her tag is over her AD.
        origin, _, payload, tag = decode_control_routing(new["carol"].body)
        sender.on_ack(Envelope(Label.DATA_ACK, "leader", "alice",
                               bundle_control([encode_fields([
                                   encode_str(origin), encode_str("bob"),
                                   payload, tag])])), now=1.2)
        assert sender._acked == {} and sender.pending == 1
        sender.on_ack(relayed(*new.values()), now=1.3)
        assert sender._acked == {"bob": 0, "carol": 0}
        assert sender.pending == 0


class TestBundledDelivery:
    def test_one_bundle_counts_every_item(self):
        peers = ("bob", "carol", "dave")
        sender, receivers = group(peers)
        env = sender.send(b"one", "leader", now=0.0)
        acks = [receivers[p].on_data(env, "leader")[1][0] for p in peers]
        sender.on_ack(relayed(*acks[:2]), now=0.1)
        assert sender.pending == 1
        assert sender.tracker.samples == 2
        sender.on_ack(relayed(acks[2]), now=0.1)
        assert (sender.pending, sender.fully_acked) == (0, 1)

    def test_nack_bundle_retransmits_each_named_frame(self):
        peers = ("bob", "carol")
        sender, receivers = group(peers)
        lost = sender.send(b"first", "leader", now=0.0)
        env2 = sender.send(b"second", "leader", now=0.0)
        nacks = [receivers[p].on_data(env2, "leader")[1][1] for p in peers]
        assert sender.on_nack(relayed(*nacks)) == [lost, lost]
        assert sender.retransmits == 2

    def test_starved_budget_stops_the_whole_nack_bundle(self):
        peers = ("bob", "carol", "dave")
        sender, receivers = group(peers)
        sender.budget = RetryBudget(ratio=0.0, min_reserve=1)
        lost = sender.send(b"first", "leader", now=0.0)
        env2 = sender.send(b"second", "leader", now=0.0)
        nacks = [receivers[p].on_data(env2, "leader")[1][1] for p in peers]
        assert sender.on_nack(relayed(*nacks)) == [lost]
        assert sender.retransmits == 1

    def test_seven_item_bundle_folds_as_seven_bundles_of_one(
            self, monkeypatch):
        """One drop per bundle leaves the pending set, the ack state and
        every RTT sample as one drop per item does -- including the
        sample after the first item, which must not read a frame every
        peer had acked by then (frame 0, re-sent last here)."""
        peers = [f"p{i}" for i in range(7)]

        def world():
            sender, receivers = group(peers)
            frames = [sender.send(b"m%d" % i, "leader", now=float(i))
                      for i in range(3)]
            # Frame 0 went out again after the others.
            sender._pending[0] = sender._pending[0][:3] + (3.0,)
            for peer in peers[1:]:  # p1..p6 have acked frames 0 and 1
                for frame in frames[:2]:
                    ack = receivers[peer].on_data(frame, "leader")[1][0]
                    sender.on_ack(relayed(ack), now=4.0)
            acks = []
            for peer in peers:  # then every peer's newest ACK: through 2
                for frame in frames[2 if peer != "p0" else 0:]:
                    control = receivers[peer].on_data(frame, "leader")[1]
                acks.append(control[0])
            return sender, acks

        observed = []
        observe = LatencyTracker.observe
        monkeypatch.setattr(LatencyTracker, "observe", lambda tracker, s: (
            observed.append((tracker, s)), observe(tracker, s)))

        def samples_of(sender, fold):
            observed.clear()
            fold()
            return [s for tracker, s in observed if tracker is sender.tracker]

        bundled, acks = world()
        bundled_samples = samples_of(
            bundled, lambda: bundled.on_ack(relayed(*acks), now=10.0))
        single, acks = world()
        single_samples = samples_of(single, lambda: [
            single.on_ack(relayed(ack), now=10.0) for ack in acks])

        assert bundled_samples == single_samples == [7.0] + [8.0] * 6
        assert bundled._acked == single._acked == dict.fromkeys(peers, 2)
        assert bundled._pending == single._pending == {}
        assert bundled.fully_acked == single.fully_acked == 3
        assert bundled.tracker.srtt == single.tracker.srtt


@st.composite
def ack_schedules(draw):
    """Peers, messages, which (peer, message) deliveries happen, and a
    shuffled cut of the resulting ACKs into flushes."""
    n_peers = draw(st.integers(1, 4))
    n_msgs = draw(st.integers(1, 4))
    delivered = draw(st.lists(
        st.tuples(st.integers(0, n_peers - 1), st.integers(0, n_msgs - 1)),
        min_size=1, max_size=n_peers * n_msgs, unique=True,
    ))
    order = draw(st.permutations(range(len(delivered))))
    cuts = draw(st.lists(st.booleans(), min_size=len(delivered),
                         max_size=len(delivered)))
    return n_peers, n_msgs, delivered, order, cuts


class TestFlushPartitionProperty:
    @given(ack_schedules())
    @settings(max_examples=60, deadline=None)
    def test_any_partition_any_order_equals_one_per_frame(self, schedule):
        n_peers, n_msgs, delivered, order, cuts = schedule
        peers = [f"p{i}" for i in range(n_peers)]

        def world():
            sender, receivers = group(peers)
            frames = [sender.send(b"m%d" % i, "leader", now=0.0)
                      for i in range(n_msgs)]
            acks = [
                receivers[peers[p]].on_data(frames[m], "leader")[1][0]
                for p, m in delivered
            ]
            return sender, acks

        one_by_one, acks = world()
        for ack in acks:
            one_by_one.on_ack(relayed(ack), now=1.0)

        bundled, acks = world()
        flush = []
        for index, cut in zip(order, cuts):
            flush.append(acks[index])
            if cut:
                bundled.on_ack(relayed(*flush), now=1.0)
                flush = []
        if flush:
            bundled.on_ack(relayed(*flush), now=1.0)

        assert bundled._acked == one_by_one._acked
        assert bundled.pending == one_by_one.pending
        assert sorted(bundled._pending) == sorted(one_by_one._pending)
        assert bundled.fully_acked == one_by_one.fully_acked


class TestBadItemsCostOnlyThemselves:
    """Each bad item sits between two good ones in an otherwise valid
    bundle; the good ones must still count and nothing may raise."""

    PEERS = ("bob", "carol", "dave")

    def _acked_world(self, epoch=1, key=KEY_A):
        sender, receivers = group(self.PEERS, epoch=epoch, key=key)
        env = sender.send(b"one", "leader", now=0.0)
        acks = {p: receivers[p].on_data(env, "leader")[1][0]
                for p in self.PEERS}
        return sender, receivers, env, acks

    def _deliver(self, sender, acks, bad_body):
        """bob | bad | carol in one bundle: bob and carol count, dave is
        still missing — and whatever ``bad`` claimed counts for nobody."""
        bundle = Envelope(Label.DATA_ACK, "leader", "alice", bundle_control(
            [acks["bob"].body, bad_body, acks["carol"].body]))
        sender.on_ack(bundle, now=0.1)
        assert sender._acked == {"bob": 0, "carol": 0}
        assert sender.pending == 1 and sender.fully_acked == 0

    def test_flipped_tag_bit(self):
        sender, _, _, acks = self._acked_world()
        body = acks["dave"].body
        self._deliver(sender, acks, body[:-1] + bytes([body[-1] ^ 1]))

    def test_flipped_payload_bit(self):
        sender, _, _, acks = self._acked_world()
        origin, acker, payload, tag = decode_control_routing(acks["dave"].body)
        raised = payload[:-1] + bytes([payload[-1] ^ 2])  # claims cum 2
        self._deliver(sender, acks, encode_fields(
            [encode_str(origin), encode_str(acker), raised, tag]))

    def test_item_naming_another_origin(self):
        sender, receivers, _, acks = self._acked_world()
        # A perfectly valid ACK — for carol's chain, not alice's.
        carol_ch = DataChannel("carol")
        carol_ch.rebind(KEY_A, 1)
        _seq, from_carol = carol_ch.seal(wrap_msg(0, b"x"), "leader")
        _, control = receivers["dave"].on_data(from_carol, "leader")
        assert decode_control_routing(control[0].body)[0] == "carol"
        self._deliver(sender, acks, control[0].body)

    def test_item_claiming_another_acker(self):
        """bob's ACK with the acker field rewritten to dave."""
        sender, _, _, acks = self._acked_world()
        origin, _acker, payload, tag = decode_control_routing(acks["bob"].body)
        self._deliver(sender, acks, encode_fields(
            [encode_str(origin), encode_str("dave"), payload, tag]))

    def test_item_from_the_previous_epoch(self):
        _, _, _, stale = self._acked_world(epoch=1, key=KEY_A)
        sender, _, _, acks = self._acked_world(epoch=2, key=KEY_B)
        self._deliver(sender, acks, stale["dave"].body)

    def test_previous_epoch_item_under_the_same_key(self):
        """Even if the key had not changed, the epoch is under the MAC
        and in the payload."""
        _, _, _, stale = self._acked_world(epoch=1)
        sender, _, _, acks = self._acked_world(epoch=2)
        self._deliver(sender, acks, stale["dave"].body)
        # ...and an insider re-tagging the old payload for the new
        # epoch's associated data is caught by the payload's own epoch.
        payload = decode_control_routing(stale["dave"].body)[2]
        self._deliver(sender, acks, forged_item(
            Label.DATA_ACK, sender.channel.control_cipher, payload,
            acker="dave", epoch=2))

    def test_ack_item_inside_a_nack_bundle(self):
        """An ACK's payload reads as "retransmit seq cum+1" if taken for
        a NACK; the label under the MAC forbids it."""
        sender, receivers = group(self.PEERS)
        frames = [sender.send(b"m%d" % i, "leader", now=0.0)
                  for i in range(3)]
        # bob sees seq 2 alone: his ACK's word is 0 (cum -1), which a
        # NACK parser would read as "retransmit seq 0"; his NACK names
        # seqs 0 and 1, which an ACK parser would read as "cum -1"...
        _, (ack, nack) = receivers["bob"].on_data(frames[2], "leader")
        bundle = Envelope(Label.DATA_NACK, "leader", "alice", bundle_control(
            [ack.body, nack.body, ack.body]))
        assert sender.on_nack(bundle) == frames[:2]  # the real NACK alone
        # ...so take carol's, who saw 0 then 2: her NACK names seq 1,
        # an ACK parser's "cum 0".  Her real ACKs never reach alice.
        receivers["carol"].on_data(frames[0], "leader")
        _, (_ack, nack) = receivers["carol"].on_data(frames[2], "leader")
        sender.on_ack(relayed(nack, label=Label.DATA_ACK), now=0.1)
        assert sender._acked == {}

    def test_pre_bundle_sealed_box_body(self):
        """The retired format: fields[origin | acker | SealedBox]."""
        sender, _, _, acks = self._acked_world()
        cipher = sender.channel.control_cipher
        old_payload = encode_fields(
            [(1).to_bytes(8, "big"), (1).to_bytes(8, "big")])
        old_ad = encode_fields([
            b"repro-data-ctl", bytes([Label.DATA_ACK.value]),
            b"alice", b"dave", (1).to_bytes(8, "big"),
        ])
        box = cipher.seal_with_nonce(bytes(8), old_payload, old_ad)
        old_body = encode_fields([b"alice", b"dave", box.to_bytes()])
        self._deliver(sender, acks, old_body)
        # Un-bundled, as the old relay forwarded it: not a bundle of
        # valid items either.
        sender.on_ack(Envelope(Label.DATA_ACK, "dave", "alice", old_body),
                      now=0.1)
        sender.on_ack(
            Envelope(Label.DATA_ACK, "dave", "alice", acks["dave"].body),
            now=0.1)
        assert "dave" not in sender._acked

    def test_a_sealed_box_tag_is_not_a_control_tag(self):
        """Same key, same tag layout: a box's tag over nonce ||
        ciphertext *is* a control tag over that payload under equal
        associated data, so the control AD must be one no box is ever
        sealed under."""
        sender, _, _, acks = self._acked_world()
        cipher = sender.channel.control_cipher
        box = cipher.seal_with_nonce(bytes(8), b"sixteen byte msg", b"some ad")
        assert cipher.tag(box.nonce + box.ciphertext, b"some ad") == box.tag
        payload = (1).to_bytes(8, "big") + (1).to_bytes(8, "big")
        retired_ad = encode_fields([
            b"repro-data-ctl", bytes([Label.DATA_ACK.value]),
            b"alice", b"dave", (1).to_bytes(8, "big"),
        ])
        for box_ad in (retired_ad, app_ad("dave"), data_ad("dave", 1, 0)):
            self._deliver(sender, acks, encode_fields(
                [b"alice", b"dave", payload, cipher.tag(payload, box_ad)]))

    @pytest.mark.parametrize("payload", [
        b"",
        (1).to_bytes(8, "big")[:5],
        (1).to_bytes(8, "big") + (1).to_bytes(8, "big")[:4],
        (1).to_bytes(8, "big") + (1).to_bytes(8, "big") + b"\x00",
    ], ids=["empty", "short-epoch", "truncated-seq", "trailing-byte"])
    def test_truncated_payload_with_a_valid_tag(self, payload):
        sender, _, _, acks = self._acked_world()
        self._deliver(sender, acks, forged_item(
            Label.DATA_ACK, sender.channel.control_cipher, payload,
            acker="dave"))

    @pytest.mark.parametrize("body", [
        b"", b"\xff\xff\xff", b"\x00\x00\x00\x04",
        encode_fields([b"alice", b"dave", b"payload"]),
        encode_fields([b"\xff\xfe", b"dave", b"payload", b"tag"]),
    ], ids=["empty", "garbage", "count-only", "three-fields", "bad-utf8"])
    def test_unparseable_item(self, body):
        sender, _, _, acks = self._acked_world()
        self._deliver(sender, acks, body)

    def test_stale_cumulative_value_ignored(self):
        sender, receivers = group(("bob",))
        first = sender.send(b"a", "leader", now=0.0)
        second = sender.send(b"b", "leader", now=0.0)
        _, (early,) = receivers["bob"].on_data(first, "leader")
        _, (late,) = receivers["bob"].on_data(second, "leader")
        sender.on_ack(relayed(late, early), now=0.1)
        assert sender._acked == {"bob": 1}
        assert sender.tracker.samples == 1  # the stale one sampled nothing


class TestMalformedBundleAtTheMember:
    @pytest.mark.parametrize("label", [Label.DATA_ACK, Label.DATA_NACK])
    @pytest.mark.parametrize("body", [
        b"\xff\xff\xff", b"", b"\x00\x00\x00\x02\x00\x00\x00\x09short",
    ])
    def test_dropped_without_raising(self, label, body):
        scenario = build_data(["alice", "bob"], seed=3)
        alice = scenario.members["alice"]
        scenario.net.post_all(alice.send_data(b"in flight"))
        pending = alice.sender.pending
        assert alice.handle(Envelope(label, "leader", "alice", body)) \
            == ([], [])
        assert alice.sender.pending == pending == 1
        assert alice.sender.retransmits == 0
        scenario.net.run()
        assert alice.sender.pending == 0


class TestLeaderBundlesPerFlush:
    MEMBERS = ["alice", "bob", "carol", "dave"]

    def _uplinks(self, scenario, origin):
        """Every other member's ACK for one frame from ``origin``."""
        members = scenario.members
        (frame,) = members[origin].send_data(b"from " + origin.encode())
        fanout, _ = scenario.leader.handle(frame)
        acks = []
        for copy in fanout:
            (ack,), _ = members[copy.recipient].handle(copy)
            acks.append(ack)
        return acks

    def test_one_bundle_per_origin_in_first_arrival_position(self):
        scenario = build_data(self.MEMBERS, seed=9)
        leader, members = scenario.leader, scenario.members
        for_alice = self._uplinks(scenario, "alice")
        for_bob = self._uplinks(scenario, "bob")
        (data,) = members["carol"].send_data(b"mid-flush")
        outsider = Envelope(
            Label.DATA_ACK, "mallory", "leader", for_alice[0].body)
        flush = [for_alice[0], for_bob[0], outsider, data,
                 for_bob[1], for_alice[1], for_alice[2], for_bob[2]]
        relayed_before = leader.stats.relayed_frames
        rejected_before = leader.stats.rejected
        out, events = leader.handle_many(flush)

        assert [(e.label, e.sender, e.recipient) for e in out] == [
            (Label.DATA_ACK, "leader", "alice"),
            (Label.DATA_ACK, "leader", "bob"),
            (Label.DATA_MSG, "carol", "alice"),
            (Label.DATA_MSG, "carol", "bob"),
            (Label.DATA_MSG, "carol", "dave"),
        ]
        assert unbundle_control(out[0].body) == [a.body for a in for_alice]
        assert unbundle_control(out[1].body) == [a.body for a in for_bob]
        assert all(e.body == data.body for e in out[2:])
        assert [e.reason for e in events] == ["data frame from non-member"]
        assert leader.stats.rejected == rejected_before + 1
        assert leader.stats.relayed_frames == relayed_before + 2 + 3

        # What the bundles carry is what one frame each would have.
        for frame in out[:2]:
            members[frame.recipient].handle(frame)
        assert members["alice"].sender.fully_acked == 1
        assert members["bob"].sender.fully_acked == 1

    def test_acks_and_nacks_for_one_origin_bundle_apart(self):
        scenario = build_data(self.MEMBERS, seed=9)
        leader, members = scenario.leader, scenario.members
        (lost,) = members["alice"].send_data(b"lost")
        (seen,) = members["alice"].send_data(b"seen")
        fanout, _ = leader.handle(seen)
        uplinks = [c for copy in fanout
                   for c in members[copy.recipient].handle(copy)[0]]
        assert [u.label for u in uplinks] == \
            [Label.DATA_ACK, Label.DATA_NACK] * 3
        out, _ = leader.handle_many(uplinks)
        assert [(e.label, e.recipient, len(unbundle_control(e.body)))
                for e in out] == [(Label.DATA_ACK, "alice", 3),
                                  (Label.DATA_NACK, "alice", 3)]
        retransmits = [f for e in out for f in members["alice"].handle(e)[0]]
        assert retransmits == [lost] * 3

    def test_origin_that_left_is_rejected_and_a_lone_ack_is_a_bundle_of_one(
            self):
        scenario = build_data(self.MEMBERS, seed=9)
        leader, net = scenario.leader, scenario.net
        for_alice = self._uplinks(scenario, "alice")
        out, _ = leader.handle(for_alice[0])
        assert len(out) == 1 and out[0].sender == "leader"
        assert unbundle_control(out[0].body) == [for_alice[0].body]
        net.post(scenario.members["alice"].member.start_leave())
        net.run()
        out, events = leader.handle_many(for_alice[1:])
        assert out == []
        assert [e.reason for e in events] == ["data control for non-member"] * 2

    def test_seven_acks_for_one_origin_relay_as_one_frame(self):
        uids = [f"m{i}" for i in range(8)]
        scenario = build_data(uids, seed=4)
        leader = scenario.leader
        (frame,) = scenario.members["m0"].send_data(b"to seven")
        fanout, _ = leader.handle(frame)
        acks = [scenario.members[c.recipient].handle(c)[0][0] for c in fanout]
        assert len(acks) == 7
        before = leader.stats.relayed_frames
        out, _ = leader.handle_many(acks)
        assert len(out) == 1
        assert leader.stats.relayed_frames == before + 1
        # Handed over one at a time, the leader emits (and counts) seven.
        for ack in acks:
            leader.handle(ack)
        assert leader.stats.relayed_frames == before + 1 + 7
