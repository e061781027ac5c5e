"""Tests for the epoch-bound ratcheted channel and its baseline."""

import pytest

from repro.crypto.keys import KEY_LEN, GroupKey
from repro.dataplane.channel import (
    DataChannel,
    GroupKeyChannel,
    decode_data_body,
)
from repro.exceptions import (
    CodecError,
    EpochMismatchError,
    IntegrityError,
    RatchetReplayError,
    SkipWindowExceeded,
    StateError,
)
from repro.telemetry.events import (
    DataDelivered,
    DataShed,
    EventBus,
    RatchetWindowExceeded,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope

KEY_A = GroupKey(b"\x11" * KEY_LEN)
KEY_B = GroupKey(b"\x22" * KEY_LEN)


def pair(epoch=1, key=KEY_A, telemetry=None, window=32):
    """A bound (sender channel, receiver channel) pair."""
    alice = DataChannel("alice", window=window, telemetry=telemetry)
    bob = DataChannel("bob", window=window, telemetry=telemetry)
    alice.rebind(key, epoch)
    bob.rebind(key, epoch)
    return alice, bob


class TestSealOpen:
    def test_roundtrip(self):
        alice, bob = pair()
        seq, env = alice.seal(b"hello", "leader")
        assert env.label is Label.DATA_MSG
        assert bob.open(env) == ("alice", seq, b"hello")
        assert bob.delivered == 1

    def test_unbound_channel_refuses(self):
        with pytest.raises(StateError):
            DataChannel("alice").seal(b"x", "leader")

    def test_body_parses(self):
        alice, _ = pair(epoch=7)
        seq, env = alice.seal(b"x", "leader")
        sender, epoch, parsed_seq, _box = decode_data_body(env.body)
        assert (sender, epoch, parsed_seq) == ("alice", 7, seq)

    def test_deterministic_frames(self):
        a1, _ = pair()
        a2, _ = pair()
        assert a1.seal(b"same", "leader") == a2.seal(b"same", "leader")

    def test_wrong_label_refused(self):
        _, bob = pair()
        with pytest.raises(StateError):
            bob.open(Envelope(Label.APP_DATA, "a", "b", b""))


class TestTypedRejections:
    def test_replay_typed_and_counted(self):
        alice, bob = pair()
        _, env = alice.seal(b"x", "leader")
        bob.open(env)
        with pytest.raises(RatchetReplayError):
            bob.open(env)
        assert bob.shed == 1

    def test_epoch_mismatch(self):
        alice, bob = pair(epoch=1)
        _, env = alice.seal(b"x", "leader")
        bob.rebind(KEY_B, 2)
        with pytest.raises(EpochMismatchError):
            bob.open(env)

    def test_window_exceeded(self):
        alice, bob = pair(window=2)
        for _ in range(4):
            _, env = alice.seal(b"x", "leader")
        # seq 3 is 3 ahead of expected 0: one past the window of 2.
        with pytest.raises(SkipWindowExceeded):
            bob.open(env)
        assert bob.shed == 1

    def test_tampered_box_is_integrity(self):
        alice, bob = pair()
        _, env = alice.seal(b"x", "leader")
        tampered = Envelope(env.label, env.sender, env.recipient,
                            env.body[:-1] + bytes([env.body[-1] ^ 1]))
        with pytest.raises((IntegrityError, CodecError)):
            bob.open(tampered)

    def test_garbage_frame_does_not_burn_state(self):
        """A forged in-window frame must not advance the chain."""
        alice, bob = pair()
        _, good = alice.seal(b"real", "leader")
        from repro.dataplane.channel import encode_data_body

        forged = Envelope(
            Label.DATA_MSG, "alice", "leader",
            encode_data_body("alice", 1, 5, b"\x00" * 48),
        )
        with pytest.raises((IntegrityError, CodecError)):
            bob.open(forged)
        # The real frame still opens: lookup never committed.
        assert bob.open(good)[2] == b"real"
        assert bob.receiver_state("alice").stored == 0

    def test_short_box_is_integrity_and_moves_no_chain(self):
        """A box one byte too short to hold a nonce and a tag is shed as
        ``integrity``; the receive chain stays where it was."""
        from repro.dataplane.channel import encode_data_body

        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        alice, bob = pair(telemetry=bus)
        _, good = alice.seal(b"real", "leader")
        short = Envelope(Label.DATA_MSG, "alice", "leader",
                         encode_data_body("alice", 1, 0, bytes(39)))
        with pytest.raises(CodecError):
            bob.open(short)
        shed = [r.event for r in records if isinstance(r.event, DataShed)]
        assert [(e.sender, e.chain_seq, e.reason) for e in shed] == [
            ("alice", 0, "integrity")]
        assert (bob.shed, bob.delivered) == (1, 0)
        state = bob.receiver_state("alice")
        assert (state.next_seq, state.stored) == (0, 0)
        assert bob.open(good) == ("alice", 0, b"real")


class TestTelemetry:
    def test_delivery_and_shed_events(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        alice, bob = pair(telemetry=bus)
        _, env = alice.seal(b"x", "leader")
        bob.open(env)
        with pytest.raises(RatchetReplayError):
            bob.open(env)
        kinds = [type(r.event).__name__ for r in records]
        assert "DataDelivered" in kinds
        shed = [r.event for r in records if isinstance(r.event, DataShed)]
        assert shed and shed[0].reason == "replay"
        assert shed[0].node == "bob" and shed[0].sender == "alice"

    def test_window_event_carries_window(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        alice, bob = pair(telemetry=bus, window=1)
        for _ in range(4):
            _, env = alice.seal(b"x", "leader")
        with pytest.raises(SkipWindowExceeded):
            bob.open(env)
        events = [r.event for r in records
                  if isinstance(r.event, RatchetWindowExceeded)]
        assert events and events[0].window == 1 and events[0].chain_seq == 3


class TestRebind:
    def test_rebind_resets_chains(self):
        alice, bob = pair(epoch=1)
        _, env = alice.seal(b"old", "leader")
        alice.rebind(KEY_B, 2)
        bob.rebind(KEY_B, 2)
        seq, env2 = alice.seal(b"new", "leader")
        assert seq == 0  # chain restarted
        assert bob.open(env2)[2] == b"new"
        with pytest.raises(EpochMismatchError):
            bob.open(env)

    def test_same_epoch_rebind_is_noop(self):
        alice, _ = pair(epoch=1)
        alice.seal(b"x", "leader")
        alice.rebind(KEY_A, 1)
        seq, _ = alice.seal(b"y", "leader")
        assert seq == 1  # chain position survived

    def test_old_epoch_state_opens_nothing_new(self):
        """The rekey-on-leave property at channel granularity."""
        alice, bob = pair(epoch=1)
        mallory = DataChannel("mallory")
        mallory.rebind(KEY_A, 1)  # the key a leaver departs with
        alice.rebind(KEY_B, 2)
        _, env = alice.seal(b"post-leave", "leader")
        with pytest.raises(EpochMismatchError):
            mallory.open(env)
        # Even re-seeded at the new epoch, the old key fails the MAC.
        forged = DataChannel("mallory2")
        forged.rebind(KEY_A, 2)
        with pytest.raises(IntegrityError):
            forged.open(env)


class TestLazyDerivation:
    """Binding an epoch derives nothing; each key is derived by the
    first frame that needs it, and the result is what an eagerly seeded
    peer computes."""

    def test_three_installs_without_traffic_cost_no_provider_call(
            self, provider_log):
        alice = DataChannel("alice")
        for epoch, key in enumerate((KEY_A, KEY_B, KEY_A), start=1):
            alice.rebind(key, epoch)
            assert alice.bound and alice.epoch == epoch
        assert provider_log.calls == []

    def test_first_frame_pays_for_exactly_its_own_chain(self, provider_log):
        alice = DataChannel("alice")
        for epoch, key in enumerate((KEY_A, KEY_B, KEY_A), start=1):
            alice.rebind(key, epoch)
        _, env = alice.seal(b"late first frame", "leader")
        # One chain seed (extract + expand), no group-key subkeys.
        assert provider_log.count("hkdf_extract", "hkdf_expand") == 2
        bob = DataChannel("bob")
        bob.rebind(KEY_A, 3)  # a peer that only ever saw this epoch
        assert bob.open(env) == ("alice", 0, b"late first frame")
        assert provider_log.count("hkdf_extract", "hkdf_expand") == 4
        assert provider_log.count("seal", "open") == 2

    def test_control_cipher_is_one_per_epoch_and_derived_by_first_use(
            self, provider_log):
        # A key object of this test's own: subkeys are cached on it.
        alice, bob = pair(key=GroupKey(b"\x55" * KEY_LEN))
        cipher = bob.control_cipher
        assert bob.control_cipher is cipher
        assert provider_log.calls == []
        box = cipher.seal_with_nonce(bytes(8), b"ack", b"ad")
        assert alice.control_cipher.open(box, b"ad") == b"ack"
        cipher.seal_with_nonce(bytes(8), b"ack", b"ad")
        # The group key's subkeys, once: extract + two expands.
        assert provider_log.count("hkdf_extract", "hkdf_expand") == 3
        bob.rebind(KEY_B, 2)
        assert bob.control_cipher is not cipher
        assert DataChannel("carol").control_cipher is None


class TestBaseline:
    def test_roundtrip(self):
        alice = GroupKeyChannel("alice")
        bob = GroupKeyChannel("bob")
        alice.rebind(KEY_A, 1)
        bob.rebind(KEY_A, 1)
        seq, env = alice.seal(b"hello", "leader")
        assert bob.open(env) == ("alice", seq, b"hello")

    def test_accepts_replay(self):
        """The baseline's deliberate weakness: no replay accounting."""
        alice = GroupKeyChannel("alice")
        bob = GroupKeyChannel("bob")
        alice.rebind(KEY_A, 1)
        bob.rebind(KEY_A, 1)
        _, env = alice.seal(b"pay", "leader")
        assert bob.open(env)[2] == b"pay"
        assert bob.open(env)[2] == b"pay"
        assert bob.delivered == 2

    def test_key_holder_reads_everything(self):
        """And its other weakness: possession of the key is enough."""
        alice = GroupKeyChannel("alice")
        alice.rebind(KEY_A, 1)
        _, env = alice.seal(b"secret", "leader")
        mallory = GroupKeyChannel("mallory")
        mallory.rebind(KEY_A, 1)
        assert mallory.open(env)[2] == b"secret"
