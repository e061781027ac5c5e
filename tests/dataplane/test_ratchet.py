"""Tests for the per-sender HMAC chain ratchets."""

import pytest

from repro.crypto.keys import KEY_LEN, GroupKey
from repro.dataplane.ratchet import (
    DEFAULT_SKIP_WINDOW,
    ReceiverState,
    SenderState,
    seed_chain,
)
from repro.exceptions import RatchetReplayError, SkipWindowExceeded, StateError

KEY = GroupKey(b"\x42" * KEY_LEN)


def chains(sender="alice", epoch=1, **kwargs):
    seed = seed_chain(KEY, epoch, sender)
    return SenderState(seed), ReceiverState(seed, **kwargs)


class TestChainDerivation:
    def test_sender_receiver_agree(self):
        snd, rcv = chains()
        for expected_seq in range(5):
            seq, key = snd.next_key()
            assert seq == expected_seq
            pending = rcv.lookup(seq)
            assert pending.key == key
            rcv.commit(pending)

    def test_chains_domain_separated_by_sender(self):
        assert seed_chain(KEY, 1, "alice") != seed_chain(KEY, 1, "bob")

    def test_chains_domain_separated_by_epoch(self):
        assert seed_chain(KEY, 1, "alice") != seed_chain(KEY, 2, "alice")

    def test_message_keys_never_repeat(self):
        # mk_i is the (enc, mac) pair the chain hands out directly (it
        # used to be a key object with .material): neither half repeats.
        snd, _ = chains()
        keys = [snd.next_key()[1] for _ in range(32)]
        assert len({enc for enc, _mac in keys}) == 32
        assert len({mac for _enc, mac in keys}) == 32

    def test_epoch_bump_reseeds_mid_flight(self):
        """A new epoch restarts the chain: seq resets, keys differ."""
        snd1, _ = chains(epoch=1)
        snd1.next_key()
        seq1, key1 = snd1.next_key()
        snd2, rcv2 = chains(epoch=2)
        seq2, key2 = snd2.next_key()
        assert seq1 == 1 and seq2 == 0
        assert key1 != key2
        # The epoch-2 receiver opens epoch-2 seq 0 — and only that.
        assert rcv2.lookup(0).key == key2


class TestSkipWindow:
    def test_exactly_window_ahead_accepted(self):
        _, rcv = chains(window=8)
        pending = rcv.lookup(8)
        assert rcv.commit(pending) == 8  # eight keys banked

    def test_one_past_window_rejected(self):
        _, rcv = chains(window=8)
        with pytest.raises(SkipWindowExceeded):
            rcv.lookup(9)

    def test_default_window_boundary(self):
        _, rcv = chains()
        rcv.commit(rcv.lookup(DEFAULT_SKIP_WINDOW))
        with pytest.raises(SkipWindowExceeded):
            rcv.lookup(2 * DEFAULT_SKIP_WINDOW + 2)

    def test_window_relative_to_next_seq(self):
        snd, rcv = chains(window=4)
        for _ in range(10):
            seq, _key = snd.next_key()
            rcv.commit(rcv.lookup(seq))
        rcv.commit(rcv.lookup(14))  # 4 ahead of next=10: fine
        with pytest.raises(SkipWindowExceeded):
            rcv.lookup(20)

    def test_lookup_does_not_mutate(self):
        """Deriving a pending key must not move the chain — only
        commit does (the MAC-first discipline)."""
        _, rcv = chains(window=8)
        rcv.lookup(5)
        rcv.lookup(5)
        assert rcv.next_seq == 0
        assert rcv.stored == 0


class TestSkipStore:
    def test_late_frame_served_from_bank(self):
        snd, rcv = chains()
        _seq0, key0 = snd.next_key()
        seq1, _key1 = snd.next_key()
        rcv.commit(rcv.lookup(seq1))  # skips over 0, banks its key
        assert rcv.outstanding() == [0]
        pending = rcv.lookup(0)
        assert pending.from_skip
        assert pending.key == key0
        rcv.commit(pending)
        assert rcv.outstanding() == []
        assert rcv.skip_hits == 1

    def test_duplicate_seq_after_skip_consumed_is_replay(self):
        """Once a banked key is consumed, the same seq is a replay."""
        snd, rcv = chains()
        snd.next_key()
        seq1, _ = snd.next_key()
        rcv.commit(rcv.lookup(seq1))
        rcv.commit(rcv.lookup(0))
        with pytest.raises(RatchetReplayError):
            rcv.lookup(0)

    def test_consumed_in_order_seq_is_replay(self):
        snd, rcv = chains()
        seq, _ = snd.next_key()
        rcv.commit(rcv.lookup(seq))
        with pytest.raises(RatchetReplayError):
            rcv.lookup(seq)

    def test_bank_eviction_past_max_stored(self):
        _, rcv = chains(window=8, max_stored=8)
        rcv.commit(rcv.lookup(8))    # banks 0..7
        rcv.commit(rcv.lookup(17))   # banks 9..16 -> 16 held, cap 8
        assert rcv.stored == 8
        assert rcv.skips_evicted == 8
        # The oldest gaps were evicted; their frames now read as replays.
        with pytest.raises(RatchetReplayError):
            rcv.lookup(0)

    def test_contiguous_delivered(self):
        snd, rcv = chains()
        assert rcv.contiguous_delivered() == -1
        seq0, _ = snd.next_key()
        rcv.commit(rcv.lookup(seq0))
        assert rcv.contiguous_delivered() == 0
        snd.next_key()
        seq2, _ = snd.next_key()
        rcv.commit(rcv.lookup(seq2))
        assert rcv.contiguous_delivered() == 0  # gap at 1
        rcv.commit(rcv.lookup(1))
        assert rcv.contiguous_delivered() == 2


class TestValidation:
    def test_negative_window_rejected(self):
        with pytest.raises(StateError):
            ReceiverState(b"\x00" * KEY_LEN, window=-1)

    def test_max_stored_below_window_rejected(self):
        with pytest.raises(StateError):
            ReceiverState(b"\x00" * KEY_LEN, window=8, max_stored=4)
