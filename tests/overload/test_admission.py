"""Tests for priority classification and fair-share admission."""

import pytest

from repro.overload.admission import (
    FAIR_BURST,
    FairShareAdmission,
    PriorityClass,
    TokenBucket,
    classify_frame,
)
from repro.wire.labels import Label
from repro.wire.message import Envelope, wrap_group


def frame(label, sender="alice", recipient="leader", body=b""):
    return Envelope(label, sender, recipient, body)


class TestClassifyFrame:
    def test_control_labels(self):
        for label in (Label.ADMIN_MSG, Label.ACK, Label.REQ_CLOSE,
                      Label.NEW_KEY, Label.GROUP_REDIRECT,
                      Label.CLOSE_CONNECTION, Label.CONNECTION_DENIED):
            assert classify_frame(frame(label)) is PriorityClass.CONTROL

    def test_join_labels_both_stacks(self):
        for label in (Label.AUTH_INIT_REQ, Label.AUTH_KEY_DIST,
                      Label.AUTH_ACK_KEY, Label.REQ_OPEN,
                      Label.LEGACY_AUTH_1):
            assert classify_frame(frame(label)) is PriorityClass.JOIN

    def test_app_data_defaults_to_app(self):
        assert classify_frame(frame(Label.APP_DATA)) is PriorityClass.APP

    def test_group_wrap_classified_by_inner(self):
        inner = frame(Label.AUTH_INIT_REQ)
        wrapped = wrap_group("g1", inner, "shard-0")
        assert classify_frame(wrapped) is PriorityClass.JOIN

    def test_malformed_wrap_is_app(self):
        bogus = Envelope(Label.GROUP_WRAP, "x", "y", b"\x00garbage")
        assert classify_frame(bogus) is PriorityClass.APP

    def test_data_msg_is_app(self):
        """Bulk data shares the APP class — a flood of it must be
        starvable by fair-share pacing, never outrank joins."""
        assert classify_frame(frame(Label.DATA_MSG)) is PriorityClass.APP

    def test_data_flow_control_is_heartbeat_tier(self):
        for label in (Label.DATA_ACK, Label.DATA_NACK):
            assert (classify_frame(frame(label))
                    is PriorityClass.HEARTBEAT)

    def test_data_labels_through_group_wrap(self):
        wrapped_data = wrap_group("g1", frame(Label.DATA_MSG), "shard-0")
        assert classify_frame(wrapped_data) is PriorityClass.APP
        wrapped_ack = wrap_group("g1", frame(Label.DATA_ACK), "shard-0")
        assert classify_frame(wrapped_ack) is PriorityClass.HEARTBEAT

    def test_priority_ordering(self):
        assert (PriorityClass.CONTROL < PriorityClass.HEARTBEAT
                < PriorityClass.JOIN < PriorityClass.APP)


class TestTokenBucket:
    def test_burst_then_dry(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.allow(0.0) for _ in range(4)] == [
            True, True, True, False
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.allow(0.0) and bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.allow(0.5)  # 0.5s * 2/s = 1 token back

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        # 100 idle seconds at 10/s would mint 1,000 tokens uncapped.
        assert [bucket.allow(100.0) for _ in range(3)] == [
            True, True, False
        ]

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.allow(5.0)
        # An earlier timestamp must not mint tokens.
        assert not bucket.allow(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0.5)


BURST = int(FAIR_BURST)


class TestFairShareAdmission:
    def test_flooder_exhausts_only_its_own_bucket(self):
        admission = FairShareAdmission()
        verdicts = [
            admission.admit("mallory", PriorityClass.APP, 0.0)
            for _ in range(BURST + 10)
        ]
        assert verdicts == [True] * BURST + [False] * 10
        assert admission.admit("alice", PriorityClass.APP, 0.0)

    def test_control_has_its_own_bucket(self):
        admission = FairShareAdmission()
        for _ in range(BURST):
            assert admission.admit("mallory", PriorityClass.APP, 0.0)
        assert not admission.admit("mallory", PriorityClass.APP, 0.0)
        # A dry APP bucket never starves the same sender's genuine
        # control traffic: CONTROL draws from its own bucket.
        assert admission.admit("mallory", PriorityClass.CONTROL, 0.0)

    def test_mislabeled_control_flood_is_paced(self):
        # The class comes from the plaintext label, so an insider can
        # stamp its flood CONTROL — it must still hit a ceiling.
        admission = FairShareAdmission()
        verdicts = [
            admission.admit("mallory", PriorityClass.CONTROL, 0.0)
            for _ in range(BURST + 8)
        ]
        assert verdicts == [True] * BURST + [False] * 8
        # ...without touching anyone else's control allowance.
        assert admission.admit("alice", PriorityClass.CONTROL, 0.0)

    def test_control_flood_leaves_own_app_bucket_intact(self):
        admission = FairShareAdmission()
        for _ in range(BURST):
            assert admission.admit("m", PriorityClass.CONTROL, 0.0)
        assert not admission.admit("m", PriorityClass.CONTROL, 0.0)
        assert admission.admit("m", PriorityClass.APP, 0.0)

    def test_admitted_counter(self):
        admission = FairShareAdmission()
        admitted = sum(
            admission.admit("a", PriorityClass.APP, 0.0)
            for _ in range(BURST + 1)
        )
        assert admitted == BURST
