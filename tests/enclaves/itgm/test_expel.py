"""Tests for leader-initiated expulsion (§2.2 "variation ... to expel
some members", realized over the intrusion-tolerant channel)."""

import pytest

from repro.enclaves.common import MemberLeft, RekeyPolicy
from repro.enclaves.itgm.leader import LeaderConfig
from repro.enclaves.itgm.leader_session import LeaderState
from repro.exceptions import StateError
from repro.wire.labels import Label

from tests.conftest import ItgmGroup


class TestExpel:
    def test_expel_removes_member(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        group.net.post_all(group.leader.expel("bob"))
        group.net.run()
        assert group.leader.members == ["alice"]

    def test_others_are_notified(self):
        group = ItgmGroup(["alice", "bob", "carol"]).join_all()
        group.net.post_all(group.leader.expel("bob"))
        group.net.run()
        assert group.members["alice"].membership == {"alice", "carol"}
        assert any(
            isinstance(e, MemberLeft) and e.user_id == "bob"
            for e in group.net.events_of("alice")
        )

    def test_rekey_on_expel(self):
        group = ItgmGroup(
            ["alice", "bob"],
            config=LeaderConfig(rekey_policy=RekeyPolicy.ON_LEAVE),
        ).join_all()
        epoch = group.leader.group_epoch
        group.net.post_all(group.leader.expel("bob"))
        group.net.run()
        assert group.leader.group_epoch == epoch + 1
        assert group.members["alice"].group_epoch == epoch + 1

    def test_expellee_is_cryptographically_evicted(self):
        group = ItgmGroup(
            ["alice", "bob"],
            config=LeaderConfig(rekey_policy=RekeyPolicy.ON_LEAVE),
        ).join_all()
        group.net.post_all(group.leader.expel("bob"))
        group.net.run()
        # Bob still believes he is connected (he never saw a close),
        # but everything he seals uses dead keys.
        relayed_before = group.leader.stats.relayed_frames
        group.net.post(group.members["bob"].seal_app(b"let me in"))
        group.net.run()
        assert group.leader.stats.relayed_frames == relayed_before

    def test_expellee_session_key_discarded(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        session = group.leader._sessions["bob"]
        fp = session.session_key_fingerprint
        group.net.post_all(group.leader.expel("bob"))
        group.net.run()
        assert fp in session.discarded_keys
        assert session.session_key_fingerprint is None
        assert session.admin_log == []

    def test_expellee_can_rejoin(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        group.net.post_all(group.leader.expel("bob"))
        group.net.run()
        # Bob's endpoint still thinks it is connected; reset it the way
        # a real client would (leave locally) and rejoin.
        group.members["bob"]._reset_session()
        group.net.post(group.members["bob"].start_join())
        group.net.run()
        assert group.leader.members == ["alice", "bob"]

    def test_expel_nonmember_fails(self):
        group = ItgmGroup(["alice"]).join_all()
        with pytest.raises(StateError):
            group.leader.expel("ghost")
        group.net.post_all(group.leader.expel("alice"))
        group.net.run()
        # Expelling twice is an error: the session is already closed.
        with pytest.raises(StateError):
            group.leader.expel("alice")

    def test_half_open_session_is_aborted_not_expelled(self):
        """``expel`` is the membership check in front of
        ``abort_session``: a handshake that has not completed is no
        membership, so only the latter may close it."""
        group = ItgmGroup(["alice"]).join_all()
        newbie = group.add_member("bob")
        group.leader.handle(newbie.start_join())  # AuthKeyDist withheld
        assert (group.leader.session_state("bob")
                is LeaderState.WAITING_FOR_KEY_ACK)
        with pytest.raises(StateError, match="not a member"):
            group.leader.expel("bob")
        assert (group.leader.session_state("bob")
                is LeaderState.WAITING_FOR_KEY_ACK)
        group.leader.abort_session("bob")
        assert group.leader.session_state("bob") is LeaderState.NOT_CONNECTED
        assert group.leader.members == ["alice"]

    def test_pending_outbox_cleared(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        from repro.enclaves.itgm.admin import TextPayload

        # Queue payloads but don't deliver; then expel.
        group.leader.broadcast_admin(TextPayload("one"))
        group.leader.broadcast_admin(TextPayload("two"))
        group.net.post_all(group.leader.expel("bob"))
        group.net.run()
        assert group.leader.outbox_depth("bob") == 0
