"""One AdminMsg per idle member, whatever is queued for it.

The leader drains a member's whole outbox into the X of one AdminMsg
(two or more payloads as a ``BatchPayload``).  The frame is the unit of
freshness, acknowledgement, retransmission and replay rejection; the
§5.4 lists ``snd_A`` / ``rcv_A`` stay flat, one entry per payload.
"""

from collections import deque

from repro.crypto.aead import SealedBox
from repro.crypto.keys import GroupKey
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import (
    AdminDelivered,
    Credentials,
    GroupKeyChanged,
    Rejected,
    UserDirectory,
)
from repro.enclaves.itgm.admin import (
    BatchPayload,
    MemberJoinedPayload,
    MemberLeftPayload,
    MembershipPayload,
    NewGroupKeyPayload,
    TextPayload,
    decode_payload,
)
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.leader_session import LeaderSession, LeaderState
from repro.enclaves.itgm.member import MemberProtocol, seal_ad
from repro.wire.codec import decode_fields, encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope

from tests.conftest import ItgmGroup


def admin_frames(group, user_id, since=0):
    return [e for e in group.net.wire_log[since:]
            if e.label is Label.ADMIN_MSG and e.recipient == user_id]


def x_of(group, frame):
    """The X field of an AdminMsg, opened with the leader's copy of K_a."""
    session = group.leader._sessions[frame.recipient]
    plain = session._session_cipher.open(
        SealedBox.from_bytes(frame.body),
        seal_ad(Label.ADMIN_MSG, "leader", frame.recipient))
    return decode_payload(decode_fields(plain, expect=5)[4])


def hold_admin_to(group, user_id):
    """Intercept (and keep) every AdminMsg addressed to ``user_id``."""
    held = []

    def interceptor(envelope):
        if envelope.label is Label.ADMIN_MSG and envelope.recipient == user_id:
            held.append(envelope)
            return []
        return None

    group.net.set_interceptor(interceptor)
    return held


def stalled_alice(payloads):
    """A 3-member group where alice's channel was busy while
    ``payloads`` were broadcast one by one; returns the group and the
    AdminMsg she has not seen yet."""
    group = ItgmGroup(["alice", "bob", "carol"]).join_all()
    held = hold_admin_to(group, "alice")
    group.net.post_all(group.leader.broadcast_admin(TextPayload("first")))
    group.net.run()
    for payload in payloads:
        group.net.post_all(group.leader.broadcast_admin(payload))
        group.net.run()
    group.net.set_interceptor(None)
    assert len(held) == 1
    return group, held[0]


class TestLeaderDrainsTheOutbox:
    def test_join_costs_each_side_one_admin_round_trip(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        # alice: [view, key] at her join, then [bob joined, key] at his.
        first, second = admin_frames(group, "alice")
        assert x_of(group, first) == BatchPayload(
            tuple(group.leader.admin_send_log("alice")[:2]))
        assert x_of(group, second) == BatchPayload(
            tuple(group.leader.admin_send_log("alice")[2:]))
        assert len(admin_frames(group, "bob")) == 1
        assert [type(p) for p in group.leader.admin_send_log("alice")] == [
            MembershipPayload, NewGroupKeyPayload,
            MemberJoinedPayload, NewGroupKeyPayload,
        ]

    def test_leave_costs_the_rest_one_admin_round_trip(self):
        group = ItgmGroup(["alice", "bob", "carol"]).join_all()
        mark = len(group.net.wire_log)
        group.net.post(group.members["carol"].start_leave())
        group.net.run()
        for uid in ("alice", "bob"):
            assert len(admin_frames(group, uid, mark)) == 1
            assert [type(p) for p in group.members[uid].admin_log[-2:]] == [
                MemberLeftPayload, NewGroupKeyPayload]
            assert group.members[uid].group_epoch == group.leader.group_epoch

    def test_logs_stay_flat(self):
        queued = [TextPayload("a"), TextPayload("b"), TextPayload("c")]
        group, stalled = stalled_alice(queued)
        alice = group.members["alice"]
        before = len(alice.admin_log)
        mark = len(group.net.wire_log)
        group.net.post(stalled)
        group.net.run()
        # One frame carried all three; both logs list them one by one.
        _stalled, batch = admin_frames(group, "alice", mark)
        assert x_of(group, batch) == BatchPayload(tuple(queued))
        assert alice.admin_log[before:] == [TextPayload("first"), *queued]
        assert group.leader.admin_send_log("alice") == alice.admin_log
        assert not any(isinstance(p, BatchPayload) for p in alice.admin_log)
        assert group.leader.outbox_depth("alice") == 0

    def test_items_are_delivered_as_separate_events_in_order(self):
        queued = [TextPayload("a"), TextPayload("b")]
        group, stalled = stalled_alice(queued)
        seen = len(group.net.events["alice"])
        group.net.post(stalled)
        group.net.run()
        delivered = [e.payload for e in group.net.events["alice"][seen:]
                     if isinstance(e, AdminDelivered)]
        assert delivered == [TextPayload("first"), *queued]

    def test_stats_count_payloads_and_round_trips(self):
        group, stalled = stalled_alice([TextPayload("a"), TextPayload("b")])
        group.net.post(stalled)
        group.net.run()
        session = group.leader._sessions["alice"]
        alice = group.members["alice"]
        assert session.stats.admin_sent == len(session.admin_log)
        assert alice.stats.admin_accepted == len(alice.admin_log)
        # (the stalled frame is on the wire log twice: held, then posted)
        assert session.stats.acks_accepted == len(
            {frame.body for frame in admin_frames(group, "alice")})
        assert session.stats.acks_accepted < session.stats.admin_sent


class TestLonePayloadIsTheOldFrame:
    """A single queued payload must leave exactly as ``send_admin``
    always sent it — same plaintext, same nonce draws, same bytes."""

    def _twin_sessions(self):
        creds = Credentials.from_password("alice", "pw")
        out = []
        for _ in range(2):
            rng = DeterministicRandom(5)
            member = MemberProtocol(creds, "leader", rng.fork("m"))
            session = LeaderSession("leader", "alice", creds.long_term_key,
                                    rng.fork("l"))
            out1, _ = session.handle(member.start_join())
            out2, _ = member.handle(out1[0])
            session.handle(out2[0])
            assert session.state is LeaderState.CONNECTED
            out.append(session)
        return out

    def test_pump_of_one_equals_send_admin(self):
        direct, pumped = self._twin_sessions()
        payload = NewGroupKeyPayload(GroupKey(bytes(range(32))), 3)
        expected = direct.send_admin(payload)

        leader = GroupLeader("leader", UserDirectory(),
                             rng=DeterministicRandom(9))
        leader._sessions["alice"] = pumped
        leader._outboxes["alice"] = deque([payload])
        assert leader._pump() == [expected]
        assert pumped.admin_log == [payload]

    def test_entry_points_with_idle_members_send_no_batch(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        leader = group.leader
        for send, expected in (
            (leader.rekey_now, NewGroupKeyPayload),
            (lambda: leader.send_admin_to("alice", TextPayload("one")),
             TextPayload),
            (lambda: leader.broadcast_admin(TextPayload("all")), TextPayload),
        ):
            frames = send()
            assert frames
            assert {type(x_of(group, f)) for f in frames} == {expected}
            group.net.post_all(frames)
            group.net.run()


class TestFrameIsTheRetransmitAndReplayUnit:
    def _batch_in_flight(self):
        """alice answered the stalled frame; the batch the leader sent
        next is captured instead of delivered."""
        queued = [TextPayload("a"), MemberLeftPayload("zed"), TextPayload("b")]
        group, stalled = stalled_alice(queued)
        acks, _ = group.members["alice"].handle(stalled)
        held = hold_admin_to(group, "alice")
        group.net.post_all(acks)
        group.net.run()
        group.net.set_interceptor(None)
        assert len(held) == 1
        return group, held[0], queued

    def test_duplicate_batch_gets_the_cached_ack_and_is_applied_once(self):
        group, batch, queued = self._batch_in_flight()
        alice = group.members["alice"]
        before = list(alice.admin_log)
        out, events = alice.handle(batch)
        assert alice.admin_log == before + queued
        (ack,) = out
        accepted, rejected = alice.stats.admin_accepted, alice.stats.rejected
        # The Ack is lost; the leader's timer resends the same bytes.
        resent = group.leader.retransmit_stalled()
        assert resent == [batch]
        again, events = alice.handle(resent[0])
        assert again == [ack] and events == []
        assert alice.admin_log == before + queued
        assert (alice.stats.admin_accepted, alice.stats.rejected) \
            == (accepted, rejected)
        # Either copy of the Ack completes the round trip, once.
        group.net.post_all(again + [ack])
        group.net.run()
        assert group.leader.session_state("alice") is LeaderState.CONNECTED
        assert group.leader._sessions["alice"].stats.rejected == 1

    def test_stale_batch_is_rejected_as_a_unit(self):
        group, batch, queued = self._batch_in_flight()
        alice = group.members["alice"]
        group.net.post(batch)
        group.net.run()
        # The channel moves on, so the batch is no longer the frame
        # alice last answered: a replay must not re-apply any item.
        group.net.post_all(group.leader.broadcast_admin(TextPayload("next")))
        group.net.run()
        log, membership = list(alice.admin_log), set(alice.membership)
        out, events = alice.handle(batch)
        assert out == []
        assert [e.reason for e in events] == ["AdminMsg replay (stale nonce)"]
        assert alice.admin_log == log and alice.membership == membership

    def test_batch_with_one_bad_item_is_refused_whole(self):
        """Authentic frame, undecodable item: nothing is applied and the
        nonce does not move (same as an undecodable lone payload)."""
        group = ItgmGroup(["alice"]).join_all()
        alice = group.members["alice"]
        session = group.leader._sessions["alice"]
        x = encode_fields([bytes([0x07]), TextPayload("ok").encode(),
                           encode_fields([bytes([0x7F]), b"?"])])
        body = session._session_cipher.seal(
            encode_fields([encode_str("leader"), encode_str("alice"),
                           session._nonce, bytes(16), x]),
            seal_ad(Label.ADMIN_MSG, "leader", "alice"),
        ).to_bytes()
        log = list(alice.admin_log)
        out, events = alice.handle(
            Envelope(Label.ADMIN_MSG, "leader", "alice", body))
        assert out == [] and alice.admin_log == log
        assert [e.reason for e in events] == ["AdminMsg undecodable payload"]
        # The channel is intact: the next real AdminMsg is accepted.
        group.net.post_all(group.leader.broadcast_admin(TextPayload("t")))
        group.net.run()
        assert alice.admin_log == log + [TextPayload("t")]


class TestSeveralRekeysInOneFrame:
    def test_each_key_change_reports_its_own_epoch(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        held = hold_admin_to(group, "alice")
        for _ in range(3):
            group.net.post_all(group.leader.rekey_now())
            group.net.run()
        group.net.set_interceptor(None)
        alice = group.members["alice"]
        seen = len(group.net.events["alice"])
        group.net.post(held[0])
        group.net.run()
        changes = [e for e in group.net.events["alice"][seen:]
                   if isinstance(e, GroupKeyChanged)]
        top = group.leader.group_epoch
        assert [c.epoch for c in changes] == [top - 2, top - 1, top]
        assert len({c.fingerprint for c in changes}) == 3
        assert alice.group_epoch == top
        assert alice.group_key_fingerprint == group.leader.group_key_fingerprint
        assert not any(isinstance(e, Rejected)
                       for e in group.net.events["alice"][seen:])
