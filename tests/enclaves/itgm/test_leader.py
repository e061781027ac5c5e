"""Tests for the full group leader (membership, rekey, outboxes, relay)."""

import pytest

from repro.crypto.aead import SealedBox
from repro.crypto.keys import KeyMaterial
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import (
    AppMessage,
    Denied,
    GroupKeyChanged,
    MemberJoined,
    MemberLeft,
    MembershipView,
    Rejected,
    RekeyPolicy,
    UserDirectory,
)
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.admin import (
    MemberJoinedPayload,
    MembershipPayload,
    NewGroupKeyPayload,
    TextPayload,
)
from repro.enclaves.itgm.leader import LeaderConfig
from repro.enclaves.itgm.leader_session import LeaderState
from repro.enclaves.itgm.member import MemberProtocol
from repro.exceptions import StateError
from repro.fabric.shard import ShardHost
from repro.storage.simdisk import SimDisk
from repro.util.clock import VirtualClock
from repro.wire.labels import Label
from repro.wire.message import Envelope

from tests.conftest import ItgmGroup


class TestMembership:
    def test_single_join(self):
        group = ItgmGroup(["alice"]).join_all()
        assert group.leader.members == ["alice"]
        assert group.members["alice"].membership == {"alice"}
        assert group.members["alice"].has_group_key

    def test_multi_join_views_converge(self):
        group = ItgmGroup(["alice", "bob", "carol"]).join_all()
        assert group.leader.members == ["alice", "bob", "carol"]
        for member in group.members.values():
            assert member.membership == {"alice", "bob", "carol"}

    def test_join_events(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        alice_events = group.net.events_of("alice")
        assert any(isinstance(e, MembershipView) for e in alice_events)
        assert any(isinstance(e, MemberJoined) and e.user_id == "bob"
                   for e in alice_events)

    def test_leave_updates_views(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        group.net.post(group.members["alice"].start_leave())
        group.net.run()
        assert group.leader.members == ["bob"]
        assert group.members["bob"].membership == {"bob"}
        assert any(isinstance(e, MemberLeft) and e.user_id == "alice"
                   for e in group.net.events_of("bob"))

    def test_unknown_user_denied(self):
        group = ItgmGroup(["alice"]).join_all()
        group.net.inject(
            Envelope(Label.AUTH_INIT_REQ, "stranger", "leader", b"\x00" * 60)
        )
        group.net.run()
        assert group.leader.members == ["alice"]
        assert any(isinstance(e, Denied)
                   for e in group.net.events_of("leader"))

    def test_access_policy_denies_silently(self):
        config = LeaderConfig(access_policy=lambda uid: uid != "banned")
        group = ItgmGroup(["alice"], config=config).join_all()
        banned = group.add_member("banned")
        group.net.post(banned.start_join())
        group.net.run()
        # No reply at all (the improved protocol denies silently).
        assert group.leader.members == ["alice"]
        from repro.enclaves.itgm.member import MemberState

        assert banned.state is MemberState.WAITING_FOR_KEY
        assert group.leader.stats.denied == 1

    def test_rejoin_gets_fresh_session(self):
        group = ItgmGroup(["alice"]).join_all()
        group.net.post(group.members["alice"].start_leave())
        group.net.run()
        group.net.post(group.members["alice"].start_join())
        group.net.run()
        assert group.leader.members == ["alice"]
        session = group.leader._sessions["alice"]
        assert len(session.discarded_keys) == 1


class TestRekeying:
    def test_first_key_on_first_member(self):
        group = ItgmGroup(["alice"])
        assert group.leader.group_epoch == -1
        group.join_all()
        assert group.leader.group_epoch == 0
        assert group.members["alice"].group_epoch == 0

    def test_on_join_policy(self):
        group = ItgmGroup(
            ["alice", "bob"],
            config=LeaderConfig(rekey_policy=RekeyPolicy.ON_JOIN),
        ).join_all()
        # Epoch 0 for alice, epoch 1 when bob joined.
        assert group.leader.group_epoch == 1
        assert group.members["alice"].group_epoch == 1
        assert group.members["bob"].group_epoch == 1

    def test_on_leave_policy(self):
        group = ItgmGroup(
            ["alice", "bob"],
            config=LeaderConfig(rekey_policy=RekeyPolicy.ON_LEAVE),
        ).join_all()
        epoch_before = group.leader.group_epoch
        group.net.post(group.members["alice"].start_leave())
        group.net.run()
        assert group.leader.group_epoch == epoch_before + 1
        assert group.members["bob"].group_epoch == epoch_before + 1

    def test_manual_policy_no_rotation(self):
        group = ItgmGroup(
            ["alice", "bob"],
            config=LeaderConfig(rekey_policy=RekeyPolicy.MANUAL),
        ).join_all()
        assert group.leader.group_epoch == 0  # only the initial key

    def test_rekey_now(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        before = group.leader.group_epoch
        group.net.post_all(group.leader.rekey_now())
        group.net.run()
        assert group.leader.group_epoch == before + 1
        for member in group.members.values():
            assert member.group_epoch == before + 1

    def test_rekey_empty_group_fails(self):
        group = ItgmGroup([])
        with pytest.raises(StateError):
            group.leader.rekey_now()

    def test_periodic_rekey_via_tick(self):
        clock = VirtualClock()
        group = ItgmGroup(
            ["alice"],
            config=LeaderConfig(
                rekey_policy=RekeyPolicy.PERIODIC, rekey_interval=10.0
            ),
        )
        group.leader._clock = clock
        group.join_all()
        before = group.leader.group_epoch
        group.net.post_all(group.leader.tick())
        group.net.run()
        assert group.leader.group_epoch == before  # too early
        clock.advance(11.0)
        group.net.post_all(group.leader.tick())
        group.net.run()
        assert group.leader.group_epoch == before + 1

    def test_old_key_cannot_decrypt_after_rekey(self):
        from repro.crypto.aead import AuthenticatedCipher
        from repro.enclaves.itgm.member import app_ad
        from repro.exceptions import IntegrityError

        group = ItgmGroup(["alice", "bob"]).join_all()
        old_key = group.members["bob"]._group_key
        group.net.post_all(group.leader.rekey_now())
        group.net.run()
        group.net.post(group.members["alice"].seal_app(b"post-rekey"))
        group.net.run()
        frame = [e for e in group.net.wire_log
                 if e.label is Label.APP_DATA and e.recipient == "bob"][-1]
        with pytest.raises(IntegrityError):
            AuthenticatedCipher(old_key).open(
                SealedBox.from_bytes(frame.body), app_ad("alice")
            )


class TestAdminDistribution:
    def test_broadcast_reaches_all(self):
        group = ItgmGroup(["alice", "bob", "carol"]).join_all()
        group.net.post_all(group.leader.broadcast_admin(TextPayload("hi")))
        group.net.run()
        for member in group.members.values():
            assert TextPayload("hi") in member.admin_log

    def test_send_to_one(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        group.net.post_all(
            group.leader.send_admin_to("alice", TextPayload("private"))
        )
        group.net.run()
        assert TextPayload("private") in group.members["alice"].admin_log
        assert TextPayload("private") not in group.members["bob"].admin_log

    def test_send_to_nonmember_fails(self):
        group = ItgmGroup(["alice"]).join_all()
        with pytest.raises(StateError):
            group.leader.send_admin_to("ghost", TextPayload("x"))

    def test_outbox_queues_while_awaiting_ack(self):
        group = ItgmGroup(["alice"]).join_all()
        # Queue several payloads without letting the network run.
        out = []
        out += group.leader.broadcast_admin(TextPayload("1"))
        out += group.leader.broadcast_admin(TextPayload("2"))
        out += group.leader.broadcast_admin(TextPayload("3"))
        # Stop-and-wait: only one envelope can be in flight.
        assert len(out) == 1
        assert group.leader.outbox_depth("alice") == 2
        group.net.post_all(out)
        group.net.run()
        assert [p.text for p in group.members["alice"].admin_log
                if isinstance(p, TextPayload)] == ["1", "2", "3"]
        assert group.leader.outbox_depth("alice") == 0

    def test_ordering_matches_send_log(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        for i in range(5):
            group.net.post_all(
                group.leader.broadcast_admin(TextPayload(f"n{i}"))
            )
            group.net.run()
        for user_id, member in group.members.items():
            assert member.admin_log == group.leader.admin_send_log(user_id)


class TestStreamLocality:
    """Each session, and the group's journal, draws from its own fork
    of the seeded stream (the group key stays on the leader's): a
    perturbation of one consumer moves no other consumer's draws."""

    MEMBERS = ("alice", "bob", "carol")

    def _draws(self, perturbation=None) -> dict[str, list]:
        """The CTR nonces each session sealed under and each journal
        record was sealed under, in order, for one seeded run hosted as
        the fabric hosts a group; ``"served in"`` is the recipient order
        of those frames."""
        rng = DeterministicRandom(11)
        directory = UserDirectory()
        host = ShardHost("shard", SimDisk(), rng=rng.fork("shard"))
        leader = host.host_group(
            "grp", directory, storage_key=KeyMaterial(bytes(32)))
        journal = host.journal("grp")
        records: list[bytes] = []
        journal.subscribe_records(
            lambda record, _seq, _kind: records.append(record[8:]))
        net = SyncNetwork()
        wire(net, "grp", leader)
        joiners = list(self.MEMBERS)
        if perturbation == "insert":
            joiners.insert(1, "dave")
        for uid in joiners:
            creds = directory.register_password(uid, f"pw-{uid}")
            member = MemberProtocol(creds, "grp", rng.fork(uid))
            wire(net, uid, member)
            net.post(member.start_join())
            net.run()
        if perturbation == "journal":
            journal.compact(leader)
        if perturbation == "order":
            leader._sessions = dict(reversed(leader._sessions.items()))
        net.post_all(leader.rekey_now())
        net.run()
        net.post_all(leader.broadcast_admin(TextPayload("notice")))
        net.run()

        draws: dict[str, list] = {uid: [] for uid in joiners}
        draws["served in"] = []
        for frame in net.wire_log:
            if frame.sender == "grp" and frame.label in (
                    Label.AUTH_KEY_DIST, Label.ADMIN_MSG):
                nonce = SealedBox.from_bytes(frame.body).nonce
                if nonce not in draws[frame.recipient]:  # resends
                    draws[frame.recipient].append(nonce)
                    draws["served in"].append(frame.recipient)
        draws["journal"] = [SealedBox.from_bytes(r).nonce for r in records]
        return draws

    @pytest.mark.parametrize("perturbation", ["journal", "order", "insert"])
    def test_no_other_consumer_moves(self, perturbation):
        base, moved = self._draws(), self._draws(perturbation)
        assert moved["served in"] != base["served in"] or (
            moved["journal"] != base["journal"])  # it did perturb
        for consumer in (*self.MEMBERS, "journal"):
            if consumer == perturbation:
                continue
            # One run may go on drawing longer (an inserted member is
            # announced to everyone); the draws both made must agree.
            shorter, longer = sorted(
                (base[consumer], moved[consumer]), key=len)
            assert shorter == longer[:len(shorter)], consumer


class TestRelay:
    def test_relay_to_others_only(self):
        group = ItgmGroup(["alice", "bob", "carol"]).join_all()
        group.net.post(group.members["alice"].seal_app(b"msg"))
        group.net.run()
        assert group.net.events_of("bob", AppMessage)
        assert group.net.events_of("carol", AppMessage)
        assert not group.net.events_of("alice", AppMessage)
        assert group.leader.stats.relayed_frames == 2

    def test_nonmember_frames_not_relayed(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        group.net.inject(
            Envelope(Label.APP_DATA, "stranger", "leader", b"\x00" * 64)
        )
        group.net.run()
        assert not group.net.events_of("bob", AppMessage)

    def test_garbage_app_frame_not_relayed(self):
        group = ItgmGroup(["alice", "bob"]).join_all()
        rejected_before = group.leader.stats.rejected
        group.net.inject(
            Envelope(Label.APP_DATA, "alice", "leader", b"\x00" * 64)
        )
        group.net.run()
        assert group.leader.stats.rejected == rejected_before + 1
        assert not group.net.events_of("bob", AppMessage)

    def test_wrong_recipient_rejected(self):
        group = ItgmGroup(["alice"]).join_all()
        out, events = group.leader.handle(
            Envelope(Label.APP_DATA, "alice", "other-leader", b"")
        )
        assert out == []
        assert any(isinstance(e, Rejected) for e in events)

    def test_app_origin_spoofable_by_current_members_only(self):
        """Documented inherent property of a shared group key (paper
        §3.1: confidentiality 'cannot be guaranteed in the presence of
        nontrustworthy members'): a CURRENT member can spoof another
        member's origin on app frames — group-level integrity protects
        against non-members, not between members.  A NON-member cannot."""
        group = ItgmGroup(["alice", "bob", "mallory"]).join_all()
        from repro.crypto.aead import AuthenticatedCipher
        from repro.enclaves.itgm.member import app_ad
        from repro.wire.codec import encode_fields, encode_str

        group_key = group.members["mallory"]._group_key
        spoof = AuthenticatedCipher(group_key).seal(
            encode_fields([encode_str("alice"), b"not really alice"]),
            app_ad("alice"),
        ).to_bytes()
        group.net.inject(Envelope(Label.APP_DATA, "alice", "leader", spoof))
        group.net.run()
        # The spoof is relayed: mallory IS a current member and the
        # claimed origin is a member too.
        assert any(e.payload == b"not really alice"
                   for e in group.net.events_of("bob", AppMessage))
        # But after mallory is evicted (key rotates), the same trick
        # under her stale key dies at the leader.
        group.net.post_all(group.leader.expel("mallory"))
        group.net.run()
        spoof2 = AuthenticatedCipher(group_key).seal(
            encode_fields([encode_str("alice"), b"post-eviction spoof"]),
            app_ad("alice"),
        ).to_bytes()
        group.net.inject(Envelope(Label.APP_DATA, "alice", "leader", spoof2))
        group.net.run()
        assert not any(e.payload == b"post-eviction spoof"
                       for e in group.net.events_of("bob", AppMessage))
