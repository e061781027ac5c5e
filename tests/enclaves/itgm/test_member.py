"""Unit tests for the member state machine (Figure 2)."""

import pytest

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import SessionKey
from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import (
    Credentials,
    Joined,
    Rejected,
)
from repro.enclaves.itgm.admin import TextPayload
from repro.enclaves.itgm.member import MemberProtocol, MemberState, seal_ad
from repro.exceptions import StateError
from repro.wire.codec import decode_fields, encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope


def make_member(seed=0):
    creds = Credentials.from_password("alice", "pw")
    return MemberProtocol(creds, "leader", DeterministicRandom(seed))


def key_dist_for(member, n1, session_key=None, n2=None,
                 leader="leader", user="alice"):
    """Craft a leader-side AuthKeyDist as the real leader would."""
    session_key = session_key or SessionKey(b"\x05" * 32)
    n2 = n2 or b"\x22" * 16
    cipher = AuthenticatedCipher(member.credentials.long_term_key)
    body = cipher.seal(
        encode_fields(
            [encode_str(leader), encode_str(user), n1, n2,
             session_key.material]
        ),
        seal_ad(Label.AUTH_KEY_DIST, "leader", "alice"),
    ).to_bytes()
    return Envelope(Label.AUTH_KEY_DIST, "leader", "alice", body), session_key, n2


def extract_n1(member, envelope):
    """Open the member's own AuthInitReq to recover N1 (as the leader would)."""
    from repro.crypto.aead import SealedBox

    cipher = AuthenticatedCipher(member.credentials.long_term_key)
    plain = cipher.open(
        SealedBox.from_bytes(envelope.body),
        seal_ad(Label.AUTH_INIT_REQ, "alice", "leader"),
    )
    return decode_fields(plain, expect=3)[2]


class TestJoinFlow:
    def test_initial_state(self):
        member = make_member()
        assert member.state is MemberState.NOT_CONNECTED
        assert not member.has_group_key
        assert member.group_epoch == -1

    def test_start_join_transitions(self):
        member = make_member()
        envelope = member.start_join()
        assert member.state is MemberState.WAITING_FOR_KEY
        assert envelope.label is Label.AUTH_INIT_REQ
        assert envelope.sender == "alice"
        assert envelope.recipient == "leader"

    def test_cannot_join_twice(self):
        member = make_member()
        member.start_join()
        with pytest.raises(StateError):
            member.start_join()

    def test_accepts_valid_key_dist(self):
        member = make_member()
        req = member.start_join()
        n1 = extract_n1(member, req)
        envelope, session_key, n2 = key_dist_for(member, n1)
        out, events = member.handle(envelope)
        assert member.state is MemberState.CONNECTED
        assert any(isinstance(e, Joined) for e in events)
        assert len(out) == 1 and out[0].label is Label.AUTH_ACK_KEY
        # The ack is sealed under the session key and contains N2.
        cipher = AuthenticatedCipher(session_key)
        from repro.crypto.aead import SealedBox

        plain = cipher.open(
            SealedBox.from_bytes(out[0].body),
            seal_ad(Label.AUTH_ACK_KEY, "alice", "leader"),
        )
        got_n2, n3 = decode_fields(plain, expect=2)
        assert got_n2 == n2
        assert len(n3) == 16

    def test_rejects_key_dist_with_wrong_n1(self):
        member = make_member()
        member.start_join()
        envelope, _, _ = key_dist_for(member, b"\x99" * 16)
        out, events = member.handle(envelope)
        assert member.state is MemberState.WAITING_FOR_KEY
        assert out == []
        assert any(isinstance(e, Rejected) for e in events)

    def test_rejects_key_dist_with_swapped_identities(self):
        member = make_member()
        req = member.start_join()
        n1 = extract_n1(member, req)
        envelope, _, _ = key_dist_for(member, n1, leader="alice", user="leader")
        _, events = member.handle(envelope)
        assert member.state is MemberState.WAITING_FOR_KEY
        assert any(isinstance(e, Rejected) for e in events)

    def test_rejects_key_dist_under_wrong_key(self):
        member = make_member()
        member.start_join()
        other = Credentials.from_password("alice", "WRONG")
        cipher = AuthenticatedCipher(other.long_term_key)
        body = cipher.seal(
            encode_fields([encode_str("leader"), encode_str("alice"),
                           bytes(16), bytes(16), bytes(32)]),
            seal_ad(Label.AUTH_KEY_DIST, "leader", "alice"),
        ).to_bytes()
        _, events = member.handle(
            Envelope(Label.AUTH_KEY_DIST, "leader", "alice", body)
        )
        assert member.state is MemberState.WAITING_FOR_KEY
        assert any(isinstance(e, Rejected) for e in events)

    def test_rejects_key_dist_when_not_waiting(self):
        member = make_member()
        envelope, _, _ = key_dist_for(member, bytes(16))
        _, events = member.handle(envelope)
        assert any(isinstance(e, Rejected) for e in events)

    def test_rejects_garbage_body(self):
        member = make_member()
        member.start_join()
        _, events = member.handle(
            Envelope(Label.AUTH_KEY_DIST, "leader", "alice", b"\x00" * 80)
        )
        assert any(isinstance(e, Rejected) for e in events)
        assert member.state is MemberState.WAITING_FOR_KEY

    def test_rejects_wrong_recipient(self):
        member = make_member()
        _, events = member.handle(
            Envelope(Label.ADMIN_MSG, "leader", "bob", b"")
        )
        assert any(isinstance(e, Rejected) for e in events)

    def test_stats_count_rejections(self):
        member = make_member()
        member.handle(Envelope(Label.ADMIN_MSG, "leader", "alice", b""))
        member.handle(Envelope(Label.APP_DATA, "leader", "alice", b""))
        assert member.stats.rejected == 2


class TestLifecycle:
    def test_cannot_leave_when_not_connected(self):
        member = make_member()
        with pytest.raises(StateError):
            member.start_leave()

    def test_cannot_send_app_before_group_key(self):
        member = make_member()
        req = member.start_join()
        n1 = extract_n1(member, req)
        envelope, _, _ = key_dist_for(member, n1)
        member.handle(envelope)
        assert member.state is MemberState.CONNECTED
        with pytest.raises(StateError):
            member.seal_app(b"too early")

    def test_leave_resets_state(self):
        member = make_member()
        req = member.start_join()
        n1 = extract_n1(member, req)
        envelope, _, _ = key_dist_for(member, n1)
        member.handle(envelope)
        close = member.start_leave()
        assert close.label is Label.REQ_CLOSE
        assert member.state is MemberState.NOT_CONNECTED
        assert member.admin_log == []
        assert member.membership == set()
        assert not member.has_group_key

    def test_rejoin_after_leave(self):
        member = make_member()
        req = member.start_join()
        n1 = extract_n1(member, req)
        envelope, _, _ = key_dist_for(member, n1)
        member.handle(envelope)
        member.start_leave()
        # A fresh join must produce a different nonce.
        req2 = member.start_join()
        assert member.state is MemberState.WAITING_FOR_KEY
        assert extract_n1(member, req2) != n1


class TestSealAd:
    """``seal_ad`` remembers what it built; what it returns is still
    ``fields[label | sender | recipient]``, whatever was asked before."""

    KNOWN = {
        (Label.ADMIN_MSG, "leader", "alice"):
            "000000030000000104000000066c656164657200000005616c696365",
        (Label.ACK, "alice", "leader"):
            "00000003000000010500000005616c696365000000066c6561646572",
        (Label.ACK, "ålice", "лидер"):
            "00000003000000010500000006c3a56c6963650000000ad0bbd0b8d0b4d0b5d180",
    }

    def test_known_answers_first_and_every_later_time(self):
        seal_ad.cache_clear()
        for _ in range(2):
            for args, expected in self.KNOWN.items():
                assert seal_ad(*args).hex() == expected
        assert seal_ad.cache_info().hits == len(self.KNOWN)

    def test_every_argument_is_in_the_key(self):
        names = ("alice", "bob", "leader", "")
        grid = [(label, sender, recipient)
                for label in (Label.ADMIN_MSG, Label.ACK, Label.REQ_CLOSE)
                for sender in names for recipient in names]
        for args in grid + grid[::-1]:
            label, sender, recipient = args
            assert seal_ad(*args) == encode_fields(
                [bytes([label.value]), encode_str(sender),
                 encode_str(recipient)])
        assert len({seal_ad(*args) for args in grid}) == len(grid)

    def test_the_memory_is_bounded(self):
        for index in range(3 * seal_ad.cache_info().maxsize // 2):
            seal_ad(Label.ACK, f"user-{index}", "leader")
        info = seal_ad.cache_info()
        assert info.currsize == info.maxsize == 1024
