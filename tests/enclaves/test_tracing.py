"""Tests for the transcript formatter."""

from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader
from repro.enclaves.itgm.member import MemberProtocol
from repro.enclaves.tracing import (
    KeyRing,
    format_frame,
    format_transcript,
)
from repro.crypto.rng import DeterministicRandom
from repro.telemetry.events import frame_id
from repro.wire.labels import Label
from repro.wire.message import Envelope


def build_session(seed=0):
    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    directory = UserDirectory()
    creds = directory.register_password("alice", "pw")
    leader = GroupLeader("leader", directory, rng=rng.fork("l"))
    wire(net, "leader", leader)
    member = MemberProtocol(creds, "leader", rng.fork("m"))
    wire(net, "alice", member)
    net.post(member.start_join())
    net.run()
    return net, leader, member, creds


class TestFormatFrame:
    def test_plaintext_frame(self):
        line = format_frame(1, Envelope(Label.REQ_OPEN, "a", "l", b""))
        assert "REQ_OPEN" in line and "(empty)" in line

    def test_sealed_without_keys(self):
        net, _, _, _ = build_session()
        line = format_frame(1, net.wire_log[0])
        assert "<sealed" in line

    def test_sealed_with_keys_decrypts(self):
        net, _, member, creds = build_session()
        ring = KeyRing([creds.long_term_key])
        line = format_frame(1, net.wire_log[0], ring)
        assert "alice" in line and "leader" in line
        assert "<sealed" not in line

    def test_wrong_keys_stay_opaque(self):
        net, _, _, _ = build_session()
        from repro.crypto.keys import SessionKey

        ring = KeyRing([SessionKey(bytes(32))])
        line = format_frame(1, net.wire_log[0], ring)
        assert "<sealed" in line

    def test_app_data_decrypts_with_group_key(self):
        net, leader, member, creds = build_session()
        net.post(member.seal_app(b"visible to analysts"))
        net.run()
        app = [e for e in net.wire_log if e.label is Label.APP_DATA][0]
        ring = KeyRing([member._group_key])
        line = format_frame(1, app, ring)
        assert "visible to analysts" in line

    def test_relayed_app_data_still_decrypts(self):
        # APP_DATA binds (label, origin) only; the leader relays it
        # with the recipient rewritten but the origin kept as sender,
        # so the relayed copy must open under the same keyring as the
        # original upload despite the changed recipient.
        net, leader, member, creds = build_session()
        original = member.seal_app(b"fan-out payload")
        relayed = Envelope(
            Label.APP_DATA, "alice", "bob", original.body
        )
        ring = KeyRing([member._group_key])
        line = format_frame(1, relayed, ring)
        assert "fan-out payload" in line

    def test_undecryptable_app_data_falls_back_to_sealed(self):
        net, leader, member, creds = build_session()
        net.post(member.seal_app(b"secret"))
        net.run()
        app = [e for e in net.wire_log if e.label is Label.APP_DATA][0]
        # Session key cannot open a group-key frame: stays opaque, no
        # exception.
        ring = KeyRing([member._session_key])
        line = format_frame(1, app, ring)
        assert "<sealed" in line
        assert "secret" not in line

    def test_show_ids_prefixes_frame_id(self):
        net, _, _, _ = build_session()
        envelope = net.wire_log[0]
        line = format_frame(1, envelope, show_ids=True)
        assert f"[{frame_id(envelope)}]" in line


class TestFormatTranscript:
    def test_full_session_transcript(self):
        net, _, member, creds = build_session()
        ring = KeyRing([creds.long_term_key, member._session_key,
                        member._group_key])
        text = format_transcript(net.wire_log, ring, title="session")
        assert text.startswith("session")
        assert "AUTH_INIT_REQ" in text
        assert "ADMIN_MSG" in text
        # Every frame numbered.
        assert f"{len(net.wire_log):>4}" in text

    def test_empty_log(self):
        assert "(no frames)" in format_transcript([])

    def test_never_raises_on_garbage(self):
        frames = [
            Envelope(Label.ADMIN_MSG, "x", "y", b"\x00" * 7),
            Envelope(Label.APP_DATA, "x", "y", b"\xff" * 100),
        ]
        text = format_transcript(frames, KeyRing([]))
        assert "ADMIN_MSG" in text

    def test_show_ids_on_every_line(self):
        net, _, _, _ = build_session()
        text = format_transcript(net.wire_log, show_ids=True)
        for envelope in net.wire_log:
            assert f"[{frame_id(envelope)}]" in text
