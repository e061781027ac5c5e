"""How often the generic field codec runs on the two hot paths — as exact
counts.

Every body a data message or a membership change moves has a fixed
layout that is packed and read directly; ``encode_fields`` /
``decode_fields`` are left with what has no fixed shape (an ACK bundle,
a batch of admin payloads, a join's handshake) and with malformed input.
A direct path that never fires costs nothing but speed — its fallback
gives the same answers, so no behavioural test can see it.  These
counts can: every module that imported the two functions gets a
counting wrapper, and one warmed-up message and one warmed-up leave and
rejoin are pinned to the call.
"""

import itertools
import sys
from collections import Counter

import pytest

from repro.dataplane.member import DataMember
from repro.enclaves.itgm.member import MemberProtocol
from repro.wire import codec

from tests.shard_world import GROUPS, ShardWorld


@pytest.fixture
def codec_calls(monkeypatch):
    """``Counter`` of ``("encode" | "decode", caller's function name)``
    over every generic codec call any ``repro`` module makes."""
    calls = Counter()
    encode, decode = codec.encode_fields, codec.decode_fields

    def counting_encode(fields):
        calls["encode", sys._getframe(1).f_code.co_name] += 1
        return encode(fields)

    def counting_decode(data, expect=None):
        calls["decode", sys._getframe(1).f_code.co_name] += 1
        return decode(data, expect)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        if getattr(module, "encode_fields", None) is encode:
            monkeypatch.setattr(module, "encode_fields", counting_encode)
        if getattr(module, "decode_fields", None) is decode:
            monkeypatch.setattr(module, "decode_fields", counting_decode)
    return calls


class _DataProtocol:
    """A :class:`MemberProtocol` whose ``handle`` is its
    :class:`DataMember`'s, for ``FabricMember``'s protocol seam."""

    def __init__(self, creds, group_id, rng, grace, bus):
        self.member = MemberProtocol(creds, group_id, rng=rng,
                                     rekey_grace=grace, telemetry=bus)
        self.data = DataMember(self.member)
        self.handle = self.data.handle

    def __getattr__(self, name):
        return getattr(self.member, name)


def _serve(world):
    world.settle(lambda chunk: world.serve_pumped(chunk, itertools.repeat(64)))


def _joined(world, group_id):
    for member in world.members[group_id]:
        world.net.post_all(member.start_join())
        _serve(world)
    assert all(m.connected for m in world.members[group_id])


def test_one_data_message_to_seven_peers(codec_calls):
    """One payload from one of eight members, every peer's ACK back:
    16 frames (1 up, 7 down, 7 ACKs up, 1 bundle down) and no generic
    codec call but the bundle's, which holds as many items as the flush
    had ACKs.  (63 calls — 26 encodes, 37 decodes — before the fixed
    layouts.)"""
    world = ShardWorld(31, pumped=True, group_size=8,
                       protocol_factory=_DataProtocol)
    group_id = GROUPS[0]
    _joined(world, group_id)
    sender = world.members[group_id][0]
    data = sender.protocol.data

    def send(payload):
        world.net.post_all(
            sender._wrap(frame) for frame in data.send_data(payload))
        _serve(world)
        assert data.sender.pending == 0

    send(b"warm-up")  # the first message keys each per-pair prefix
    codec_calls.clear()
    send(b"counted")

    assert codec_calls == Counter({
        ("encode", "bundle_control"): 1,
        ("decode", "unbundle_control"): 1,
    })
    for peer in world.members[group_id][1:]:
        assert [p for _s, _q, p in peer.protocol.data.inbox] == [
            b"warm-up", b"counted"]


def test_one_leave_and_rejoin(codec_calls):
    """A leave and a rejoin of one of three members, each a rekey with
    its membership notice.  What stays generic: the join handshake that
    opens a session, each new payload's first encoding (kept for every
    recipient and every journal record), each AdminMsg batch (a member
    idle at the change gets its notice and the key as one X), the
    batches and notices a member reads, and the AdminMsg / Ack
    plaintexts' parse.  The rekey itself is read directly.  (37 calls
    here; 89 before the fixed layouts and the kept encodings.)"""
    world = ShardWorld(31, pumped=True)
    group_id = GROUPS[0]
    _joined(world, group_id)
    member = world.members[group_id][1]

    def leave_and_rejoin():
        world.net.post(member.start_leave())
        _serve(world)
        world.net.post_all(member.start_join())
        _serve(world)
        assert member.connected and member.protocol.has_group_key

    leave_and_rejoin()  # keys the per-session prefixes
    codec_calls.clear()
    leave_and_rejoin()

    assert codec_calls == Counter({
        # ReqClose, AuthInitReq, AuthKeyDist, AuthAckKey
        ("decode", "_on_req_close"): 1,
        ("decode", "_on_auth_init"): 1,
        ("decode", "_on_key_dist"): 1,
        ("encode", "_on_key_dist"): 1,
        ("decode", "_on_auth_ack"): 1,
        # Leave: MemberLeft and the key, one batch to each of 2 peers.
        # Join: MemberJoined and the key to the same 2, the membership
        # view and the key to the joiner.  Three new payloads and two
        # keys, five batches: ten encodings, each made once.
        ("encode", "encode"): 10,
        ("encode", "encode_str_list"): 1,
        # Five batches and their five notices; the five keys are direct.
        ("decode", "_decode_payload"): 10,
        ("decode", "decode_str_list"): 1,
        # The five AdminMsg and five Ack plaintexts are packed after a
        # kept prefix but read generically (a direct parse of five short
        # fields measured no faster).
        ("decode", "_on_admin"): 5,
        ("decode", "_on_ack"): 5,
    })
