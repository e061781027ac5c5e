"""One ``GROUP_WRAP`` frame is parsed once per hop — as a count.

An uplink frame meets three readers on its way to a hosted leader: the
listener's mailbox and the shard's mailbox (``classify_frame`` ranks a
wrapper by its *inner* frame) and ``ShardHost._route`` (which needs the
group id).  ``unwrap_group`` keeps its result on the wrapper, so the
three share one parse, and that parse reads the wrapper's fixed layout
directly.  Checked the way ``tests/telemetry/test_disabled_path.py``
checks the disabled bus: an exact count of calls into the generic
decoder from ``repro.wire.message``, which cannot flake — none for a
well-formed wrapper (a fast path that never fires would show here and
nowhere else: its fallback gives the same answers), exactly one for
each attempt to read a malformed one.
"""

import asyncio
import copy
import dataclasses
import pickle

import pytest

from repro.enclaves.common import Rejected
from repro.exceptions import CodecError
from repro.net.tcp import TcpLeaderEndpoint, TcpMemberEndpoint
from repro.overload.admission import PriorityClass, classify_frame
from repro.overload.mailbox import BoundedMailbox
from repro.wire import message
from repro.wire.codec import encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope, unwrap_group, wrap_group

from tests.shard_world import GROUPS, SHARD, ShardWorld


@pytest.fixture
def generic_decodes(monkeypatch):
    """Every ``decode_fields`` call ``repro.wire.message`` makes, as
    ``(data, expect)``."""
    calls = []
    decode_fields = message.decode_fields

    def counting(data, expect=None):
        calls.append((data, expect))
        return decode_fields(data, expect)

    monkeypatch.setattr(message, "decode_fields", counting)
    return calls


def uplink(world) -> Envelope:
    """A wrapped ``AuthInitReq`` as it comes off the wire (no parse yet)."""
    (frame,) = world.members[GROUPS[0]][0].start_join()
    return Envelope.from_bytes(frame.to_bytes())


def test_pumped_uplink_frame_is_parsed_once(generic_decodes):
    world = ShardWorld(19, pumped=True)
    frame = uplink(world)
    assert generic_decodes == []  # the envelope itself: no generic decode

    assert world.shard.enqueue(frame)
    out, events = world.shard.pump(64)

    assert generic_decodes == []
    assert world.shard.stats.delivered == 1 and not events
    assert [reply.label for reply in out] == [Label.AUTH_KEY_DIST]


def test_tcp_uplink_frame_is_parsed_once(generic_decodes):
    """Listener mailbox, shard mailbox and demux: three readers, one
    parse (three on the pre-memo code), and not a generic one."""
    world = ShardWorld(19, pumped=True)
    (frame,) = world.members[GROUPS[0]][0].start_join()

    async def scenario():
        listener = TcpLeaderEndpoint(
            SHARD, mailbox=BoundedMailbox(f"{SHARD}/tcp")
        )
        await listener.start("127.0.0.1", 0)
        client = TcpMemberEndpoint("conn")
        await client.connect("127.0.0.1", listener.port)
        try:
            await client.send(frame)
            received = await asyncio.wait_for(listener.recv(), 5)
            assert generic_decodes == []
            assert world.shard.enqueue(received)
            return world.shard.pump(64)
        finally:
            await client.close()
            await listener.close()

    out, events = asyncio.run(scenario())
    assert generic_decodes == []
    assert world.shard.stats.delivered == 1 and not events
    assert [reply.label for reply in out] == [Label.AUTH_KEY_DIST]


INNER = Envelope(Label.ADMIN_MSG, "grp-a.u0", "grp-a", b"x")


@pytest.mark.parametrize("body", [
    b"\xff",
    encode_fields([b"grp-a"]),
    encode_fields([b"grp-a", b"not an envelope"]),
    encode_fields([b"\xff\xfe", INNER.to_bytes()]),
], ids=["garbage", "one-field", "bad-inner", "bad-group-id"])
def test_malformed_wrapper_is_app_class_memoises_nothing_and_is_loud(
    body, generic_decodes
):
    world = ShardWorld(19, pumped=True)
    # The same inner frame in a sound wrapper would be served first.
    assert (classify_frame(wrap_group("grp-a", INNER, SHARD))
            is PriorityClass.CONTROL)
    assert generic_decodes == []
    frame = Envelope(Label.GROUP_WRAP, "grp-a.u0", SHARD, body)

    assert classify_frame(frame) is PriorityClass.APP
    assert len(generic_decodes) == 1  # the error path names the fault
    assert frame._unwrapped is None
    assert world.shard.enqueue(frame)
    out, events = world.shard.pump(64)

    assert len(generic_decodes) == 3  # and the mailbox's, and demux's
    assert frame._unwrapped is None
    assert out == []
    (event,) = events
    assert isinstance(event, Rejected)
    assert event.reason.startswith("malformed group wrapper: ")
    assert world.shard.stats.malformed == 1
    assert world.shard.stats.delivered == 0


def test_the_parse_belongs_to_one_frame_object_only():
    world = ShardWorld(19)
    frame = uplink(world)
    fresh = Envelope.from_bytes(frame.to_bytes())
    parsed = unwrap_group(frame)
    assert unwrap_group(frame) is parsed
    group_id, inner = parsed
    assert group_id == GROUPS[0]
    assert (inner.label, inner.sender) == (Label.AUTH_INIT_REQ, "grp-a.u0")
    assert wrap_group(group_id, inner, SHARD) == frame

    # Equality, hash and repr do not see it...
    assert fresh._unwrapped is None
    assert frame == fresh and hash(frame) == hash(fresh)
    assert repr(frame) == repr(fresh)
    assert frame.to_bytes() == fresh.to_bytes()
    # ...the constructor does not take it...
    with pytest.raises(TypeError):
        Envelope(frame.label, frame.sender, frame.recipient, frame.body,
                 parsed)
    # ...and a frame made from this one with another body starts clean.
    other_inner = Envelope(Label.APP_DATA, "grp-b.u1", GROUPS[1], b"x")
    other = wrap_group(GROUPS[1], other_inner, SHARD)
    tampered = dataclasses.replace(frame, body=other.body)
    assert tampered._unwrapped is None
    assert unwrap_group(tampered) == (GROUPS[1], other_inner)
    assert unwrap_group(frame) is parsed
    with pytest.raises(ValueError):
        dataclasses.replace(frame, _unwrapped=(GROUPS[1], other_inner))
    # Copies are whole frames, parsed or not.
    for duplicate in (copy.deepcopy(frame), pickle.loads(pickle.dumps(frame)),
                      copy.deepcopy(fresh)):
        assert duplicate == frame
        assert unwrap_group(duplicate) == parsed


def test_a_parse_never_changes_what_another_label_gets():
    bare = Envelope(Label.APP_DATA, "u", SHARD,
                    encode_fields([encode_str("g"), b""]))
    with pytest.raises(CodecError, match="expected GROUP_WRAP, got APP_DATA"):
        unwrap_group(bare)
    assert bare._unwrapped is None
