"""NET: one-way TCP frame throughput, the shipped link against streams.

``repro.net.tcp`` runs each connection as one ``asyncio.Protocol``
(``_Link``): a chunk off the socket is parsed into every whole frame it
holds, and ``send`` is one ``transport.write``.  This bench puts it
beside the design it replaced, kept here as the ``streams`` arm: a
``StreamReader`` handler task that awaits ``readexactly`` twice per
frame, and a sender that pairs each ``write`` with a ``drain``.  Both
arms carry the same length-prefixed envelopes over host loopback, one
member to one leader, into the same unbounded receive queue.

For each payload size (64 B, 1 KiB, 64 KiB) the record holds one-way
frames/s per arm: a sender task puts ``FRAMES[size]`` frames on the
wire while the leader's ``recv`` takes them off, timed from the first
send to the last receipt, connection setup excluded.  The arms run
interleaved, the order alternating each repeat, best of ``REPEATS``.
One revert sentinel rides on it: the link is not slower than streams at
64 B, where per-frame overhead is the whole cost.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_bench_transport.py``
(writes ``benchmarks/BENCH_transport.json``).
"""

from __future__ import annotations

import asyncio
import gc
import os
import platform
import struct
import time

from conftest import write_bench_record
from repro.net.tcp import TcpLeaderEndpoint, TcpMemberEndpoint
from repro.wire.labels import Label
from repro.wire.message import Envelope

REPEATS = 5
#: frames per measurement, by payload size: 0.05-0.15 s an arm.
FRAMES = {64: 20000, 1024: 10000, 65536: 600}


class _StreamsLeader:
    """The leader's receive path on the streams layer: one handler task
    per link, two ``readexactly`` per frame, into an unbounded queue."""

    def __init__(self) -> None:
        self.queue: asyncio.Queue[Envelope] = asyncio.Queue()
        self.handlers: set[asyncio.Task] = set()

    async def start(self) -> int:
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer) -> None:
        self.handlers.add(asyncio.current_task())
        try:
            while True:
                (length,) = struct.unpack(">I", await reader.readexactly(4))
                self.queue.put_nowait(
                    Envelope.from_bytes(await reader.readexactly(length)))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            writer.close()

    async def recv(self) -> Envelope:
        return await self.queue.get()

    async def close(self) -> None:
        self.server.close()
        await asyncio.gather(*self.handlers)
        await self.server.wait_closed()


class _StreamsMember:
    """The member's send path on the streams layer: ``write`` + ``drain``
    per frame."""

    async def connect(self, port: int) -> None:
        _, self.writer = await asyncio.open_connection("127.0.0.1", port)

    async def send(self, envelope: Envelope) -> None:
        payload = envelope.to_bytes()
        self.writer.write(struct.pack(">I", len(payload)) + payload)
        await self.writer.drain()

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _open(arm: str):
    if arm == "link":
        leader = TcpLeaderEndpoint("leader")
        await leader.start("127.0.0.1", 0)
        member = TcpMemberEndpoint("member")
        await member.connect("127.0.0.1", leader.port)
    else:
        leader = _StreamsLeader()
        member = _StreamsMember()
        await member.connect(await leader.start())
    return leader, member


async def _one_way(arm: str, size: int) -> float:
    """Seconds to move ``FRAMES[size]`` frames from member to leader."""
    count = FRAMES[size]
    frame = Envelope(Label.APP_DATA, "member", "leader", b"\xa5" * size)
    leader, member = await _open(arm)

    async def send_all() -> None:
        for _ in range(count):
            await member.send(frame)

    try:
        # Warm both ends (and the leader's route) before the clock runs.
        await member.send(frame)
        assert await leader.recv() == frame
        start = time.perf_counter()
        sender = asyncio.create_task(send_all())
        for _ in range(count):
            received = await leader.recv()
        elapsed = time.perf_counter() - start
        await sender
        assert received == frame
        return elapsed
    finally:
        await member.close()
        await leader.close()


def _measure(arm: str, size: int) -> float:
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_one_way(arm, size))
    finally:
        gc.enable()


def test_transport_link_vs_streams():
    arms = ("link", "streams")
    best = {(arm, size): float("inf") for arm in arms for size in FRAMES}
    for attempt in range(REPEATS):
        order = arms if attempt % 2 == 0 else arms[::-1]
        for size in FRAMES:
            for arm in order:
                best[arm, size] = min(best[arm, size], _measure(arm, size))

    rows = {}
    for size, count in FRAMES.items():
        link, streams = (count / best[arm, size] for arm in arms)
        rows[str(size)] = {
            "frames": count,
            "link_frames_per_s": link,
            "streams_frames_per_s": streams,
            "link_over_streams": link / streams,
        }
    write_bench_record("transport", {
        "unit": "one-way frames/s, member to leader over 127.0.0.1",
        "payload_bytes": rows,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    })

    small = rows["64"]
    assert small["link_frames_per_s"] >= small["streams_frames_per_s"], (
        f"link {small['link_frames_per_s']:.0f} frames/s slower than "
        f"streams {small['streams_frames_per_s']:.0f} at 64 B"
    )
