"""The production stack, built from public constructors only, and the two
transports the workloads drive it over.

Fixed configuration (no knobs): a :class:`GroupDirectory` over ``S=2``
:class:`ShardHost` s, each behind a default-capacity
:class:`BoundedMailbox` (so the batched ``enqueue``/``pump`` →
``handle_many`` path runs), profiler unbound, telemetry bus off, one
:class:`Journal` per group on a :class:`SimDisk` with ``fsync_every=1``
and ``compact_threshold=64``, default :class:`LeaderConfig`
(rekey on join and on leave, grace on).  Members are
:class:`FabricMember` composed with ``DataMember(ratcheted=True,
reliable=True)`` through FabricMember's ``protocol_factory`` seam.

Group placement is pinned (``groups / shards`` consecutive groups per
shard, via ``GroupDirectory.move`` before anything is hosted), so a seed
varies keys, nonces and schedules, never topology.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from time import perf_counter

from repro.crypto.rng import DeterministicRandom
from repro.dataplane.member import DataMember
from repro.enclaves.common import UserDirectory
from repro.enclaves.itgm.leader import LeaderConfig
from repro.enclaves.itgm.member import MemberProtocol
from repro.exceptions import ConnectionClosed
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.shard import ShardHost
from repro.net.tcp import TcpLeaderEndpoint, TcpMemberEndpoint
from repro.overload.mailbox import BoundedMailbox
from repro.storage.simdisk import SimDisk
from repro.wire.message import Envelope, wrap_group

from .trace import TracingDisk

SHARDS = 2
#: Frames one ``ShardHost.pump`` call may demux (one service tick).
PUMP_BUDGET = 64
#: A TCP operation that has not completed by then has failed.
OP_TIMEOUT_S = 30.0


def wire_size(envelope: Envelope) -> int:
    """``len(envelope.to_bytes())`` without encoding: a count word, four
    length-prefixed fields, a one-byte label (ids are ASCII)."""
    return (21 + len(envelope.sender) + len(envelope.recipient)
            + len(envelope.body))


class DataProtocol:
    """What ``FabricMember.protocol_factory`` returns: a
    :class:`MemberProtocol` whose ``handle`` is ``DataMember.handle``.

    FabricMember keeps routing, wrapping and the rejoin discipline;
    data frames reach the ratchet and the reliability layer, management
    frames reach the §3.2 core (and re-seed the chains on a new epoch).
    Everything else FabricMember asks of a protocol is the wrapped
    member's.
    """

    def __init__(self, member: MemberProtocol) -> None:
        self.member = member
        self.data = DataMember(member, ratcheted=True, reliable=True)
        self.handle = self.data.handle

    def __getattr__(self, name):
        return getattr(self.member, name)


@dataclass(frozen=True)
class Topology:
    groups: int
    members: int  # per group


class Op:
    """One closed-loop operation: a data message or a membership change."""

    __slots__ = ("kind", "uid", "gid", "payload",
                 "t0", "t1", "base_epoch", "watch", "peers", "ok")

    def __init__(self, kind: str, uid: str, payload: bytes = b"") -> None:
        self.kind = kind  # "data" | "leave" | "join"
        self.uid = uid
        self.gid = uid.split(".")[0]
        self.payload = payload
        self.t0 = self.t1 = 0.0
        self.base_epoch = -1
        self.watch: frozenset[str] = frozenset()
        self.peers: tuple[str, ...] = ()
        self.ok = False


class Stack:
    """One freshly built fabric plus the bookkeeping the correctness
    checks need (who is live, what every member must have received)."""

    def __init__(self, topology: Topology, seed: int, tracer=None) -> None:
        self.tracer = tracer
        rng = DeterministicRandom(seed)
        shard_ids = [f"s{i}" for i in range(SHARDS)]
        self.directory = GroupDirectory(shard_ids, rng=rng.fork("directory"))
        self.disks = {
            sid: SimDisk(rng=rng.fork(f"disk-{sid}")) for sid in shard_ids
        }
        self.hosts = {
            sid: ShardHost(
                sid,
                TracingDisk(disk, tracer) if tracer else disk,
                rng=rng.fork(f"host-{sid}"),
                fsync_every=1,
                compact_threshold=64,
                mailbox=BoundedMailbox(sid),
            )
            for sid, disk in self.disks.items()
        }
        self.members: dict[str, FabricMember] = {}
        self.leaders = {}
        self.group_members: dict[str, list[str]] = {}
        self.shard_groups: dict[str, list[str]] = {s: [] for s in shard_ids}
        #: Every DataMember a user ever had (one unless it re-homed).
        self.datas: dict[str, list[DataMember]] = {}
        for index in range(topology.groups):
            gid = f"g{index}"
            shard_id = shard_ids[index * SHARDS // topology.groups]
            record = self.directory.create_group(gid)
            if record.shard_id != shard_id:
                record = self.directory.move(gid, shard_id)
            users = UserDirectory()
            self.group_members[gid] = []
            for m in range(topology.members):
                uid = f"{gid}.m{m}"
                # The password carries the seed so PBKDF2's process-wide
                # memo never serves a later repetition: set-up stays cold.
                creds = users.register_password(uid, f"pw-{seed}-{uid}")
                self.members[uid] = FabricMember(
                    creds, gid, self.directory, rng=rng.fork(uid),
                    protocol_factory=self._protocol,
                )
                self.group_members[gid].append(uid)
            self.leaders[gid] = self.hosts[shard_id].host_group(
                gid, users, storage_key=record.storage_key,
                config=LeaderConfig(),
            )
            self.shard_groups[shard_id].append(gid)
        self.live: dict[str, set[str]] = {g: set() for g in self.leaders}
        #: uid -> (sender, payload) of every message it must deliver.
        self.expected: dict[str, list[tuple[str, bytes]]] = {
            uid: [] for uid in self.members
        }
        self._seen = dict.fromkeys(self.members, 0)
        self.encode = Envelope.to_bytes
        self.decode = Envelope.from_bytes
        #: Joins by a member that left before: each resends its cached
        #: ReqClose, which the leader rejects (counted, not a failure).
        self.rejoins = 0
        self._has_left: set[str] = set()
        if tracer:
            self._instrument(tracer)

    def _protocol(self, credentials, group_id, rng, rekey_grace, telemetry):
        member = MemberProtocol(
            credentials, group_id, rng=rng, rekey_grace=rekey_grace,
            telemetry=telemetry,
        )
        adapter = DataProtocol(member)
        self.datas.setdefault(credentials.user_id, []).append(adapter.data)
        if self.tracer:
            self.tracer.wrap_method(member, "handle", "itgm")
            self.tracer.wrap_method(adapter.data, "send_data", "dataplane")
            self.tracer.wrap_method(adapter.data.channel, "rebind", "dataplane")
            adapter.handle = self.tracer.wrap(
                adapter.data.handle, "dataplane", "DataMember.handle"
            )
        return adapter

    def _instrument(self, tracer) -> None:
        """Instance-level spans on the public methods of every layer."""
        batch = len
        self.encode = tracer.wrap(Envelope.to_bytes, "wire", "wire.encode")
        self.decode = tracer.wrap(
            Envelope.from_bytes, "wire", "wire.decode", len
        )
        tracer.wrap_method(self.directory, "lookup", "fabric")
        for host in self.hosts.values():
            tracer.wrap_method(host, "enqueue", "fabric")
            tracer.wrap_method(host, "pump", "fabric")
            tracer.wrap_method(host.mailbox, "offer", "overload")
            tracer.wrap_method(host.mailbox, "drain", "overload")
            for gid in host.groups:
                leader, journal = host.leader(gid), host.journal(gid)
                tracer.wrap_method(leader, "handle", "itgm")
                tracer.wrap_method(leader, "handle_many", "itgm", batch)
                for call in ("record_mutation", "sync", "compact"):
                    tracer.wrap_method(journal, call, "storage")
        for member in self.members.values():
            for call in ("handle", "start_join", "start_leave"):
                tracer.wrap_method(member, call, "fabric")
        for call in ("start", "done", "verify"):
            tracer.wrap_method(self, call, "driver")

    # -- operations ----------------------------------------------------------

    def data_member(self, uid: str) -> DataMember:
        return self.members[uid].protocol.data

    def start(self, op: Op) -> list[Envelope]:
        """Make the member-side call for ``op``; returns the wrapped
        frames to put on the wire.  ``op.t0`` is taken just before."""
        member = self.members[op.uid]
        live = self.live[op.gid]
        if op.kind == "data":
            op.peers = tuple(u for u in live if u != op.uid)
            op.watch = frozenset((op.uid,))
            for peer in op.peers:
                self.expected[peer].append((op.uid, op.payload))
            op.t0 = perf_counter()
            inner = self.data_member(op.uid).send_data(op.payload)
            shard_id = member.route.shard_id
            return [wrap_group(op.gid, env, shard_id) for env in inner]
        op.base_epoch = self.leaders[op.gid].group_epoch
        if op.kind == "leave":
            live.discard(op.uid)
            self._has_left.add(op.uid)
            op.watch = frozenset(live)
            op.t0 = perf_counter()
            return [member.start_leave()]
        self.rejoins += op.uid in self._has_left
        live.add(op.uid)
        op.watch = frozenset(live)
        op.t0 = perf_counter()
        return member.start_join()

    def done(self, op: Op) -> bool:
        """Has ``op`` reached its user-visible end?

        data: the sender's full ACK set is in (``pending == 0``).
        join/leave: the leader moved to a new epoch and every live member
        of the group (a joiner included) holds that epoch's key.
        """
        if op.kind == "data":
            return self.data_member(op.uid).sender.pending == 0
        epoch = self.leaders[op.gid].group_epoch
        if epoch <= op.base_epoch:
            return False
        members = self.members
        return all(
            members[u].protocol.group_epoch == epoch
            for u in self.live[op.gid]
        )

    def verify(self, op: Op) -> bool:
        """Per-operation check once ``op`` completed (or the wire went
        idle): payload-exact, exactly-once delivery to every peer for
        data; converged membership for a change."""
        if op.t1 == 0.0:
            ok = False
        elif op.kind == "data":
            ok = True
            for peer in op.peers:
                inbox = self.data_member(peer).inbox
                if not (len(inbox) == self._seen[peer] + 1
                        and inbox[-1][0] == op.uid
                        and inbox[-1][2] == op.payload):
                    ok = False
                self._seen[peer] = len(inbox)
        else:
            ok = self.leaders[op.gid].members == sorted(self.live[op.gid])
        op.ok = ok
        return ok


class Wire:
    """Frame and byte counts per hop, split data plane / management.

    An uplink frame is classed like the frame that caused it (a member
    answers data with ACKs and management with management) or like the
    operation that issued it.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Start counting afresh (set-up traffic is not the run's)."""
        self.frames = [0, 0]  # [management, data]
        self.bytes = [0, 0]

    def count(self, is_data: bool, size: int) -> None:
        self.frames[is_data] += 1
        self.bytes[is_data] += size


class Pump(Wire):
    """In-process transport: every hop is ``to_bytes()`` / ``from_bytes()``
    and one operation is in flight (run to an idle wire)."""

    def __init__(self, stack: Stack) -> None:
        super().__init__()
        self.stack = stack
        self._up: deque[tuple[bool, bytes]] = deque()
        self._down: deque[bytes] = deque()

    def run(self, op: Op) -> None:
        stack = self.stack
        encode, decode = stack.encode, stack.decode
        up, down = self._up, self._down
        members, hosts = stack.members, stack.hosts
        is_data = op.kind == "data"
        for frame in stack.start(op):
            up.append((is_data, encode(frame)))
        waiting = True
        while up or down:
            while down:
                raw = down.popleft()
                envelope = decode(raw)
                kind = envelope.label.is_data
                self.count(kind, len(raw))
                out, _events = members[envelope.recipient].handle(envelope)
                for frame in out:
                    up.append((kind, encode(frame)))
                if (waiting and envelope.recipient in op.watch
                        and stack.done(op)):
                    op.t1 = perf_counter()
                    waiting = False
            while up:
                kind, raw = up.popleft()
                self.count(kind, len(raw))
                envelope = decode(raw)
                hosts[envelope.recipient].enqueue(envelope)
            for host in hosts.values():
                while len(host.mailbox):
                    out, _events = host.pump(PUMP_BUDGET)
                    for frame in out:
                        down.append(encode(frame))
        stack.verify(op)


class _Connection:
    def __init__(self, endpoint: TcpMemberEndpoint) -> None:
        self.endpoint = endpoint
        self.waiting: Op | None = None
        self.completed: asyncio.Future | None = None
        self.reader: asyncio.Task | None = None


class TcpFabric(Wire):
    """``repro.net.tcp`` over host loopback, one asyncio loop.

    One :class:`TcpLeaderEndpoint` (with its own bounded mailbox) per
    shard; one :class:`TcpMemberEndpoint` connection per shard carrying
    all of that shard's members (the leader endpoint routes by claimed
    sender).  One operation is in flight per connection.
    """

    def __init__(self, stack: Stack, meter) -> None:
        super().__init__()
        self.stack = stack
        self.meter = meter
        self.listeners: dict[str, TcpLeaderEndpoint] = {}
        self.connections: dict[str, _Connection] = {}
        self._servers: list[asyncio.Task] = []
        self._in_flight: dict[Envelope, float] = {}
        if stack.tracer:
            self._send, self._recv = self._send_timed, self._recv_timed

    def reset(self) -> None:
        super().reset()
        self.send_busy_s = 0.0
        self.transits: list[float] = []

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        for sid, host in self.stack.hosts.items():
            listener = TcpLeaderEndpoint(
                sid, mailbox=BoundedMailbox(f"{sid}/tcp")
            )
            if self.stack.tracer:
                for call in ("offer", "take"):
                    self.stack.tracer.wrap_method(
                        listener.mailbox, call, "overload"
                    )
            await listener.start("127.0.0.1", 0)
            self.listeners[sid] = listener
            self._servers.append(loop.create_task(self._serve(host, listener)))
            endpoint = TcpMemberEndpoint(f"conn-{sid}")
            await endpoint.connect("127.0.0.1", listener.port)
            connection = self.connections[sid] = _Connection(endpoint)
            connection.reader = loop.create_task(self._read(connection))

    async def close(self) -> None:
        """Clients first, then the shard loops, then the listeners.
        ``TcpLeaderEndpoint.close`` does not wait for its per-link
        handlers: one still parked in a read when the loop ends makes
        asyncio log a CancelledError from ``_handle``."""
        for connection in self.connections.values():
            connection.reader.cancel()
        await asyncio.gather(
            *(c.reader for c in self.connections.values()),
            return_exceptions=True,
        )
        for connection in self.connections.values():
            await connection.endpoint.close()
        await asyncio.sleep(0.01)  # let the listeners see the EOFs
        for task in self._servers:
            task.cancel()
        await asyncio.gather(*self._servers, return_exceptions=True)
        for listener in self.listeners.values():
            await listener.close()

    # -- the two send/recv variants (untraced / timed) -----------------------

    async def _send(self, endpoint, envelope: Envelope) -> None:
        await endpoint.send(envelope)

    async def _recv(self, endpoint) -> Envelope:
        return await endpoint.recv()

    async def _send_timed(self, endpoint, envelope: Envelope) -> None:
        start = self._in_flight[envelope] = perf_counter()
        await endpoint.send(envelope)
        self.send_busy_s += perf_counter() - start

    async def _recv_timed(self, endpoint) -> Envelope:
        envelope = await endpoint.recv()
        sent = self._in_flight.pop(envelope, None)
        if sent is not None:
            self.transits.append(perf_counter() - sent)
        return envelope

    # -- loops ---------------------------------------------------------------

    async def _serve(self, host: ShardHost, listener) -> None:
        intake = listener.mailbox
        try:
            while True:
                host.enqueue(await self._recv(listener))
                while (envelope := intake.take()) is not None:
                    host.enqueue(envelope)
                while len(host.mailbox):
                    out, _events = host.pump(PUMP_BUDGET)
                    for frame in out:
                        self.count(frame.label.is_data, 4 + wire_size(frame))
                        await self._send(listener, frame)
        except ConnectionClosed:
            pass

    async def _read(self, connection: _Connection) -> None:
        stack, endpoint = self.stack, connection.endpoint
        try:
            while True:
                envelope = await self._recv(endpoint)
                out, _events = stack.members[envelope.recipient].handle(
                    envelope
                )
                kind = envelope.label.is_data
                for frame in out:
                    self.count(kind, 4 + wire_size(frame))
                    await self._send(endpoint, frame)
                op = connection.waiting
                if (op is not None and envelope.recipient in op.watch
                        and stack.done(op)):
                    op.t1 = perf_counter()
                    connection.waiting = None
                    connection.completed.set_result(None)
        except ConnectionClosed:
            pass

    async def run(self, shard_id: str, ops) -> None:
        """Drive one connection's operations, one at a time."""
        stack = self.stack
        connection = self.connections[shard_id]
        loop = asyncio.get_running_loop()
        for op in ops:
            connection.completed = loop.create_future()
            frames = stack.start(op)
            connection.waiting = op
            is_data = op.kind == "data"
            for frame in frames:
                self.count(is_data, 4 + wire_size(frame))
                await self._send(connection.endpoint, frame)
            try:
                async with asyncio.timeout(OP_TIMEOUT_S):
                    await connection.completed
            except TimeoutError:
                connection.waiting = None
            stack.verify(op)
            if not op.ok:
                return  # the gate reports it; do not pile up timeouts
            self.meter.tick()

    async def settle(self) -> None:
        """Wait until no admin exchange is outstanding at any leader (the
        last ACKs of the final operation may still be on the wire)."""
        deadline = perf_counter() + OP_TIMEOUT_S
        while perf_counter() < deadline:
            if all(
                leader.outbox_depth(uid) == 0
                and leader.session_state(uid).name == "CONNECTED"
                for gid, leader in self.stack.leaders.items()
                for uid in self.stack.live[gid]
            ):
                return
            await asyncio.sleep(0.001)
