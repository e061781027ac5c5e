"""The four workloads and one repetition of each.

Every workload is a **closed loop**: a member sends again only after its
full ACK set is in, a membership change starts only after the previous
one converged.  One operation is in flight on the in-process pump, one
per connection (``nproc`` = 2 connections) over TCP.  A repetition runs a
**fixed operation count** on a freshly built stack — admin logs grow
without bound, so work per second drifts with run length and a fixed
duration would not compare like with like.
"""

from __future__ import annotations

import asyncio
import gc
import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.crypto.provider import set_provider, using_provider

from . import gate
from .speed import SpeedMeter
from .stack import Op, Pump, Stack, TcpFabric, Topology
from .trace import Tracer, TracingProvider


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str
    transport: str  # "pump" | "tcp"
    topology: Topology
    payload: int  # bytes per data message
    #: Operations per repetition: data rounds (every member sends once per
    #: round), leave→rejoin cycles, or operations per TCP connection.
    rounds: int = 0
    cycles: int = 0
    per_connection: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(
        "data_steady",
        "fast backend, in-process pump: ratchet, ACKs and 22 wire frames "
        "per message dominate; journal only runs no-op diffs; no net",
        "fast", "pump", Topology(4, 8), 256, rounds=20,
    ),
    Workload(
        "churn_rekey",
        "fast backend, pump: leave/rejoin cycles, each a rekey and admin "
        "fan-out, so leader, journal and seal_many dominate; no data plane",
        "fast", "pump", Topology(4, 8), 256, cycles=150,
    ),
    Workload(
        "mixed_tcp",
        "fast backend over TCP loopback, 15 data sends (1 KiB) to 1 "
        "membership change per connection: the only run with net on the "
        "path and rekeys between data",
        "fast", "tcp", Topology(4, 8), 1024, per_connection=320,
    ),
    Workload(
        "data_reference",
        "data_steady's traffic on the pure-Python reference backend: "
        "crypto is most of the time, so removed crypto calls show here",
        "reference", "pump", Topology(2, 4), 256, rounds=8,
    ),
)}

#: In a mixed schedule every 16th operation is a membership change.
MIX_PERIOD = 16


def _payload(rng: random.Random, index: int, size: int) -> bytes:
    return index.to_bytes(8, "big") + rng.randbytes(size - 8)


def plan(workload: Workload, stack: Stack, seed: int, scale: int):
    """The seeded operation schedule: one list per driver (one for the
    pump, one per connection for TCP).  ``scale`` divides the counts."""
    rng = random.Random(seed)
    size = workload.payload
    everyone = list(stack.members)
    counter = iter(range(1 << 62))
    if workload.rounds:
        ops = []
        for _ in range(max(1, workload.rounds // scale)):
            rng.shuffle(everyone)
            ops += [Op("data", u, _payload(rng, next(counter), size))
                    for u in everyone]
        return [ops]
    if workload.cycles:
        ops = []
        for _ in range(max(1, workload.cycles // scale)):
            uid = rng.choice(everyone)
            ops += [Op("leave", uid), Op("join", uid)]
        return [ops]
    # Which group sends, and which group changes, follows the operation's
    # position, so frame and byte totals are the same for every seed; the
    # seed picks the members and the payloads.
    schedules = []
    for groups in stack.shard_groups.values():
        ops, away = [], None
        for i in range(max(2 * MIX_PERIOD, workload.per_connection // scale)):
            if i % MIX_PERIOD != MIX_PERIOD - 1:
                uids = stack.group_members[groups[i % len(groups)]]
                sender = rng.choice([u for u in uids if u != away])
                ops.append(
                    Op("data", sender, _payload(rng, next(counter), size))
                )
            elif away is None:
                cycle = i // (2 * MIX_PERIOD)
                away = rng.choice(
                    stack.group_members[groups[cycle % len(groups)]]
                )
                ops.append(Op("leave", away))
            else:
                ops.append(Op("join", away))
                away = None
        schedules.append(ops)
    return schedules


class UnfitEnvironment(RuntimeError):
    """This host cannot produce comparable numbers for a workload."""


@dataclass
class Repetition:
    """What one repetition measured.  ``setup`` and ``timed`` are
    ``(begin, end)`` timestamps that ``meter`` turns into raw or
    speed-normalised seconds."""

    meter: SpeedMeter
    setup: tuple[float, float]
    timed: tuple[float, float]
    ops: list[Op]
    frames: list[int]  # [management, data]
    bytes: list[int]
    problems: list[str]
    counters: dict[str, float] = field(default_factory=dict)
    summary: object | None = None  # TraceSummary of a traced repetition
    send_busy_s: float = 0.0
    transits: list[float] = field(default_factory=list)


def run(workload: Workload, seed: int, scale: int = 1,
        traced: bool = False, trace_path=None) -> Repetition:
    """One repetition on a fresh stack under the workload's backend."""
    tracer = Tracer() if traced else None
    with using_provider(workload.backend) as provider:  # restored on exit
        if workload.backend == "fast" and provider.aes_backend != "cryptography":
            raise UnfitEnvironment(
                f"{workload.name}: the fast backend fell back to the "
                "pure-Python block cipher; its numbers would not be comparable"
            )
        if tracer:
            set_provider(TracingProvider(provider, tracer))
        if workload.transport == "tcp":
            rep = asyncio.run(_run_tcp(workload, seed, scale, tracer))
        else:
            rep = _run_pump(workload, seed, scale, tracer)
    if tracer:
        rep.summary = tracer.summary()
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
    return rep


def _setup_problems(joins) -> list[str]:
    return [f"set-up join of {op.uid} failed" for op in joins if not op.ok]


def _meter(tracer) -> SpeedMeter:
    meter = SpeedMeter()
    if tracer:  # calibration is the driver's own time, visibly
        tracer.wrap_method(meter, "sample", "driver")
    return meter


def _run_pump(workload, seed, scale, tracer) -> Repetition:
    meter = _meter(tracer)
    started = meter.sample()
    stack = Stack(workload.topology, seed, tracer)
    pump = Pump(stack)
    joins = [Op("join", uid) for uid in stack.members]
    for op in joins:
        pump.run(op)
        meter.tick()
    setup = (started, perf_counter())
    meter.sample()
    problems = _setup_problems(joins)
    (ops,) = plan(workload, stack, seed, scale)
    before = counters(stack)
    pump.reset()
    gc.collect()
    if tracer:
        tracer.reset()
        tracer.begin("driver", "run")
    start = meter.sample()
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        pump.run(op)
        meter.tick()
    timed = (start, perf_counter())
    meter.sample()
    if tracer:
        tracer.end()
    return Repetition(
        meter, setup, timed, ops, pump.frames, pump.bytes,
        problems + gate.check(stack), _delta(before, counters(stack)),
    )


async def _run_tcp(workload, seed, scale, tracer) -> Repetition:
    meter = _meter(tracer)
    started = meter.sample()
    stack = Stack(workload.topology, seed, tracer)
    fabric = TcpFabric(stack, meter)
    await fabric.open()
    try:
        joins = {
            sid: [Op("join", u) for g in groups
                  for u in stack.group_members[g]]
            for sid, groups in stack.shard_groups.items()
        }
        await asyncio.gather(
            *(fabric.run(sid, ops) for sid, ops in joins.items())
        )
        await fabric.settle()
        setup = (started, perf_counter())
        meter.sample()
        problems = _setup_problems(o for ops in joins.values() for o in ops)
        schedules = plan(workload, stack, seed, scale)
        before = counters(stack, fabric)
        fabric.reset()
        gc.collect()
        if tracer:
            tracer.reset()
            tracer.begin("net", "run")
        start = meter.sample()
        await asyncio.gather(*(
            fabric.run(sid, ops)
            for sid, ops in zip(stack.shard_groups, schedules)
        ))
        timed = (start, perf_counter())
        meter.sample()
        if tracer:
            tracer.end()
        await fabric.settle()
        after = counters(stack, fabric)
    finally:
        await fabric.close()
    ops = [op for schedule in schedules for op in schedule]
    return Repetition(
        meter, setup, timed, ops, fabric.frames, fabric.bytes,
        problems + gate.check(stack), _delta(before, after),
        send_busy_s=fabric.send_busy_s, transits=fabric.transits,
    )


# -- counters read off the layers' own public stats ----------------------------

#: Counters that are high-water marks, not running totals.
_GAUGES = ("overload.max_depth",)


def counters(stack: Stack, fabric: TcpFabric | None = None) -> dict:
    """Running totals of every count the per-layer metrics report."""
    mailboxes = [h.mailbox for h in stack.hosts.values()]
    if fabric is not None:
        mailboxes += [l.mailbox for l in fabric.listeners.values()]
    hosts = list(stack.hosts.values())
    leaders = list(stack.leaders.values())
    journals = [h.journal(g) for h in hosts for g in h.groups]
    datas = [d for ds in stack.datas.values() for d in ds]
    skips = [d.channel.skip_stats() for d in datas]
    total = {
        "overload.offered": sum(m.stats.offered for m in mailboxes),
        "overload.shed": sum(
            m.stats.offered - m.stats.accepted + m.stats.evicted
            for m in mailboxes
        ),
        "overload.max_depth": max(m.stats.max_depth for m in mailboxes),
        "fabric.frames_in": sum(h.stats.frames_in for h in hosts),
        "fabric.delivered": sum(h.stats.delivered for h in hosts),
        "fabric.rejected": sum(
            h.stats.foreign_rejected + h.stats.malformed for h in hosts
        ),
        "fabric.redirected": sum(h.stats.redirected for h in hosts),
        "storage.appends": sum(j.appends for j in journals),
        "storage.compactions": sum(j.compactions for j in journals),
        "storage.fsyncs": sum(
            d.counters["fsyncs"] for d in stack.disks.values()
        ),
        "dataplane.acks_sent": sum(d.receiver.acks_sent for d in datas),
        "dataplane.nacks_sent": sum(d.receiver.nacks_sent for d in datas),
        "dataplane.retransmits": sum(d.sender.retransmits for d in datas),
        "dataplane.duplicates_suppressed": sum(
            d.receiver.duplicates_suppressed for d in datas
        ),
        "dataplane.skip_hits": sum(s["skip_hits"] for s in skips),
    }
    for name in ("joins", "leaves", "rekeys", "relayed_frames",
                 "rejected", "grace_resealed"):
        total[f"itgm.{name}"] = sum(getattr(l.stats, name) for l in leaders)
    return total


def _delta(before: dict, after: dict) -> dict:
    return {
        name: value if name in _GAUGES else value - before[name]
        for name, value in after.items()
    }
