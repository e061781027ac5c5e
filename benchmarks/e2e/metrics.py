"""Metric definitions (name, unit, direction, bound) and how one repetition's
measurements become metric values.

``BENCHMARK.json`` at the repository root is a rendered copy of
:func:`benchmark_json`; the self-test keeps the two identical.

Two vocabularies share one set of samples:

* ``END_TO_END`` — the driver contract: defined on **every** workload and
  never zero, so each is stated per *operation* (a data message fully
  ACKed, or a membership change converged).
* ``DETAIL`` — the same run split by operation kind (the names ISSUE 11
  lists), reported by the suite run and ``compare.py`` on the workloads
  where the kind occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # share of the baseline median it may worsen by


RUN_SECONDS = 25

#: Bounds are at least three times the widest spread of ten runs seen on
#: the build box for that kind of metric (rates 3 %, medians 4 %, p95 9 %,
#: set-up 5 %) and twice the widest shift between two sets of runs taken
#: half an hour apart (rates 7 %, p95 11 %), capped at the contract's 25 %
#: (README, "Noise").
RATE, P50, P95 = 0.15, 0.15, 0.25

END_TO_END = (
    Metric("ops_per_s", "1/s", "higher", RATE),
    Metric("op_latency_p50_ms", "ms", "lower", P50),
    Metric("op_latency_p95_ms", "ms", "lower", P95),
    # Exact counts: any increase is real.  1 % rather than 0 only so the
    # driver never sees a zero bound; DETAIL's per-kind counts use 0.
    Metric("wire_frames_per_op", "count", "lower", 0.01),
    Metric("wire_bytes_per_op", "B", "lower", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

DETAIL = (
    Metric("data_msgs_per_s", "1/s", "higher", RATE),
    Metric("data_latency_p50_ms", "ms", "lower", P50),
    Metric("data_latency_p95_ms", "ms", "lower", P95),
    Metric("member_changes_per_s", "1/s", "higher", RATE),
    Metric("join_latency_p50_ms", "ms", "lower", P50),
    Metric("join_latency_p95_ms", "ms", "lower", P95),
    Metric("rekey_propagation_p50_ms", "ms", "lower", P50),
    Metric("wire_frames_per_msg", "count", "lower", 0.0),
    Metric("rekey_frames_per_change", "count", "lower", 0.0),
    Metric("rekey_bytes_per_change", "B", "lower", 0.0),
    Metric("failed_ops_ratio", "ratio", "lower", 0.0),
)

_LAYER_FIELDS = {
    "driver": "ops_attempted ops_failed self_s share trace_overhead_ratio "
              "layer_sum_error data_latency_p99_ms join_latency_p99_ms "
              "speed_factor raw_ops_per_s",
    "net": "frames_sent bytes_sent send_busy_s transit_p50_us "
           "transit_p95_us self_s share",
    "wire": "frames bytes encode_s decode_s self_s share",
    "overload": "offered shed max_depth offer_s drain_s self_s share",
    "fabric": "frames_in delivered rejected redirected batch_frames_mean "
              "directory_lookups demux_self_s member_wrap_self_s self_s share",
    "itgm": "leader_calls leader_self_s member_self_s joins leaves rekeys "
            "relayed_frames rejected grace_resealed self_s share",
    "storage": "record_calls appends noop_ratio record_self_s compactions "
               "compact_s fsyncs fsyncs_per_change bytes_appended "
               "bytes_per_change disk_s self_s share",
    "crypto": "busy_s seal_calls open_calls seal_many_calls open_many_calls "
              "batch_items_mean hmac_calls hkdf_calls bytes_sealed "
              "bytes_opened calls_per_msg calls_per_change self_s share",
    "dataplane": "send_self_s recv_self_s acks_sent nacks_sent retransmits "
                 "duplicates_suppressed skip_hits rebinds self_s share",
}
LAYERS = tuple(_LAYER_FIELDS)


def _layer_metric(name: str) -> Metric:
    field = name.split(".")[1]
    if field == "raw_ops_per_s":
        unit = "1/s"
    elif field.endswith("_us") or field.endswith("_ms"):
        unit = field[-2:]
    elif field.endswith("_s"):
        unit = "s"
    elif "bytes" in field:
        unit = "B"
    elif (field.endswith(("share", "ratio", "error", "mean", "factor"))
          or "_per_" in field):
        unit = "ratio"
    else:
        unit = "count"
    return Metric(name, unit, "higher" if field.endswith("_mean") else "lower")


PER_LAYER = tuple(
    _layer_metric(f"{layer}.{field}")
    for layer, fields in _LAYER_FIELDS.items()
    for field in fields.split()
)


def benchmark_json(workloads) -> dict:
    """The document ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _latencies_ms(rep, *kinds):
    """Speed-normalised latencies of the completed operations."""
    normalized = rep.meter.normalized
    return [normalized(op.t0, op.t1) * 1e3
            for op in rep.ops if op.kind in kinds and op.ok]


def end_to_end(rep) -> tuple[dict[str, float], dict[str, int]]:
    """One untraced repetition's metric values (``peak_rss_mb`` is a
    process-wide figure and added by the caller) and the sample count
    behind every percentile.  Every time is speed-normalised (speed.py)."""
    ops = rep.ops
    data = _latencies_ms(rep, "data")
    joins = _latencies_ms(rep, "join")
    leaves = _latencies_ms(rep, "leave")
    everything = data + joins + leaves
    n_data = sum(op.kind == "data" for op in ops)
    n_changes = len(ops) - n_data
    failed = sum(not op.ok for op in ops)
    wall = rep.meter.normalized(*rep.timed)
    values = {
        "ops_per_s": len(ops) / wall,
        "wire_frames_per_op": sum(rep.frames) / len(ops),
        "wire_bytes_per_op": sum(rep.bytes) / len(ops),
        "setup_s": rep.meter.normalized(*rep.setup),
        "failed_ops_ratio": failed / len(ops),
    }
    samples = {}

    def spread(prefix, latencies, *quantiles):
        for label, q in quantiles:
            if latencies:
                values[f"{prefix}_{label}_ms"] = percentile(latencies, q)
                samples[f"{prefix}_{label}_ms"] = len(latencies)

    spread("op_latency", everything, ("p50", 0.5), ("p95", 0.95))
    if n_data:
        values["data_msgs_per_s"] = n_data / wall
        values["wire_frames_per_msg"] = rep.frames[1] / n_data
        spread("data_latency", data, ("p50", 0.5), ("p95", 0.95))
    if n_changes:
        values["member_changes_per_s"] = n_changes / wall
        values["rekey_frames_per_change"] = rep.frames[0] / n_changes
        values["rekey_bytes_per_change"] = rep.bytes[0] / n_changes
        spread("join_latency", joins, ("p50", 0.5), ("p95", 0.95))
        spread("rekey_propagation", leaves, ("p50", 0.5))
    return values, samples


def per_layer(rep, untraced) -> dict[str, float]:
    """One traced repetition's per-layer metric values.  ``untraced`` is
    the repetition run just before it without tracing: the pair gives the
    tracing overhead; the p99s, the machine-speed factor and the raw
    (not normalised) throughput come from the untraced one."""
    s = rep.summary
    c = rep.counters
    ops = rep.ops
    n_data = sum(op.kind == "data" for op in ops)
    n_changes = len(ops) - n_data
    total = sum(s.layer_self.values())
    tcp = "net" in s.layer_self

    def per(count, n):
        return count / n if n else 0.0

    v = {f"{layer}.self_s": s.layer_self.get(layer, 0.0) for layer in LAYERS}
    v.update({f"{layer}.share": v[f"{layer}.self_s"] / total
              for layer in LAYERS})
    data = _latencies_ms(untraced, "data")
    joins = _latencies_ms(untraced, "join")
    traced_wall = rep.timed[1] - rep.timed[0]  # raw, calibration included
    busy = untraced.meter.normalized(*untraced.timed, scale=False)
    at_reference = untraced.meter.normalized(*untraced.timed)
    v.update({
        "driver.ops_attempted": len(ops),
        "driver.ops_failed": sum(not op.ok for op in ops),
        "driver.trace_overhead_ratio":
            rep.meter.normalized(*rep.timed) / at_reference,
        "driver.layer_sum_error": abs(total - traced_wall) / traced_wall,
        "driver.speed_factor": busy / at_reference,
        "driver.raw_ops_per_s": len(untraced.ops) / busy,
        "driver.data_latency_p99_ms": percentile(data, 0.99) if data else 0.0,
        "driver.join_latency_p99_ms": percentile(joins, 0.99) if joins else 0.0,
    })
    transits = [t * 1e6 for t in rep.transits]
    v.update({
        "net.frames_sent": sum(rep.frames) if tcp else 0,
        "net.bytes_sent": sum(rep.bytes) if tcp else 0,
        "net.send_busy_s": rep.send_busy_s,
        "net.transit_p50_us": percentile(transits, 0.5) if transits else 0.0,
        "net.transit_p95_us": percentile(transits, 0.95) if transits else 0.0,
        "wire.frames": 0 if tcp else sum(rep.frames),
        "wire.bytes": 0 if tcp else sum(rep.bytes),
        "wire.encode_s": s.name_total["wire.encode"],
        "wire.decode_s": s.name_total["wire.decode"],
        "overload.offer_s": s.name_total["BoundedMailbox.offer"],
        "overload.drain_s": (s.name_total["BoundedMailbox.drain"]
                             + s.name_total["BoundedMailbox.take"]),
        "fabric.batch_frames_mean": per(
            s.name_size["GroupLeader.handle_many"],
            s.name_calls["GroupLeader.handle_many"]),
        "fabric.directory_lookups": s.name_calls["GroupDirectory.lookup"],
        "fabric.demux_self_s": s.self_of("ShardHost.enqueue", "ShardHost.pump"),
        "fabric.member_wrap_self_s": s.self_of(
            "FabricMember.handle", "FabricMember.start_join",
            "FabricMember.start_leave", "GroupDirectory.lookup"),
        "itgm.leader_calls": s.name_calls["GroupLeader.handle"],
        "itgm.leader_self_s": s.self_of(
            "GroupLeader.handle", "GroupLeader.handle_many"),
        "itgm.member_self_s": s.self_of("MemberProtocol.handle"),
    })
    records = s.name_calls["Journal.record_mutation"]
    appends = c["storage.appends"]
    v.update({
        "storage.record_calls": records,
        "storage.noop_ratio": 1 - per(appends, records),
        "storage.record_self_s": s.self_of("Journal.record_mutation"),
        "storage.compact_s": s.name_total["Journal.compact"],
        "storage.fsyncs_per_change": per(c["storage.fsyncs"], n_changes),
        "storage.bytes_appended": s.name_size["disk.append"],
        "storage.bytes_per_change": per(s.name_size["disk.append"], n_changes),
        "storage.disk_s": sum(
            t for name, t in s.name_total.items() if name.startswith("disk.")),
    })
    crypto_calls = sum(
        n for name, n in s.name_calls.items() if name.startswith("crypto."))
    batches = s.calls_of("crypto.seal_many", "crypto.open_many")
    v.update({
        "crypto.busy_s": v["crypto.self_s"],
        "crypto.seal_calls": s.name_calls["crypto.seal"],
        "crypto.open_calls": s.name_calls["crypto.open"],
        "crypto.seal_many_calls": s.name_calls["crypto.seal_many"],
        "crypto.open_many_calls": s.name_calls["crypto.open_many"],
        "crypto.batch_items_mean": per(
            s.name_size["crypto.seal_many"] + s.name_size["crypto.open_many"],
            batches),
        "crypto.hmac_calls": s.name_calls["crypto.hmac_sha256"],
        "crypto.hkdf_calls": s.calls_of(
            "crypto.hkdf_extract", "crypto.hkdf_expand"),
        "crypto.bytes_sealed": s.name_size["crypto.seal"],
        "crypto.bytes_opened": s.name_size["crypto.open"],
        "crypto.calls_per_msg": per(crypto_calls, n_data) if not n_changes
        else 0.0,
        "crypto.calls_per_change": per(crypto_calls, n_changes)
        if not n_data else 0.0,
        "dataplane.send_self_s": s.self_of("DataMember.send_data"),
        "dataplane.recv_self_s": s.self_of("DataMember.handle"),
        "dataplane.rebinds": s.name_calls["DataChannel.rebind"],
    })
    v.update(c)
    missing = {m.name for m in PER_LAYER} ^ set(v)
    if missing:
        raise AssertionError(f"per-layer metric set drifted: {sorted(missing)}")
    return v


def medians(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median over repetitions of every metric all of them report."""
    return {
        name: median(rep[name] for rep in per_rep)
        for name in per_rep[0]
        if all(name in rep for rep in per_rep)
    }
