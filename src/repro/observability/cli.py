"""``repro trace`` and ``repro obs``: a scenario with the telemetry
layer attached; causal traces, phase profiles, SLO burn and the flight
recorder over seeded runs."""

from __future__ import annotations

import argparse
import json
import sys

from repro.attacks.suite import run_attack_matrix
from repro.chaos.soak import SoakConfig, clip_to_duration, run_soak
from repro.enclaves.tracing import run_demo_session
from repro.observability.flightrec import (
    FlightRecorder,
    render_bundle,
    write_bundle,
)
from repro.observability.profile import PhaseProfiler
from repro.observability.slo import SLOEvaluator
from repro.observability.trace import TraceBuilder
from repro.quorum.fabric import obs_scenario
from repro.quorum.soak import run_quorum_soak
from repro.telemetry.events import EventBus
from repro.telemetry.export import (
    LiveSummary,
    events_to_registry,
    render_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.util.clock import TickClock


def _cmd_trace(args: argparse.Namespace, bus) -> int:
    """Run a scenario with the telemetry layer attached and report it.

    ``demo`` and ``attack-matrix`` build their protocol stacks with no
    telemetry plumbing — they are observed by subscribing to the
    process-wide :data:`~repro.telemetry.events.DEFAULT_BUS` every
    component falls back to.  ``chaos`` runs on a private bus in
    virtual time instead.
    """
    records: list = []
    summary = LiveSummary()
    registry = MetricsRegistry()
    observers = (records.append, summary, events_to_registry(registry))

    if bus is None:  # chaos with nothing exported: still observed
        bus = EventBus()
    for observer in observers:
        bus.subscribe(observer)
    try:
        if args.scenario == "demo":
            run_demo_session(args.seed)
            status = 0
        elif args.scenario == "attack-matrix":
            rows = run_attack_matrix(seed=args.seed)
            status = 0 if all(row.as_expected for row in rows) else 1
        else:  # chaos
            report = run_soak(
                clip_to_duration(SoakConfig(
                    seed=args.seed, duration=args.duration,
                )),
                telemetry=bus,
            )
            status = 0 if report.converged and report.safe else 1
    finally:
        for observer in observers:
            bus.unsubscribe(observer)

    print(summary.render())
    blocked = [
        r for r in records
        if type(r.event).__name__ in ("ReplayRejected",
                                      "IntegrityRejected")
    ]
    if blocked:
        print("\nblocked frames:")
        for record in blocked:
            event = record.event
            print(
                f"  seq={record.seq:<5} {type(event).__name__:<18} "
                f"node={event.node:<10} label={event.label:<16} "
                f"frame={event.frame}  {event.reason}"
            )
    if args.prometheus:
        print()
        print(render_prometheus(registry), end="")
    return status


def _cmd_obs_trace(args: argparse.Namespace, bus):
    if bus is None:  # nothing exported: the trace is still built
        bus = EventBus(TickClock())
    builder = bus.subscribe(TraceBuilder())
    obs_scenario(args.seed, bus)
    graph = builder.build()
    root = graph.find("JoinStarted", node="alice")
    if root is None:
        print("no JoinStarted event observed!", file=sys.stderr)
        return 1
    print(f"causal trace — {len(graph)} events, seed={args.seed}")
    print()
    print(graph.render(root.seq))
    spanned = {graph.nodes[s].name for s in graph.descendants(root.seq)}
    print()
    print(f"join operation spans {len(graph.descendants(root.seq))} "
          "events: " + ", ".join(sorted(spanned)))

    def verdict() -> int:
        orphans = graph.orphans()
        if orphans:
            print(f"\n{len(orphans)} orphan event(s) — causal model has "
                  "holes:")
            for node in orphans:
                print(f"  {node.describe()}")
            return 1
        print("no orphan events: every event anchors to an operation root")
        return 0

    return verdict


#: Leaf phase names the profiled workload must exercise.
_EXPECTED_PHASES = ("seal", "open", "demux", "certify",
                    "wal.append", "multicast")


def _cmd_obs_profile(args: argparse.Namespace, _bus) -> int:
    # The profiler gets its own tick clock: sharing the bus clock
    # would make profiling perturb event timestamps.
    bus = EventBus(TickClock())
    bus.subscribe(lambda record: None)  # keep emission paths live
    profiler = PhaseProfiler(TickClock())
    obs_scenario(args.seed, bus, profiler=profiler)

    print(f"phase profile — seed={args.seed} (logical ticks)")
    print()
    print(profiler.render())
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps(profiler.as_dict(), sort_keys=True,
                               indent=2) + "\n")
        print(f"\nwrote {args.out}")
    leaves = {path.split("/")[-1] for path in profiler.phases()}
    missing = [name for name in _EXPECTED_PHASES if name not in leaves]
    if missing:
        print(f"\nmissing expected phase(s): {', '.join(missing)}")
        return 1
    return 0


def _cmd_obs_slo(args: argparse.Namespace, _bus) -> int:
    evaluator = SLOEvaluator()
    if args.scenario == "chaos":
        bus = EventBus()
        bus.subscribe(evaluator)
        run_soak(
            clip_to_duration(SoakConfig(
                seed=args.seed, duration=args.duration,
            )),
            telemetry=bus,
        )
    else:  # equivocation
        bus = EventBus(TickClock())
        bus.subscribe(evaluator)
        run_quorum_soak(
            "equivocation", stack="quorum", seed=args.seed, telemetry=bus,
        )

    print(f"SLO evaluation — scenario={args.scenario}, seed={args.seed}")
    print()
    print(evaluator.render())
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps(
                [r.as_dict() for r in evaluator.report()],
                sort_keys=True, indent=2,
            ) + "\n")
        print(f"\nwrote {args.out}")
    burning = evaluator.burning()
    if burning:
        print(f"\n{len(burning)} SLO(s) burning: "
              + ", ".join(r.spec.name for r in burning))
        return 1
    print("\nall SLOs within budget")
    return 0


def _cmd_obs_flightrec(args: argparse.Namespace, _bus) -> int:
    bus = EventBus(TickClock())
    recorder = FlightRecorder()
    bus.subscribe(recorder)
    report = run_quorum_soak(
        "equivocation", stack="quorum", seed=args.seed, telemetry=bus,
    )
    print(f"flight recorder — seeded equivocation soak, seed={args.seed}")
    print(f"  soak: detected={report.detected}, "
          f"view changes={report.view_changes}")
    if not recorder.bundles:
        print("  no terminal event observed — nothing recorded!")
        return 1
    bundle = recorder.bundles[0]
    print(f"  {len(recorder.bundles)} bundle(s) captured")
    print()
    print(render_bundle(bundle))
    if args.out:
        write_bundle(bundle, args.out)
        print(f"\nwrote {args.out} "
              f"({len(bundle['ring'])} ring events, "
              f"{len(bundle['trace'])} trace events)")
    return 0


def register(sub) -> None:
    trace = sub.add_parser(
        "trace", help="run a scenario with live telemetry attached"
    )
    trace.add_argument("--scenario",
                       choices=("demo", "attack-matrix", "chaos"),
                       default="demo")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--duration", type=float, default=30.0,
                       help="virtual seconds (chaos scenario only)")
    trace.add_argument("--out", metavar="PATH",
                       help="also export the events as JSONL")
    trace.add_argument("--prometheus", action="store_true",
                       help="dump event tallies in Prometheus text format")
    trace.set_defaults(select="scenario", dispatch={
        "demo": (_cmd_trace, "out", False, "\n"),
        "attack-matrix": (_cmd_trace, "out", False, "\n"),
        "chaos": (_cmd_trace, "out", True, "\n"),
    })

    obs = sub.add_parser(
        "obs",
        help="causal traces / phase profiles / SLO burn / flight recorder",
    )
    obs.add_argument("mode",
                     choices=("trace", "profile", "slo", "flightrec"),
                     help="reconstruct a causal join trace, attribute "
                          "phase time, evaluate SLO burn rates, or dump "
                          "a flight-recorder bundle from a seeded "
                          "equivocation incident")
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--scenario", choices=("chaos", "equivocation"),
                     default="chaos",
                     help="workload for slo mode (chaos soak stays "
                          "within budget; equivocation burns)")
    obs.add_argument("--duration", type=float, default=60.0,
                     help="virtual seconds of soak (slo chaos scenario)")
    obs.add_argument("--out", metavar="PATH",
                     help="write the mode's artifact (trace: JSONL "
                          "events; profile/slo: JSON; flightrec: the "
                          "JSONL bundle)")
    obs.set_defaults(select="mode", dispatch={
        "trace": (_cmd_obs_trace, "out", True, ""),
        "profile": (_cmd_obs_profile, None, False, ""),
        "slo": (_cmd_obs_slo, None, False, ""),
        "flightrec": (_cmd_obs_flightrec, None, False, ""),
    })
