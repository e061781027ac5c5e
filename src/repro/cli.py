"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    Run a scripted group session and print the annotated wire
    transcript (join, chat, rekey, leave).
``verify``
    Run the §5 verification at configurable bounds and print the
    report; exits nonzero on any violation.
``attack-matrix``
    Run every attack against both protocol stacks and print the table;
    exits nonzero if any outcome deviates from the paper.
``render``
    Print (or write) Figures 2, 3, and 4 as Graphviz DOT or ASCII.
``churn``
    Run a churn simulation and print the report.
``chaos``
    Run a seeded chaos soak (or the full recovery matrix) on the
    virtual clock and print the recovery-metrics table; exits nonzero
    on a safety violation or failed convergence of the improved stack.
``trace``
    Run a scenario (demo session, attack matrix, chaos soak) with the
    telemetry layer attached: live event summary, blocked-frame trail,
    optional JSONL export and Prometheus dump.
``fabric``
    Drive the multi-group enclave fabric: a scripted sharded-hosting
    demo, a live migration walkthrough, or the seeded many-group soak
    (churn + chaos + migration + shard crash); exits nonzero on any
    safety, isolation, or convergence failure.
``quorum``
    Drive the Byzantine leader quorum: a scripted certification demo
    (fork, detection, automatic view change), the Byzantine-leader
    attack rows on their own, or the seeded fault × stack soak matrix
    with optional deterministic JSONL export; exits nonzero whenever
    the quorum stack violates an invariant or misses a detection — or
    the single-leader baseline fails to fail.
``data``
    Drive the end-to-end data plane: a scripted tour (ratcheted
    delivery, loss recovery through the skip store and NACK
    retransmit, rekey-on-leave locking a leaver out), the data-plane
    attack rows on their own, or the seeded mixed management+data
    chaos soak with optional deterministic JSONL export; exits
    nonzero on any violated invariant or post-leave decrypt.
``obs``
    The observability toolkit over a seeded quorum-on-fabric scenario:
    ``trace`` reconstructs and renders the causal DAG of a join
    (member → shard demux → leader core → certification → WAL →
    multicast) and fails on orphan events; ``profile`` attributes
    phase time (seal/open/demux/certify/wal/multicast) flamegraph-
    style; ``slo`` evaluates multi-window burn rates over a soak and
    fails on burn; ``flightrec`` runs a seeded equivocation soak with
    the crash flight recorder attached and dumps the forensic bundle.

Invoked with no command (or an unknown one), the CLI prints the full
command list and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro.formal.model import ModelConfig
from repro.formal.render import render_figure2, render_figure3, render_figure4
from repro.formal.verify import verify_protocol


@contextmanager
def _export_jsonl(path: str | None, bus=None, *, private: bool = False,
                  lead: str = ""):
    """Run a scenario on a bus and export its events as deterministic
    JSONL to ``path``; yields the bus to hand the scenario.

    Which bus: the one given; else a fresh ``EventBus`` when ``private``
    (the soaks, which take ``telemetry=``); else the process-wide
    ``DEFAULT_BUS``, which is what observes the demo/attack scenario
    builders — they construct their stacks with no telemetry plumbing,
    and every component falls back to it.  With no bus given and no
    path there is nothing to observe: yields ``None``, which is also
    the ``telemetry=`` value that keeps a soak's stack uninstrumented.

    The bus clock is swapped to a logical
    :class:`~repro.util.clock.TickClock` and the sequence counter reset
    for the duration (a repeat same-seed run in one process must export
    the bytes a fresh process would; a soak on virtual time installs its
    own clock over it), both restored after.  On exit the written file
    is schema-validated and the ``wrote …`` line printed, after ``lead``.
    """
    if bus is None and not path:
        yield None
        return
    from repro.telemetry import (
        DEFAULT_BUS,
        EventBus,
        attach_jsonl,
        validate_jsonl,
    )
    from repro.util.clock import TickClock

    if bus is None:
        bus = EventBus() if private else DEFAULT_BUS
    old_clock, old_seq = bus.clock, bus.seq
    bus.set_clock(TickClock())
    bus.reset_seq()
    exporter = attach_jsonl(bus, path) if path else None
    try:
        yield bus
    finally:
        if exporter is not None:
            bus.unsubscribe(exporter)
            exporter.close()
        bus.set_clock(old_clock)
        bus.reset_seq(old_seq)
    if exporter is not None:
        validate_jsonl(path)
        print(f"{lead}wrote {path} ({exporter.lines_written} events, "
              "schema-valid)")


def _run_demo_session(seed: int):
    """The scripted demo group session (join, chat, rekey, leave).

    Returns ``(net, leader, members, keys)`` so both ``demo`` (which
    prints the annotated transcript) and ``trace`` (which observes the
    telemetry stream) can drive the same scenario.
    """
    from repro.crypto.rng import DeterministicRandom
    from repro.enclaves.common import UserDirectory
    from repro.enclaves.harness import SyncNetwork, wire
    from repro.enclaves.itgm.leader import GroupLeader
    from repro.enclaves.itgm.member import MemberProtocol

    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    directory = UserDirectory()
    leader = GroupLeader("leader", directory, rng=rng.fork("leader"))
    wire(net, "leader", leader)
    members = {}
    keys = []
    for name in ("alice", "bob"):
        creds = directory.register_password(name, f"{name}-pw")
        keys.append(creds.long_term_key)
        member = MemberProtocol(creds, "leader", rng.fork(name))
        members[name] = member
        wire(net, name, member)
        net.post(member.start_join())
        net.run()
    net.post(members["alice"].seal_app(b"hello group"))
    net.run()
    net.post_all(leader.rekey_now())
    net.run()
    net.post(members["bob"].start_leave())
    net.run()

    # Annotate with every key the demo legitimately holds.
    for member in members.values():
        for attr in ("_session_key", "_group_key"):
            key = getattr(member, attr)
            if key is not None:
                keys.append(key)
    return net, leader, members, keys


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.enclaves.tracing import KeyRing, format_transcript

    net, leader, _members, keys = _run_demo_session(args.seed)
    print(format_transcript(net.wire_log, KeyRing(keys),
                            title="demo session transcript"))
    print(f"\nfinal members: {leader.members}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = ModelConfig(
        max_sessions=args.sessions,
        max_admin=args.admin,
        spy_budget=args.spy,
        compromised_member=args.compromised_member,
    )
    report = verify_protocol(config)
    print(report.summary())
    if args.walks:
        from repro.formal.model import EnclavesModel
        from repro.formal.walker import RandomWalker

        walk_config = ModelConfig(
            max_sessions=50, max_admin=100, spy_budget=10,
            compromised_member=args.compromised_member,
        )
        result = RandomWalker(
            EnclavesModel(walk_config), seed=args.seed
        ).run(walks=args.walks, max_steps=200)
        status = "ok" if result.ok else "VIOLATION"
        print(f"random walks: {result.walks} walks, "
              f"{result.steps_taken} steps, {status}")
        if not result.ok:
            print(result.violations[0])
            return 1
    return 0 if report.ok else 1


def _cmd_attack_matrix(args: argparse.Namespace) -> int:
    from repro.attacks import run_attack_matrix
    from repro.attacks.suite import format_matrix

    rows = run_attack_matrix(seed=args.seed)
    print(format_matrix(rows))
    deviations = [row for row in rows if not row.as_expected]
    if deviations:
        print(f"\n{len(deviations)} deviation(s) from the paper!")
        return 1
    print("\nall outcomes match the paper's predictions")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    renderers = {
        "2": render_figure2, "3": render_figure3, "4": render_figure4,
    }
    figures = list(args.figures) if args.figures else ["2", "3", "4"]
    chunks = []
    for figure in figures:
        if figure not in renderers:
            print(f"unknown figure {figure!r} (choose from 2, 3, 4)",
                  file=sys.stderr)
            return 2
        chunks.append(renderers[figure](args.format))
    output = "\n\n".join(chunks)
    if args.out:
        with open(args.out, "w") as f:
            f.write(output + "\n")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from repro.enclaves.common import RekeyPolicy
    from repro.sim.scenarios import ChurnScenario, run_churn
    from repro.telemetry import LiveSummary

    policies = {
        "membership": RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE,
        "on-leave": RekeyPolicy.ON_LEAVE,
        "periodic": RekeyPolicy.PERIODIC,
        "manual": RekeyPolicy.MANUAL,
    }
    with _export_jsonl(args.telemetry, private=True) as bus:
        summary = None if bus is None else bus.subscribe(LiveSummary())
        report = run_churn(
            ChurnScenario(
                n_users=args.users,
                duration=args.duration,
                rekey_policy=policies[args.policy],
                seed=args.seed,
            ),
            telemetry=bus,
        )
        print(report.summary())
        if summary is not None:
            print(summary.render())
    return 0 if report.views_consistent else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import (
        SoakConfig,
        clip_to_duration,
        format_recovery_matrix,
        run_recovery_matrix,
        run_soak,
    )
    from repro.telemetry import LiveSummary

    if args.matrix:
        rows = run_recovery_matrix(seed=args.seed)
        print(format_recovery_matrix(rows))
        bad = [
            row for row in rows
            if row.stack == "itgm" and (not row.converged or row.violations)
        ]
        if bad:
            print(f"\n{len(bad)} improved-stack scenario(s) failed!")
            return 1
        print("\nimproved stack recovered everywhere with zero violations")
        return 0

    config = clip_to_duration(SoakConfig(
        stack=args.stack, seed=args.seed, duration=args.duration,
        n_members=args.members,
    ))
    with _export_jsonl(args.telemetry, private=True) as bus:
        summary = None if bus is None else bus.subscribe(LiveSummary())
        report = run_soak(config, telemetry=bus)
        print(report.format_table())
        if summary is not None:
            print(summary.render())
    if args.stack == "itgm":
        return 0 if report.converged and report.safe else 1
    return 0


def _cmd_durability(args: argparse.Namespace) -> int:
    from repro.storage.sweep import ALL_MODES, SweepConfig, run_crash_sweep

    modes = (
        tuple(args.modes.split(",")) if args.modes else ALL_MODES
    )
    report = run_crash_sweep(SweepConfig(
        seed=args.seed, modes=modes, stride=args.stride,
        fsync_every=args.fsync_every,
    ))
    print(report.format_table())
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a scenario with the telemetry layer attached and report it.

    ``demo`` and ``attack-matrix`` build their protocol stacks with no
    telemetry plumbing — they are observed by subscribing to the
    process-wide :data:`~repro.telemetry.events.DEFAULT_BUS` every
    component falls back to.  ``chaos`` runs on a private bus in
    virtual time instead.
    """
    from repro.telemetry import (
        DEFAULT_BUS,
        EventBus,
        LiveSummary,
        MetricsRegistry,
        events_to_registry,
        render_prometheus,
    )

    records: list = []
    summary = LiveSummary()
    registry = MetricsRegistry()
    observers = (records.append, summary, events_to_registry(registry))

    bus = EventBus() if args.scenario == "chaos" else DEFAULT_BUS
    with _export_jsonl(args.out, bus, lead="\n"):
        for observer in observers:
            bus.subscribe(observer)
        try:
            if args.scenario == "demo":
                _run_demo_session(args.seed)
                status = 0
            elif args.scenario == "attack-matrix":
                from repro.attacks import run_attack_matrix

                rows = run_attack_matrix(seed=args.seed)
                status = 0 if all(row.as_expected for row in rows) else 1
            else:  # chaos
                from repro.chaos import (
                    SoakConfig,
                    clip_to_duration,
                    run_soak,
                )

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


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the whole reproduction as one markdown report."""
    from repro.attacks import run_attack_matrix
    from repro.attacks.suite import format_matrix
    from repro.formal.explorer import Explorer
    from repro.formal.legacy_model import (
        LEGACY_CHECKS,
        LegacyConfig,
        LegacyEnclavesModel,
    )
    from repro.sim.latency import run_latency_study
    from repro.sim.netmodel import FixedDelay

    lines = ["# Reproduction report", ""]
    ok = True

    lines += ["## §5 verification (improved protocol)", "", "```"]
    for config in [
        ModelConfig(max_sessions=1, max_admin=2, spy_budget=1),
        ModelConfig(max_sessions=1, max_admin=1, spy_budget=1,
                    compromised_member=True),
    ]:
        report = verify_protocol(config)
        ok = ok and report.ok
        lines.append(report.summary())
        lines.append("")
    lines += ["```", ""]

    lines += ["## §2.3 attack matrix", "", "```"]
    rows = run_attack_matrix(seed=args.seed)
    ok = ok and all(row.as_expected for row in rows)
    lines += [format_matrix(rows), "```", ""]

    lines += ["## Automatic flaw discovery (legacy symbolic model)", "",
              "```"]
    for name, check in sorted(LEGACY_CHECKS.items()):
        result = Explorer(
            LegacyEnclavesModel(LegacyConfig(max_sessions=2, max_rekeys=2)),
            checks={name: check}, stop_on_first=True,
        ).run()
        found = "FOUND" if not result.ok else "NOT FOUND (unexpected!)"
        ok = ok and not result.ok
        lines.append(
            f"{name:<24} counterexample {found} "
            f"after {result.states_explored} states"
        )
    lines += ["```", ""]

    lines += ["## Latency structure (fixed 10 ms one-way delay)", "", "```"]
    study = run_latency_study(n_members=3, delay_model=FixedDelay(0.01),
                              n_admin_rounds=2)
    lines.append(f"join -> connected : {study.join_to_connected.mean*1000:.1f} ms"
                 "  (2 hops expected: 20.0 ms)")
    lines.append(f"join -> group key : {study.join_to_group_key.mean*1000:.1f} ms"
                 "  (4 hops expected: 40.0 ms)")
    lines.append(f"admin delivery    : {study.admin_round_trip.mean*1000:.1f} ms"
                 "  (1 hop expected: 10.0 ms)")
    lines += ["```", ""]

    lines += ["## Figures", "", "```",
              render_figure4("ascii"), "```", ""]
    verdict = "ALL ARTIFACTS REPRODUCED" if ok else "DEVIATIONS FOUND"
    lines += [f"**{verdict}**", ""]

    output = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as f:
            f.write(output)
        print(f"wrote {args.out} ({verdict})")
    else:
        print(output)
    return 0 if ok else 1


def _cmd_fabric(args: argparse.Namespace) -> int:
    if args.mode == "migrate":
        from repro.fabric import run_migration_demo

        with _export_jsonl(args.telemetry):
            demo = run_migration_demo(args.seed)
            print(demo.format_report())
        return 0 if demo.ok else 1
    if args.mode == "demo":
        with _export_jsonl(args.telemetry):
            status = _fabric_demo(args.seed)
        return status

    from repro.fabric import FabricConfig, run_fabric_soak

    with _export_jsonl(args.telemetry, private=True) as bus:
        report = run_fabric_soak(
            FabricConfig.full(
                seed=args.seed,
                n_groups=args.groups,
                n_shards=args.shards,
                duration=args.duration,
            ),
            telemetry=bus,
        )
        print(report.format_table())
    return 0 if (
        report.safe and report.isolated and report.converged
    ) else 1


def _fabric_demo(seed: int) -> int:
    """Scripted sharded-hosting tour: placement, demux, isolation."""
    from repro.crypto.rng import DeterministicRandom
    from repro.enclaves.common import AppMessage, UserDirectory
    from repro.enclaves.harness import SyncNetwork, wire
    from repro.fabric import FabricMember, GroupDirectory, ShardHost
    from repro.storage.simdisk import SimDisk
    from repro.wire.message import Envelope, wrap_group

    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    users = UserDirectory()
    shard_ids = ["shard-a", "shard-b"]
    fabric = GroupDirectory(shard_ids, rng=rng.fork("directory"))
    shards = {
        shard_id: ShardHost(
            shard_id, SimDisk(rng=rng.fork(f"disk-{shard_id}")),
            rng=rng.fork(shard_id),
        )
        for shard_id in shard_ids
    }
    for shard_id, host in shards.items():
        wire(net, shard_id, host)

    print(f"fabric demo — {len(shard_ids)} shards, seed={seed}")
    members: dict[str, FabricMember] = {}
    for g in range(3):
        group_id = f"grp-{g}"
        record = fabric.create_group(group_id)
        shards[record.shard_id].host_group(
            group_id, users, storage_key=record.storage_key
        )
        for m in range(2):
            uid = f"{group_id}.u{m}"
            creds = users.register_password(uid, f"pw-{uid}")
            fm = FabricMember(creds, group_id, fabric, rng=rng.fork(uid))
            members[uid] = fm
            wire(net, uid, fm)
            net.post_all(fm.start_join())
            net.run()
        print(f"  {group_id:<8} placed on {record.shard_id} "
              f"(directory v{record.version}), members joined: "
              f"{shards[record.shard_id].leader(group_id).members}")

    for group_id in ("grp-0", "grp-1", "grp-2"):
        net.post(members[f"{group_id}.u0"].seal_app(
            f"hello {group_id}".encode()
        ))
        net.run()

    # Cross-post grp-0's sealed frame into grp-1's key space, plus a
    # frame scoped to a group nobody hosts: both die loudly.
    legit = members["grp-0.u0"].protocol.seal_app(b"LEAK")
    victim = fabric.record("grp-1")
    forged = Envelope(legit.label, legit.sender, "grp-1", legit.body)
    net.post(wrap_group("grp-1", forged, victim.shard_id))
    net.post(wrap_group("grp-phantom", legit, victim.shard_id))
    net.run()

    delivered = sum(
        len(net.events_of(uid, AppMessage)) for uid in members
    )
    print(f"  app deliveries     : {delivered} "
          "(one echo-free relay per fellow member)")
    for shard_id, host in sorted(shards.items()):
        s = host.stats
        print(f"  {shard_id:<8} demux     : {s.frames_in} in, "
              f"{s.delivered} delivered, {s.foreign_rejected} foreign "
              f"rejected, {s.malformed} malformed")
    foreign = sum(h.stats.foreign_rejected for h in shards.values())
    leaked = sum(
        1 for uid, fm in members.items()
        for e in net.events_of(uid, AppMessage)
        if b"LEAK" in e.payload
    )
    print(f"  isolation          : cross-post leaked to {leaked} members; "
          f"{foreign} phantom-group frame(s) rejected by the demux")
    return 0 if leaked == 0 and foreign >= 1 else 1


def _cmd_quorum(args: argparse.Namespace) -> int:
    if args.mode == "demo":
        with _export_jsonl(args.telemetry):
            status = _quorum_demo(args.seed)
        return status
    if args.mode == "attack":
        with _export_jsonl(args.telemetry):
            status = _quorum_attack(args.seed)
        return status

    # soak: the full Byzantine fault × stack comparison grid.
    from repro.quorum import (
        format_byzantine_matrix,
        run_byzantine_matrix,
        soak_as_expected,
    )

    faults = tuple(args.faults.split(",")) if args.faults else None
    with _export_jsonl(args.out, private=True, lead="\n") as bus:
        reports = run_byzantine_matrix(
            seed=args.seed, faults=faults, telemetry=bus
        )
        print(format_byzantine_matrix(reports))
    bad = [r for r in reports if not soak_as_expected(r)]
    if bad:
        print(f"\n{len(bad)} cell(s) deviated from the quorum claim!")
        for r in bad:
            for violation in r.violations[:3]:
                print(f"  {r.fault}/{r.stack}: {violation}")
        return 1
    print("\nquorum stack: zero violations, every fault detected; "
          "single leader: broken under every fault")
    return 0


def _quorum_demo(seed: int) -> int:
    """Scripted tour: certified mutations, a fork, detection, healing."""
    from repro.quorum import run_quorum_soak
    from repro.quorum.byzantine import build_quorum_scenario

    scenario = build_quorum_scenario(["alice", "bob", "carol"], seed=seed)
    qs = scenario.qs
    print(f"quorum demo — n={qs.config.n} replicas (f={qs.config.f}), "
          f"certificates need {qs.config.threshold} attestations, "
          f"seed={seed}")
    print(f"  replica set        : primary {qs.primary_id}, "
          f"witnesses {sorted(qs.witnesses)}")
    print(f"  members joined     : {qs.leader.members} "
          f"(every join certified)")
    scenario.net.post_all(qs.leader.rekey_now())
    scenario.net.run()
    alice = scenario.members["alice"]
    certificate = alice.accepted_certificates[-1]
    print(f"  certified rekey    : epoch {alice.group_epoch}, "
          f"signed by {sorted(certificate.signers)}")

    report = run_quorum_soak("equivocation", stack="quorum", seed=seed)
    print(f"  equivocation drill : detected={report.detected} — "
          f"{report.detail}")
    print(f"  view change        : {report.view_changes} "
          f"(healed at epoch {report.final_epoch}, "
          f"{len(report.violations)} invariant violations)")
    ok = report.safe and report.detected and report.converged
    print("  verdict            : "
          + ("OK — fork detected, attributed, healed" if ok else "FAILED"))
    return 0 if ok else 1


def _quorum_attack(seed: int) -> int:
    """The Byzantine-leader rows of the attack matrix, on their own."""
    from repro.attacks import (
        QuorumEquivocationAttack,
        QuorumForgeryAttack,
        run_attack_matrix,
    )
    from repro.attacks.suite import format_matrix

    rows = run_attack_matrix(
        seed, attacks=[QuorumForgeryAttack, QuorumEquivocationAttack]
    )
    print("Byzantine-leader attacks — 'legacy' is the single-trusted-"
          "leader deployment,\n'improved' the quorum-hardened stack:\n")
    print(format_matrix(rows))
    for row in rows:
        print(f"\n{row.attack}: {row.itgm.detail}")
    if all(row.as_expected for row in rows):
        print("\nboth attacks break the single leader and die on the quorum")
        return 0
    print("\ndeviation from the quorum claim!")
    return 1


def _cmd_data(args: argparse.Namespace) -> int:
    if args.mode == "demo":
        with _export_jsonl(args.telemetry):
            status = _data_demo(args.seed)
        return status
    if args.mode == "attack":
        with _export_jsonl(args.telemetry):
            status = _data_attack(args.seed)
        return status

    # soak: the seeded mixed management+data chaos run.  The soak's
    # stacks emit to the process-wide default bus, so the JSONL export
    # wraps the run the same way demo/attack do.
    from repro.dataplane.soak import DataSoakConfig, run_data_soak

    with _export_jsonl(args.out):
        report = run_data_soak(DataSoakConfig(
            seed=args.seed, n_members=args.members, rounds=args.rounds,
        ))
        print(report.format_table())
    return 0 if report.safe else 1


def _data_demo(seed: int) -> int:
    """Scripted tour: ratcheted delivery, loss recovery, rekey-on-leave."""
    from repro.attacks.base import build_data
    from repro.exceptions import EpochMismatchError, RatchetError
    from repro.exceptions import IntegrityError as _IntegrityError
    from repro.wire.labels import Label

    scenario = build_data(["alice", "bob", "carol"], seed=seed)
    net = scenario.net
    alice = scenario.members["alice"]
    bob = scenario.members["bob"]
    carol = scenario.members["carol"]
    print(f"data-plane demo — 3 members, seed={seed}")
    print(f"  group joined       : {scenario.leader.members} "
          f"(epoch {alice.member.group_epoch})")

    net.post_all(alice.send_data(b"dataplane hello"))
    net.run()
    print(f"  first payload      : delivered to bob+carol at chain "
          f"seq {bob.inbox[-1][1]} (per-sender ratchet, one key per frame)")

    # Lose bob's copy of the next frame; the one after arrives out of
    # order, bob banks the skipped key, NACKs the gap, and alice's
    # cached envelope fills it — end-to-end, without leader help.
    dropped: list = []

    def drop_once(envelope):
        if (envelope.label is Label.DATA_MSG
                and envelope.recipient == "bob" and not dropped):
            dropped.append(envelope)
            return []
        return None

    net.set_interceptor(drop_once)
    net.post_all(alice.send_data(b"lost on the wire"))
    net.run()
    net.set_interceptor(None)
    net.post_all(alice.send_data(b"arrives first"))
    net.run()
    stats = bob.channel.skip_stats()
    pre_leave_inbox = list(bob.inbox)
    recovered = [p for (_s, _q, p) in pre_leave_inbox]
    print(f"  loss recovery      : bob banked {stats['skips_banked']} "
          f"skipped key(s), NACK retransmit filled the gap "
          f"(skip hits: {stats['skip_hits']})")
    print(f"  bob's inbox        : {len(recovered)} payloads, "
          f"duplicates suppressed: "
          f"{bob.receiver.duplicates_suppressed}")

    # Carol leaves; rekey-on-leave bumps the epoch; her captured
    # channel opens nothing sealed afterwards.
    captured = carol.channel
    pre_epoch = alice.member.group_epoch
    net.post(carol.member.start_leave())
    net.run()
    mark = len(net.wire_log)
    net.post_all(alice.send_data(b"post-leave secret"))
    net.run()
    print(f"  rekey-on-leave     : carol left, epoch "
          f"{pre_epoch} -> {alice.member.group_epoch}, every chain "
          "re-seeded")
    leaked = 0
    rejections = 0
    for frame in net.wire_log[mark:]:
        if frame.label is not Label.DATA_MSG:
            continue
        try:
            captured.open(frame)
            leaked += 1
        except (RatchetError, _IntegrityError, EpochMismatchError):
            rejections += 1
    print(f"  leaver's channel   : {leaked} post-leave decrypts, "
          f"{rejections} typed rejections")
    # Arrival order interleaves the retransmit; chain order (by seq)
    # must reconstruct alice's send order exactly.
    by_seq = [p for (_s, _q, p)
              in sorted(pre_leave_inbox, key=lambda t: t[1])]
    ok = (
        len(recovered) == 3
        and by_seq == [b"dataplane hello", b"lost on the wire",
                       b"arrives first"]
        and stats["skip_hits"] >= 1
        and leaked == 0
        and rejections >= 1
    )
    print("  verdict            : "
          + ("OK — delivered in order, loss recovered, leaver locked out"
             if ok else "FAILED"))
    return 0 if ok else 1


def _data_attack(seed: int) -> int:
    """The data-plane rows of the attack matrix, on their own."""
    from repro.attacks import (
        DataReplayAttack,
        PastMemberDataAttack,
        run_attack_matrix,
    )
    from repro.attacks.suite import format_matrix

    rows = run_attack_matrix(
        seed, attacks=[PastMemberDataAttack, DataReplayAttack]
    )
    print("data-plane attacks — 'legacy' is the group-key-only data "
          "channel,\n'improved' the ratcheted channel with "
          "rekey-on-leave:\n")
    print(format_matrix(rows))
    for row in rows:
        print(f"\n{row.attack}: {row.itgm.detail}")
    if all(row.as_expected for row in rows):
        print("\nboth attacks read the baseline and die on the ratchet")
        return 0
    print("\ndeviation from the data-plane claim!")
    return 1


def _obs_scenario(seed: int, bus, profiler=None):
    """One seeded quorum-on-fabric group: the obs commands' workload.

    A replica set hosted behind a shard demux, certificate-verifying
    members routed by the directory — so one join's causal chain spans
    every layer: member handshake → GROUP_WRAP demux → leader core →
    quorum certification → WAL → admin multicast.  Frames for the shard
    go through its bounded intake (``enqueue``, then ``pump`` once the
    members have spoken), the way production takes them.  Returns
    ``(net, shard, qs, members)`` after joins, one sealed app message,
    and one leader-initiated certified rekey.
    """
    from repro.crypto.rng import DeterministicRandom
    from repro.enclaves.common import UserDirectory
    from repro.enclaves.harness import SyncNetwork, wire
    from repro.fabric import GroupDirectory, ShardHost
    from repro.overload.mailbox import BoundedMailbox
    from repro.quorum.fabric import host_quorum_group, quorum_fabric_member
    from repro.storage.simdisk import SimDisk

    group_id = "grp-obs"
    rng = DeterministicRandom(seed)
    users = UserDirectory()
    net = SyncNetwork(telemetry=bus)
    fabric = GroupDirectory(
        ["shard-a"], rng=rng.fork("directory"), telemetry=bus
    )
    shard = ShardHost(
        "shard-a", SimDisk(rng=rng.fork("disk")),
        rng=rng.fork("shard"), telemetry=bus,
        mailbox=BoundedMailbox("shard-a", telemetry=bus),
    )

    def intake(envelope):
        shard.enqueue(envelope)
        return [], []

    def settle():
        net.run()
        while len(shard.mailbox):
            net.post_all(shard.pump(64)[0])
            net.run()

    net.register("shard-a", intake)
    fabric.create_group(group_id)
    qs = host_quorum_group(
        shard, users, group_id, rng=rng.fork("quorum"), telemetry=bus
    )
    if profiler is not None:
        shard.bind_profiler(profiler)
        qs.leader.bind_profiler(profiler)
        qs.journal.bind_profiler(profiler)

    members = {}
    for name in ("alice", "bob", "carol"):
        creds = users.register_password(name, f"pw-{name}")
        fm = quorum_fabric_member(
            creds, group_id, fabric, qs, rng=rng.fork(name), telemetry=bus
        )
        members[name] = fm
        wire(net, name, fm)
        if profiler is not None:
            fm.protocol.bind_profiler(profiler)
        net.post_all(fm.start_join())
        settle()
    net.post(members["alice"].seal_app(b"hello observable group"))
    settle()
    net.post_all(qs.leader.rekey_now())
    settle()
    return net, shard, qs, members


def _obs_trace(args: argparse.Namespace) -> int:
    from repro.observability import TraceBuilder
    from repro.telemetry import EventBus

    bus = EventBus()
    builder = bus.subscribe(TraceBuilder())
    with _export_jsonl(args.out, bus):
        _obs_scenario(args.seed, bus)
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
    orphans = graph.orphans()
    if orphans:
        print(f"\n{len(orphans)} orphan event(s) — causal model has holes:")
        for node in orphans:
            print(f"  {node.describe()}")
        return 1
    print("no orphan events: every event anchors to an operation root")
    return 0


#: Leaf phase names the profiled workload must exercise.
_EXPECTED_PHASES = ("seal", "open", "demux", "certify",
                    "wal.append", "multicast")


def _obs_profile(args: argparse.Namespace) -> int:
    import json as _json

    from repro.observability import PhaseProfiler
    from repro.telemetry import EventBus
    from repro.util.clock import TickClock

    # The profiler gets its own tick clock: sharing the bus clock
    # would make profiling perturb event timestamps.
    bus = EventBus(TickClock())
    bus.subscribe(lambda record: None)  # keep emission paths live
    profiler = PhaseProfiler(TickClock())
    _obs_scenario(args.seed, bus, profiler=profiler)

    print(f"phase profile — seed={args.seed} (logical ticks)")
    print()
    print(profiler.render())
    if args.out:
        with open(args.out, "w") as f:
            f.write(_json.dumps(profiler.as_dict(), sort_keys=True,
                                indent=2) + "\n")
        print(f"\nwrote {args.out}")
    leaves = {path.split("/")[-1] for path in profiler.phases()}
    missing = [name for name in _EXPECTED_PHASES if name not in leaves]
    if missing:
        print(f"\nmissing expected phase(s): {', '.join(missing)}")
        return 1
    return 0


def _obs_slo(args: argparse.Namespace) -> int:
    import json as _json

    from repro.observability import SLOEvaluator
    from repro.telemetry import EventBus
    from repro.util.clock import TickClock

    evaluator = SLOEvaluator()
    if args.scenario == "chaos":
        from repro.chaos import SoakConfig, clip_to_duration, run_soak

        bus = EventBus()
        bus.subscribe(evaluator)
        run_soak(
            clip_to_duration(SoakConfig(
                seed=args.seed, duration=args.duration,
            )),
            telemetry=bus,
        )
    else:  # equivocation
        from repro.quorum import run_quorum_soak

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
            f.write(_json.dumps(
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


def _obs_flightrec(args: argparse.Namespace) -> int:
    from repro.observability import (
        FlightRecorder,
        render_bundle,
        write_bundle,
    )
    from repro.quorum import run_quorum_soak
    from repro.telemetry import EventBus
    from repro.util.clock import TickClock

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


def _cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "trace": _obs_trace,
        "profile": _obs_profile,
        "slo": _obs_slo,
        "flightrec": _obs_flightrec,
    }
    return handlers[args.mode](args)


def _cmd_overload(args: argparse.Namespace) -> int:
    # mode is "soak" (the only one today; the positional keeps the
    # door open for an "attack" tour like chaos/quorum have).
    from repro.overload.soak import (
        OverloadConfig,
        render_report,
        run_overload_soak,
    )

    config = OverloadConfig(
        seed=args.seed,
        duration=args.duration,
        surge_members=args.surge,
        flood_rate=args.flood_rate,
    )
    with _export_jsonl(args.out, private=True, lead="\n") as bus:
        report = run_overload_soak(config, telemetry=bus)
        print(render_report(report))
    return 0 if report.protection_holds else 1


class _HelpfulParser(argparse.ArgumentParser):
    """A parser whose errors name every command, not just the usage.

    ``python -m repro`` with no (or an unknown) command is how people
    discover the toolkit; answer with the full command list on stderr
    and the standard nonzero argparse exit.
    """

    def error(self, message: str):  # noqa: ANN201 - argparse signature
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sub = next(
            (a for a in self._actions
             if isinstance(a, argparse._SubParsersAction)),
            None,
        )
        if sub is not None:
            sys.stderr.write("\ncommands:\n")
            for pseudo in sub._choices_actions:
                sys.stderr.write(f"  {pseudo.dest:<14} {pseudo.help}\n")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _HelpfulParser(
        prog="repro",
        description="Intrusion-Tolerant Group Management in Enclaves "
                    "(DSN 2001) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="scripted session with transcript")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    verify = sub.add_parser("verify", help="run the §5 verification")
    verify.add_argument("--sessions", type=int, default=1)
    verify.add_argument("--admin", type=int, default=2)
    verify.add_argument("--spy", type=int, default=1)
    verify.add_argument("--compromised-member", action="store_true")
    verify.add_argument("--walks", type=int, default=0,
                        help="additionally run N deep random walks")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    matrix = sub.add_parser("attack-matrix", help="run the §2.3 attacks")
    matrix.add_argument("--seed", type=int, default=0)
    matrix.set_defaults(func=_cmd_attack_matrix)

    render = sub.add_parser("render", help="emit Figures 2/3/4")
    render.add_argument("figures", nargs="*", help="figure numbers (2 3 4)")
    render.add_argument("--format", choices=("dot", "ascii"),
                        default="ascii")
    render.add_argument("--out", help="write to a file instead of stdout")
    render.set_defaults(func=_cmd_render)

    churn = sub.add_parser("churn", help="run a churn simulation")
    churn.add_argument("--users", type=int, default=8)
    churn.add_argument("--duration", type=float, default=60.0)
    churn.add_argument("--policy", default="membership",
                       choices=("membership", "on-leave", "periodic",
                                "manual"))
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--telemetry", metavar="PATH",
                       help="export the telemetry event stream as JSONL")
    churn.set_defaults(func=_cmd_churn)

    chaos = sub.add_parser(
        "chaos", help="run a chaos soak / the recovery matrix"
    )
    chaos.add_argument("--stack", choices=("itgm", "legacy"),
                       default="itgm")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--duration", type=float, default=60.0)
    chaos.add_argument("--members", type=int, default=5)
    chaos.add_argument("--matrix", action="store_true",
                       help="run the full recovery matrix instead")
    chaos.add_argument("--telemetry", metavar="PATH",
                       help="export the telemetry event stream as JSONL "
                            "(ignored with --matrix)")
    chaos.set_defaults(func=_cmd_chaos)

    durability = sub.add_parser(
        "durability",
        help="run the crash-point sweep over the leader journal",
    )
    durability.add_argument("--seed", type=int, default=7)
    durability.add_argument("--stride", type=int, default=1,
                            help="sweep every Nth write index "
                                 "(1 = exhaustive)")
    durability.add_argument("--modes", metavar="M1,M2",
                            help="comma-separated subset of "
                                 "failstop,torn,lost,bitrot")
    durability.add_argument("--fsync-every", type=int, default=1,
                            dest="fsync_every",
                            help="journal records per fsync")
    durability.set_defaults(func=_cmd_durability)

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
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser(
        "report", help="regenerate the whole reproduction as one report"
    )
    report.add_argument("--out", help="write markdown to a file")
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(func=_cmd_report)

    fabric = sub.add_parser(
        "fabric",
        help="drive the multi-group fabric (demo / soak / migrate)",
    )
    fabric.add_argument("mode", choices=("demo", "soak", "migrate"),
                        help="scripted shard demo, seeded many-group "
                             "soak, or live-migration walkthrough")
    fabric.add_argument("--seed", type=int, default=7)
    fabric.add_argument("--groups", type=int, default=16,
                        help="groups in the soak")
    fabric.add_argument("--shards", type=int, default=4,
                        help="shard hosts in the soak")
    fabric.add_argument("--duration", type=float, default=40.0,
                        help="virtual seconds of soak workload")
    fabric.add_argument("--telemetry", metavar="PATH",
                        help="export the run's event stream as JSONL "
                             "(schema-validated before exit)")
    fabric.set_defaults(func=_cmd_fabric)

    quorum = sub.add_parser(
        "quorum",
        help="drive the Byzantine leader quorum (demo / attack / soak)",
    )
    quorum.add_argument("mode", choices=("demo", "attack", "soak"),
                        help="scripted certification-and-healing demo, "
                             "Byzantine-leader attack rows, or the "
                             "fault × stack soak matrix")
    quorum.add_argument("--seed", type=int, default=7)
    quorum.add_argument("--faults", metavar="F1,F2",
                        help="comma-separated subset of equivocation,"
                             "silence,withholding,corruption "
                             "(soak mode only)")
    quorum.add_argument("--out", metavar="PATH",
                        help="export the soak's event stream as "
                             "deterministic JSONL (soak mode only)")
    quorum.add_argument("--telemetry", metavar="PATH",
                        help="export the demo/attack event stream as "
                             "deterministic JSONL (demo/attack modes)")
    quorum.set_defaults(func=_cmd_quorum)

    data = sub.add_parser(
        "data",
        help="drive the end-to-end data plane (demo / attack / soak)",
    )
    data.add_argument("mode", choices=("demo", "attack", "soak"),
                      help="scripted ratchet-and-recovery tour, "
                           "data-plane attack rows, or the seeded mixed "
                           "management+data chaos soak")
    data.add_argument("--seed", type=int, default=7)
    data.add_argument("--members", type=int, default=4,
                      help="members in the soak")
    data.add_argument("--rounds", type=int, default=40,
                      help="faulted rounds in the soak (a fault-free "
                           "drain tail follows)")
    data.add_argument("--telemetry", metavar="PATH",
                      help="export the demo/attack event stream as "
                           "deterministic JSONL (demo/attack modes)")
    data.add_argument("--out", metavar="PATH",
                      help="export the soak's event stream as "
                           "deterministic JSONL (soak mode only)")
    data.set_defaults(func=_cmd_data)

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
    obs.set_defaults(func=_cmd_obs)

    overload = sub.add_parser(
        "overload",
        help="flooding-insider soak: unprotected vs admission-controlled",
    )
    overload.add_argument("mode", choices=("soak",),
                          help="seeded overload chaos soak comparing the "
                               "unbounded seed stack against the bounded "
                               "mailbox + fair share + brownout stack")
    overload.add_argument("--seed", type=int, default=7)
    overload.add_argument("--duration", type=float, default=20.0,
                          help="virtual seconds of soak")
    overload.add_argument("--surge", type=int, default=10,
                          help="members in the mid-soak join surge")
    overload.add_argument("--flood-rate", type=float, default=240.0,
                          help="flooder frames per virtual second")
    overload.add_argument("--out", metavar="PATH",
                          help="export the soak's event stream as "
                               "deterministic JSONL")
    overload.set_defaults(func=_cmd_overload)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): exit quietly.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)


if __name__ == "__main__":
    raise SystemExit(main())
