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

``durability``
    Sweep a crash (fail-stop, torn tail, lost suffix, bit rot) over
    every write of a journaled leader and check the replay.
``report``
    Regenerate the whole reproduction as one markdown report.
``overload``
    The flooding-insider soak: unbounded seed stack against bounded
    mailbox + fair share.

Invoked with no command (or an unknown one), the CLI prints the full
command list and exits nonzero.

This module is the parser and the dispatch only: each command's
arguments and body sit behind a ``register(subparsers)`` beside the
code they drive, in the modules :func:`build_parser` imports.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext


@contextmanager
def _export_jsonl(path: str | None, *, private: bool = False,
                  lead: str = ""):
    """Run a scenario on a bus and export its events as deterministic
    JSONL to ``path``; yields the bus to hand the scenario.

    Which bus: a fresh ``EventBus`` when ``private`` (the soaks, which
    take ``telemetry=``) — made for the export, so with no path there
    is none: yields ``None``, the ``telemetry=`` value that keeps a
    soak's stack uninstrumented.  Otherwise the process-wide
    ``DEFAULT_BUS``, which is what observes the demo/attack scenario
    builders — they construct their stacks with no telemetry plumbing,
    and every component falls back to it — and which ``trace`` reads
    whether or not it exports.

    The bus clock is swapped to a logical
    :class:`~repro.util.clock.TickClock` and the sequence counter reset
    for the duration (a repeat same-seed run in one process must export
    the bytes a fresh process would; a soak on virtual time installs its
    own clock over it), both restored after.  On exit the written file
    is schema-validated and the ``wrote …`` line printed, after ``lead``.
    """
    if private and not path:
        yield None
        return
    from repro.telemetry import (
        DEFAULT_BUS,
        EventBus,
        attach_jsonl,
        validate_jsonl,
    )
    from repro.util.clock import TickClock

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
    """The parser; each subsystem registers its commands beside the
    code they drive.

    A ``register(sub)`` adds its subparsers and hands :func:`main` a
    dispatch table through ``set_defaults(select=..., dispatch=...)``:
    the value of the ``select`` argument (``"mode"``, or ``"command"``
    where there is only one) picks a row ``(runner, export flag,
    private, lead)``.  ``runner(args, bus)`` prints its report and
    returns the exit status — or, when its verdict belongs after the
    export line, a callable that prints it and returns the status;
    ``export flag`` names the argument holding the JSONL path (``None``:
    the command exports nothing); ``private`` and ``lead`` go to
    :func:`_export_jsonl`.
    """
    from repro.attacks import suite
    from repro.chaos import soak as chaos
    from repro.dataplane import soak as data
    from repro.enclaves import tracing
    from repro.fabric import scale as fabric
    from repro.formal import render, verify
    from repro.observability import cli as obs
    from repro.overload import soak as overload
    from repro.quorum import soak as quorum
    from repro.sim import scenarios as sim
    from repro.storage import sweep as storage

    parser = _HelpfulParser(
        prog="repro",
        description="Intrusion-Tolerant Group Management in Enclaves "
                    "(DSN 2001) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for subsystem in (tracing, verify, suite, render, sim, chaos, storage,
                      fabric, quorum, data, obs, overload):
        subsystem.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runner, flag, private, lead = args.dispatch[getattr(args, args.select)]
    export = (
        _export_jsonl(getattr(args, flag), private=private, lead=lead)
        if flag else nullcontext()
    )
    try:
        with export as bus:
            status = runner(args, bus)
        return status() if callable(status) else status
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
