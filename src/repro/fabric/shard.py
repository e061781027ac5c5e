"""One shard host: many group leaders behind a single endpoint.

A :class:`ShardHost` demultiplexes ``GROUP_WRAP`` frames by the group id
carried in the wrapper and hands the inner envelope to the hosted
:class:`~repro.enclaves.itgm.leader.GroupLeader` for that group.  Each
hosted group gets its *own* write-ahead journal (its own file, its own
storage key) via the unchanged :mod:`repro.storage.journal` API — groups
stay independent failure and recovery domains even when co-hosted.

The demux layer enforces the fabric's isolation stance:

* A frame scoped to a group this shard does not host is **rejected
  loudly** (:class:`~repro.telemetry.events.ForeignGroupRejected` plus a
  :class:`~repro.enclaves.common.Rejected` event) — never silently
  dropped, never guessed into another group.
* A frame scoped to a group that *moved away* is answered with a
  ``GROUP_REDIRECT`` naming the group, so a member routing on a stale
  directory version learns to re-consult the directory instead of
  mistaking the silence for a dead leader.
* The group id in the wrapper is routing metadata, not authentication:
  a cross-posted frame rewrapped under another group's id reaches that
  group's leader and dies on its seals, exactly like any forged frame.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.crypto.keys import KeyMaterial
from repro.crypto.rng import RandomSource, SystemRandom
from repro.enclaves.common import Event, Rejected, UserDirectory
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.persistence import restore_leader
from repro.exceptions import CodecError, StateError
from repro.storage.journal import Journal
from repro.telemetry.events import (
    EventBus,
    ForeignGroupRejected,
    FrameRejected,
    GroupHosted,
    GroupRedirected,
    ShardDelivered,
    frame_id,
)
from repro.util.clock import Clock
from repro.wire.codec import decode_fields, decode_str, encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope, unwrap_group


def redirect_envelope(
    shard_id: str, member: str, group_id: str, target: str | None
) -> Envelope:
    """A shard's answer for a group it no longer serves.

    ``target`` names the new shard when the sender knows it (a completed
    move), or ``None`` when the member must re-consult the directory
    (mid-quiesce, or the shard only knows the group left).
    """
    return Envelope(
        label=Label.GROUP_REDIRECT,
        sender=shard_id,
        recipient=member,
        body=encode_fields(
            [encode_str(group_id), encode_str(target or "")]
        ),
    )


def parse_redirect(envelope: Envelope) -> tuple[str, str | None]:
    """``(group id, new shard or None)`` from a GROUP_REDIRECT frame."""
    if envelope.label is not Label.GROUP_REDIRECT:
        raise CodecError(
            f"expected GROUP_REDIRECT, got {envelope.label.name}"
        )
    group_b, target_b = decode_fields(envelope.body, expect=2)
    target = decode_str(target_b)
    return decode_str(group_b), (target or None)


@dataclass
class ShardStats:
    """Demux counters (the balancer and soak assertions read these)."""

    frames_in: int = 0
    delivered: int = 0
    redirected: int = 0
    foreign_rejected: int = 0
    malformed: int = 0
    #: Frames refused at the bounded intake (overload protection).
    shed: int = 0


@dataclass
class _Hosted:
    leader: GroupLeader
    journal: Journal
    quiesced: bool = False


class ShardHost:
    """Sans-IO multi-group host: ``handle(envelope) -> (out, events)``."""

    def __init__(
        self,
        shard_id: str,
        disk,
        *,
        rng: RandomSource | None = None,
        clock: Clock | None = None,
        telemetry: EventBus | None = None,
        fsync_every: int = 1,
        compact_threshold: int | None = 64,
        mailbox=None,
    ) -> None:
        self.shard_id = shard_id
        self.disk = disk
        self._rng = rng if rng is not None else SystemRandom()
        self._clock = clock
        self._telemetry = telemetry
        self._fsync_every = fsync_every
        self._compact_threshold = compact_threshold
        #: Optional :class:`~repro.overload.mailbox.BoundedMailbox` in
        #: front of the demux (see :meth:`enqueue`/:meth:`pump`); None
        #: keeps the seed behaviour — every frame demuxed on arrival.
        self._mailbox = mailbox
        self._hosted: dict[str, _Hosted] = {}
        #: Groups that moved away: ``group id -> new shard or None``.
        self._departed: dict[str, str | None] = {}
        #: optional PhaseProfiler (observability); None when off.
        self._profiler = None
        self.stats = ShardStats()

    def bind_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.observability.profile.PhaseProfiler`
        to the demux path (None detaches)."""
        self._profiler = profiler

    # -- lifecycle ----------------------------------------------------------

    @property
    def groups(self) -> list[str]:
        return sorted(self._hosted)

    def hosts(self, group_id: str) -> bool:
        return group_id in self._hosted

    def leader(self, group_id: str) -> GroupLeader:
        return self._entry(group_id).leader

    def journal(self, group_id: str) -> Journal:
        return self._entry(group_id).journal

    def journal_path(self, group_id: str) -> str:
        """The per-group journal file name on this shard's disk."""
        return f"{group_id}.wal"

    def _entry(self, group_id: str) -> _Hosted:
        entry = self._hosted.get(group_id)
        if entry is None:
            raise StateError(
                f"shard {self.shard_id!r} does not host {group_id!r}"
            )
        return entry

    def host_group(
        self,
        group_id: str,
        users: UserDirectory,
        *,
        storage_key: KeyMaterial,
        config: LeaderConfig | None = None,
        state: dict | None = None,
        start_seq: int = 0,
        rng: RandomSource | None = None,
    ) -> GroupLeader:
        """Start serving a group, journaled under its own storage key.

        With ``state`` (a leader snapshot, e.g. from a migration replay
        or a crashed shard's journal) the leader is *restored*; without,
        a fresh one is created.  ``start_seq`` continues the journal's
        sequence past the shipped history so replays of the whole move
        see one gap-free record stream per group; it also names this
        incarnation, so the leader and the journal each draw from their
        own fork of ``rng`` (default: the shard's), shared with no other
        group and no earlier hosting of this one.
        """
        if group_id in self._hosted:
            raise StateError(
                f"shard {self.shard_id!r} already hosts {group_id!r}"
            )
        self._departed.pop(group_id, None)
        parent = rng if rng is not None else self._rng
        leader_rng = parent.fork(f"leader-{group_id}-{start_seq}")
        if state is not None:
            if state.get("leader_id") != group_id:
                raise StateError(
                    f"snapshot is for {state.get('leader_id')!r}, "
                    f"not {group_id!r}"
                )
            leader = restore_leader(
                state, users, config=config, rng=leader_rng,
                clock=self._clock, telemetry=self._telemetry,
            )
        else:
            leader = GroupLeader(
                group_id, users, config=config, rng=leader_rng,
                clock=self._clock, telemetry=self._telemetry,
            )
        journal = Journal(
            self.disk,
            self.journal_path(group_id),
            storage_key,
            fsync_every=self._fsync_every,
            compact_threshold=self._compact_threshold,
            rng=parent.fork(f"journal-{group_id}-{start_seq}"),
            node=f"{self.shard_id}/{group_id}",
            telemetry=self._telemetry,
        )
        journal.attach(leader, start_seq=start_seq)
        self._hosted[group_id] = _Hosted(leader, journal)
        if self._telemetry:
            self._telemetry.emit(
                GroupHosted(self.shard_id, group_id, journal.seq)
            )
        return leader

    def host_prepared(
        self, group_id: str, leader: GroupLeader, journal: Journal
    ) -> None:
        """Serve an externally constructed (leader, journal) pair.

        The quorum fabric glue (:mod:`repro.quorum.fabric`) uses this to
        put a replica set's *primary* — a core whose journal, shipping
        stream, and certification wiring already exist and must not be
        rebuilt — behind the shard's demux.  Redirects, eviction, and
        the tick fan-out behave exactly as for natively hosted groups.
        """
        if group_id in self._hosted:
            raise StateError(
                f"shard {self.shard_id!r} already hosts {group_id!r}"
            )
        self._departed.pop(group_id, None)
        self._hosted[group_id] = _Hosted(leader, journal)
        if self._telemetry:
            self._telemetry.emit(
                GroupHosted(self.shard_id, group_id, journal.seq)
            )

    def rebind_group(
        self, group_id: str, leader: GroupLeader, journal: Journal
    ) -> None:
        """Swap the served core for an already-hosted group in place.

        A quorum view change replaces the primary's leader object (the
        promoted witness's replayed state) without the group moving
        shards; the demux must follow or it would keep serving the
        evicted core.  No redirect breadcrumb, no directory change —
        from the members' side nothing happened but an epoch bump.
        """
        entry = self._entry(group_id)
        entry.leader = leader
        entry.journal = journal

    def quiesce(self, group_id: str) -> None:
        """Stop serving a group's traffic (members get redirects) while
        its state ships; the leader object stays for checkpointing."""
        self._entry(group_id).quiesced = True

    def resume(self, group_id: str) -> None:
        """Undo :meth:`quiesce` (an aborted migration)."""
        self._entry(group_id).quiesced = False

    def evict_group(self, group_id: str, target: str | None) -> None:
        """Forget a group after it moved; keep a redirect breadcrumb.

        The journal object is dropped but its file stays on disk —
        history is never destroyed by an eviction, only superseded by
        the target shard's journal.
        """
        self._entry(group_id)  # loud on unknown groups
        del self._hosted[group_id]
        self._departed[group_id] = target

    # -- the demux path -----------------------------------------------------

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], list[Event]]:
        """Route one wrapped frame to its hosted leader (a one-frame
        flush)."""
        return self.handle_many((envelope,))

    def handle_many(
        self, envelopes: Sequence[Envelope]
    ) -> tuple[list[Envelope], list[Event]]:
        """Route a flush of wrapped frames, coalescing same-group runs.

        Consecutive frames that route to the *same* hosted leader go to
        :meth:`~repro.enclaves.itgm.leader.GroupLeader.handle_many` in
        one call, whatever the run's length, so the run is journaled as
        one record.  A reject, a redirect or a group switch ends the
        run; outputs and events come back in exactly the order
        sequential :meth:`handle` calls would produce them.  A bound
        profiler sees one ``demux`` phase per flush, covering
        ``len(envelopes)`` frames.
        """
        out: list[Envelope] = []
        events: list[Event] = []
        run_leader: GroupLeader | None = None
        run_inner: list[Envelope] = []

        def deliver() -> None:
            nonlocal run_leader, run_inner
            if run_leader is not None:
                frames, evts = run_leader.handle_many(run_inner)
                out.extend(frames)
                events.extend(evts)
                run_leader, run_inner = None, []

        prof = self._profiler
        tok = prof.begin("demux") if prof else None
        try:
            for envelope in envelopes:
                self.stats.frames_in += 1
                delivery, frames, evts = self._route(envelope)
                if delivery is None:
                    deliver()
                    out.extend(frames)
                    events.extend(evts)
                    continue
                leader, inner = delivery
                if leader is not run_leader:
                    deliver()
                    run_leader = leader
                run_inner.append(inner)
            deliver()
        finally:
            if prof:
                prof.end(tok, frames=len(envelopes))
        return out, events

    def _route(
        self, envelope: Envelope
    ) -> tuple[
        tuple[GroupLeader, Envelope] | None, list[Envelope], list[Event]
    ]:
        """Classify one wrapped frame without delivering it.

        Returns ``((leader, inner), [], [])`` for a deliverable frame
        (demux stats and telemetry already emitted), or
        ``(None, out, events)`` when the demux layer answered it
        (malformed, foreign, or redirected).
        """
        if envelope.label is not Label.GROUP_WRAP:
            self.stats.malformed += 1
            reason = "shard endpoint accepts only GROUP_WRAP frames"
            self._reject_frame(envelope, reason)
            return None, [], [Rejected(reason, envelope.label)]
        try:
            group_id, inner = unwrap_group(envelope)
        except CodecError as exc:
            self.stats.malformed += 1
            reason = f"malformed group wrapper: {exc}"
            self._reject_frame(envelope, reason)
            return None, [], [Rejected(reason, envelope.label)]

        entry = self._hosted.get(group_id)
        if entry is None or entry.quiesced:
            if entry is not None or group_id in self._departed:
                # Known-but-not-served: a stale route.  Answer it.
                target = (
                    None if entry is not None
                    else self._departed.get(group_id)
                )
                self.stats.redirected += 1
                if self._telemetry:
                    self._telemetry.emit(GroupRedirected(
                        self.shard_id, group_id, inner.sender,
                        target or "", frame_id(envelope),
                    ))
                return (
                    None,
                    [redirect_envelope(
                        self.shard_id, inner.sender, group_id, target
                    )],
                    [],
                )
            # Never ours: foreign (or fabricated) group id.
            self.stats.foreign_rejected += 1
            reason = f"group {group_id!r} is not hosted here"
            if self._telemetry:
                self._telemetry.emit(ForeignGroupRejected(
                    self.shard_id, group_id, frame_id(envelope), reason
                ))
            return None, [], [Rejected(reason, envelope.label)]

        self.stats.delivered += 1
        if self._telemetry:
            # The causal splice: wrapper id -> inner id, the inner id
            # being what the hosted leader's events carry as caused_by.
            self._telemetry.emit(ShardDelivered(
                self.shard_id, group_id, inner.sender,
                frame_id(envelope), frame_id(inner),
            ))
        return (entry.leader, inner), [], []

    # -- bounded intake (overload protection) --------------------------------

    @property
    def mailbox(self):
        return self._mailbox

    def enqueue(self, envelope: Envelope, now: float = 0.0) -> bool:
        """Admit one frame into the bounded intake (False = shed).

        Drivers that want backpressure route arrivals through here and
        drain with :meth:`pump`; :meth:`handle` stays available for
        direct synchronous use.  Without a mailbox this raises
        :class:`~repro.exceptions.StateError` — use :meth:`handle`
        directly when there is no intake to bound.
        """
        if self._mailbox is None:
            raise StateError(
                f"shard {self.shard_id!r} has no bounded intake"
            )
        accepted = self._mailbox.offer(envelope, now)
        if not accepted:
            self.stats.shed += 1
        return accepted

    def pump(self, budget: int) -> tuple[list[Envelope], list[Event]]:
        """Demux up to ``budget`` queued frames, priority order, as one
        :meth:`handle_many` flush."""
        if self._mailbox is None:
            raise StateError(
                f"shard {self.shard_id!r} has no bounded intake"
            )
        return self.handle_many(self._mailbox.drain(budget))

    def _reject_frame(self, envelope: Envelope, reason: str) -> None:
        if self._telemetry:
            self._telemetry.emit(FrameRejected(
                self.shard_id, envelope.label.name, reason,
                frame_id(envelope),
            ))

    # -- time-driven behaviour ----------------------------------------------

    def tick(self) -> list[Envelope]:
        """Advance every hosted (non-quiesced) leader's timers."""
        out: list[Envelope] = []
        for group_id in self.groups:
            entry = self._hosted[group_id]
            if not entry.quiesced:
                out.extend(entry.leader.tick())
        return out

    def heartbeat(self) -> list[Envelope]:
        """One liveness beacon per member, across all hosted groups."""
        out: list[Envelope] = []
        for group_id in self.groups:
            entry = self._hosted[group_id]
            if not entry.quiesced:
                out.extend(entry.leader.heartbeat())
        return out
