"""Continuous profiling: attribute time to named hot-path phases.

The protocol cores carry optional profiling hooks (``bind_profiler``)
on their hot paths — sealing, unsealing, certification, WAL append and
fsync, shard demux, multicast fan-out.  Each hook is two calls:

    prof = self._profiler
    tok = prof.begin("seal") if prof else None
    ...
    if prof:
        prof.end(tok)

so the *disabled* cost is one attribute load and one ``if`` (the same
budget as the telemetry guards; the overhead benchmark covers both).
A hook never selects what runs between its two calls: a phase around a
batch closes with ``prof.end(tok, frames=n)``, so the shard's ``demux``
is attributed per flush on the path production takes.

:class:`PhaseProfiler` is the thing those hooks talk to.  It is
deliberately boring: a stack of open phases, a table of closed ones.
Phases nest — ``demux`` opened by the shard stays on the stack while
the hosted leader opens ``open`` and ``multicast`` inside it — and the
table is keyed by the full phase *path*, so the rendered output reads
like a folded flamegraph: cumulative time, self time (cumulative minus
time attributed to child phases), call counts and frame counts per path.

Time comes from an injected :class:`~repro.util.clock.Clock`.  With a
:class:`~repro.util.clock.TickClock` every ``begin``/``end`` pair costs
a deterministic number of ticks, so profile tables from seeded runs are
stable across machines; with a :class:`~repro.util.clock.RealClock`
the same table measures wall time.  Give the profiler its **own** clock
instance — sharing a ``TickClock`` with an :class:`EventBus` would make
profiling perturb event timestamps.
"""

from __future__ import annotations

from repro.util.clock import Clock, RealClock


class _Frame:
    """One open phase on the stack."""

    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        #: Time attributed to phases closed while this one was open.
        self.child = 0.0


class _Stat:
    """Accumulated totals for one phase path."""

    __slots__ = ("calls", "frames", "cumulative", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.frames = 0
        self.cumulative = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.cumulative - self.child


class PhaseProfiler:
    """Stack-based phase timer with flamegraph-style aggregation.

    Always truthy (hooks test the *binding*, not the profiler), cheap
    when bound (two clock reads and a dict update per phase), absent by
    default (components hold ``self._profiler = None``).
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock: Clock = clock if clock is not None else RealClock()
        self._stack: list[_Frame] = []
        self._stats: dict[tuple[str, ...], _Stat] = {}

    def begin(self, name: str) -> _Frame:
        """Open a phase; returns the token :meth:`end` must receive."""
        frame = _Frame(name, self._clock.now())
        self._stack.append(frame)
        return frame

    def end(self, token: _Frame, frames: int = 1) -> float:
        """Close the innermost phase; returns its elapsed time.

        ``frames`` is how many frames the phase covered (a batch phase
        passes its length).  Strictly LIFO: closing anything but the
        innermost open phase is a programming error in the instrumented
        code and raises, rather than silently corrupting the attribution.
        """
        if not self._stack or self._stack[-1] is not token:
            raise ValueError(
                f"phase end out of order (got {token.name!r}, open: "
                f"{[f.name for f in self._stack]})"
            )
        self._stack.pop()
        elapsed = self._clock.now() - token.start
        path = tuple(f.name for f in self._stack) + (token.name,)
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = _Stat()
        stat.calls += 1
        stat.frames += frames
        stat.cumulative += elapsed
        stat.child += token.child
        if self._stack:
            self._stack[-1].child += elapsed
        return elapsed

    # -- views ---------------------------------------------------------------

    @property
    def open_phases(self) -> list[str]:
        return [frame.name for frame in self._stack]

    def phases(self) -> dict[str, dict]:
        """``"a/b" -> {calls, frames, cumulative, self}`` per closed path."""
        return {
            "/".join(path): {
                "calls": stat.calls,
                "frames": stat.frames,
                "cumulative": stat.cumulative,
                "self": stat.self_time,
            }
            for path, stat in self._stats.items()
        }

    def total(self) -> float:
        """Time in root phases (the profile's whole measured span)."""
        return sum(
            stat.cumulative
            for path, stat in self._stats.items()
            if len(path) == 1
        )

    def as_dict(self) -> dict:
        """JSON-ready summary (the benchmark artifact embeds this)."""
        return {
            "total": self.total(),
            "phases": {
                path: stats
                for path, stats in sorted(self.phases().items())
            },
        }

    def render(self) -> str:
        """Folded-flamegraph table: one row per phase path.

        Children are indented under their parents; ``cum`` is the whole
        subtree, ``self`` the phase's own time, ``%`` its share of the
        profile total.
        """
        if not self._stats:
            return "profile: no phases recorded"
        total = self.total() or 1.0
        lines = [
            f"{'phase':<28} {'calls':>7} {'frames':>7} "
            f"{'cum':>10} {'self':>10} {'%':>6}"
        ]
        for path in sorted(self._stats):
            stat = self._stats[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f"{label:<28} {stat.calls:>7} {stat.frames:>7} "
                f"{stat.cumulative:>10.3f} {stat.self_time:>10.3f} "
                f"{100.0 * stat.cumulative / total:>5.1f}%"
            )
        return "\n".join(lines)


__all__ = ["PhaseProfiler"]
