"""A virtual disk with seeded crash-fault injection.

Real storage fails in structured ways that a `MemoryError`-style mock
cannot express: a power loss loses everything the OS had not fsynced; a
torn write leaves a *prefix* of the last sector batch; cosmic rays and
firmware bugs flip bits that no syscall ever reports.  The journal's
whole correctness argument is about these cases, so the disk under it
must produce them on demand and reproducibly.

:class:`SimDisk` models a flat namespace of append-oriented files with
the two-level state real disks have:

* ``durable`` — bytes an fsync has made crash-proof;
* ``pending`` — bytes written but not yet fsynced (the page cache).

:meth:`crash` is a power cut: what survives of ``pending`` depends on
the crash-keep mode (everything, a seeded torn prefix, or nothing).
:class:`DiskFaults` schedules a fail-stop at the Nth write and silent
bit rot, both driven by the injected :class:`~repro.crypto.rng.\
RandomSource` so that every run with the same seed fails identically —
the property the crash-point sweep is built on.

The design follows ``repro.net.faults``: a passive policy object owned
by the component it disturbs, counters for observability, and no global
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import RandomSource
from repro.exceptions import DiskCrashed, StorageError

#: What survives of un-fsynced bytes when the power goes out.
CRASH_KEEP_MODES = ("all", "torn", "none")


@dataclass(frozen=True, slots=True)
class DiskFaults:
    """Schedule of storage faults, all deterministic under a seeded rng.

    ``fail_at_write``
        1-based index of the write call that fails: the disk keeps a
        (possibly torn) portion of that write, crashes, and raises
        :class:`DiskCrashed`.  ``None`` disables fail-stop.
    ``torn_tail``
        When failing, keep a seeded strict prefix of the failing write
        in the page cache (a torn write) instead of dropping it whole.
    ``crash_keep``
        Fate of *all* un-fsynced bytes at the crash: ``"all"`` (the
        cache happened to hit the platter), ``"torn"`` (a seeded prefix
        per file), or ``"none"`` (classic power cut — only fsynced
        bytes survive).
    ``bitrot_write``
        1-based index of a write whose payload silently gets one byte
        flipped — latent corruption no error code ever reports, which
        only checksums can catch at replay time.
    """

    fail_at_write: int | None = None
    torn_tail: bool = True
    crash_keep: str = "none"
    bitrot_write: int | None = None

    def __post_init__(self) -> None:
        if self.crash_keep not in CRASH_KEEP_MODES:
            raise ValueError(
                f"crash_keep must be one of {CRASH_KEEP_MODES}, "
                f"got {self.crash_keep!r}"
            )


@dataclass
class _SimFile:
    durable: bytearray = field(default_factory=bytearray)
    pending: bytearray = field(default_factory=bytearray)


class SimDisk:
    """Virtual filesystem with durable/pending split and fault injection.

    API (all paths are plain strings in a flat namespace):

    * :meth:`append` — write bytes at the end of a file (page cache);
    * :meth:`fsync` — make a file's pending bytes durable;
    * :meth:`replace` — atomic rename, the primitive safe rewrites are
      built from (rename is atomic even across a crash);
    * :meth:`read`, :meth:`exists`, :meth:`delete`;
    * :meth:`crash` / :meth:`restart` — power cycle;
    * :meth:`corrupt` — flip one durable byte (bit rot, for tests).

    Every operation raises :class:`DiskCrashed` while the disk is down.
    """

    def __init__(
        self,
        rng: RandomSource | None = None,
        faults: DiskFaults | None = None,
    ) -> None:
        self._rng = rng
        self.faults = faults if faults is not None else DiskFaults()
        self._files: dict[str, _SimFile] = {}
        self._down = False
        self.counters = {
            "writes": 0,
            "fsyncs": 0,
            "crashes": 0,
            "torn_bytes_kept": 0,
            "lost_bytes": 0,
            "rotted": 0,
        }

    # -- fault plumbing -----------------------------------------------------

    def _check_up(self) -> None:
        if self._down:
            raise DiskCrashed("disk is down")

    def _rand_below(self, n: int) -> int:
        """Seeded integer in [0, n); 0 without an rng (worst case)."""
        if n <= 0 or self._rng is None:
            return 0
        return int.from_bytes(self._rng.random_bytes(4), "big") % n

    # -- write path ---------------------------------------------------------

    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path`` (creating it), page-cache only."""
        self._check_up()
        self.counters["writes"] += 1
        data = bytes(data)
        if self.counters["writes"] == self.faults.bitrot_write and data:
            flip = self._rand_below(len(data))
            rot = bytearray(data)
            rot[flip] ^= 0xFF
            data = bytes(rot)
            self.counters["rotted"] += 1
        file = self._files.setdefault(path, _SimFile())
        if self.counters["writes"] == self.faults.fail_at_write:
            if self.faults.torn_tail and len(data) > 1:
                kept = self._rand_below(len(data) - 1) + 1
                file.pending += data[:kept]
                self.counters["torn_bytes_kept"] += kept
            self.crash(self.faults.crash_keep)
            raise DiskCrashed(
                f"fail-stop at write #{self.counters['writes']} "
                f"({path!r})"
            )
        file.pending += data

    def fsync(self, path: str) -> None:
        """Make ``path``'s pending bytes durable."""
        self._check_up()
        file = self._files.get(path)
        if file is None:
            raise StorageError(f"fsync of missing file {path!r}")
        self.counters["fsyncs"] += 1
        file.durable += file.pending
        file.pending.clear()

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``.

        Models POSIX ``rename(2)``: the directory entry swap is atomic
        with respect to a crash — afterwards ``dst`` is the *complete*
        old file or the *complete* new one, never a mix.  Only ``src``'s
        durable bytes move; renaming an unsynced file is a programming
        error the journal never commits.
        """
        self._check_up()
        file = self._files.pop(src, None)
        if file is None:
            raise StorageError(f"replace of missing file {src!r}")
        if file.pending:
            raise StorageError(
                f"replace of {src!r} with unsynced bytes (fsync first)"
            )
        self._files[dst] = file

    def delete(self, path: str) -> None:
        self._check_up()
        self._files.pop(path, None)

    # -- read path ----------------------------------------------------------

    def read(self, path: str) -> bytes:
        """The file's current contents (durable + pending)."""
        self._check_up()
        file = self._files.get(path)
        if file is None:
            raise StorageError(f"no such file {path!r}")
        return bytes(file.durable) + bytes(file.pending)

    def preload(self, path: str, data: bytes) -> None:
        """Install ``data`` as a file's durable image (test setup)."""
        self._check_up()
        self._files[path] = _SimFile(durable=bytearray(data))

    def exists(self, path: str) -> bool:
        self._check_up()
        return path in self._files

    # -- power cycle and corruption ----------------------------------------

    def crash(self, keep: str = "none") -> None:
        """Power cut: resolve every file's pending bytes per ``keep``."""
        if keep not in CRASH_KEEP_MODES:
            raise ValueError(f"unknown crash-keep mode {keep!r}")
        self.counters["crashes"] += 1
        self._down = True
        for file in self._files.values():
            if not file.pending:
                continue
            if keep == "all":
                file.durable += file.pending
            elif keep == "torn":
                kept = self._rand_below(len(file.pending) + 1)
                file.durable += file.pending[:kept]
                self.counters["torn_bytes_kept"] += kept
                self.counters["lost_bytes"] += len(file.pending) - kept
            else:  # "none"
                self.counters["lost_bytes"] += len(file.pending)
            file.pending.clear()

    def restart(self) -> None:
        """Power the disk back on; only durable bytes remain."""
        self._down = False

    def corrupt(self, path: str, offset: int) -> None:
        """Flip one durable byte (bit rot).  For tests and the sweep."""
        self._check_up()
        file = self._files.get(path)
        if file is None or offset >= len(file.durable):
            raise StorageError(
                f"cannot corrupt {path!r} at offset {offset}"
            )
        file.durable[offset] ^= 0xFF
        self.counters["rotted"] += 1
