"""The correctness gate run inside every repetition, after the timed region.

A repetition whose gate reports anything fails the whole run (non-zero
exit), so a later optimisation cannot buy speed with a lost message, a
diverged epoch or a journal that no longer replays.
"""

from __future__ import annotations

import json
from collections import Counter
from types import SimpleNamespace

from repro.enclaves.itgm.admin import NewGroupKeyPayload
from repro.enclaves.itgm.persistence import snapshot_leader
from repro.exceptions import RecoveryError
from repro.formal.properties import check_no_duplicates, check_prefix
from repro.storage.recovery import replay_records


def check(stack) -> list[str]:
    """Every violation found on a quiescent stack (empty = correct)."""
    problems: list[str] = []

    # Payload-exact, exactly-once delivery to every peer; nothing pending.
    for uid, expected in stack.expected.items():
        got = [
            (sender, payload)
            for data in stack.datas[uid]
            for sender, _seq, payload in data.inbox
        ]
        if Counter(got) != Counter(expected):
            problems.append(
                f"{uid}: delivered {len(got)} messages, "
                f"expected {len(expected)} (or payloads differ)"
            )
        if stack.data_member(uid).sender.pending:
            problems.append(f"{uid}: unacknowledged messages left")

    for gid, leader in stack.leaders.items():
        live = stack.live[gid]
        if leader.members != sorted(live):
            problems.append(
                f"{gid}: leader sees {leader.members}, live is {sorted(live)}"
            )
        for uid in stack.group_members[gid]:
            protocol = stack.members[uid].protocol
            if protocol.stats.rejected:
                problems.append(f"{uid}: rejected {protocol.stats.rejected}")
            if uid not in live:
                continue
            if not stack.members[uid].connected:
                problems.append(f"{uid}: live but not connected")
            if protocol.group_epoch != leader.group_epoch:
                problems.append(
                    f"{uid}: epoch {protocol.group_epoch}, "
                    f"leader {leader.group_epoch}"
                )
            # §5.4: rcv_A is a prefix of snd_A; no key epoch twice.
            log = protocol.admin_log
            trace = SimpleNamespace(
                rcv=tuple(p.encode() for p in log),
                snd=tuple(p.encode() for p in leader.admin_send_log(uid)),
            )
            epochs = SimpleNamespace(rcv=tuple(
                p.epoch for p in log if isinstance(p, NewGroupKeyPayload)
            ))
            for problem in (check_prefix(None, trace),
                            check_no_duplicates(None, epochs)):
                if problem is not None:
                    problems.append(f"{uid}: {problem[:120]}")

    # The only frames a leader may reject are the cached ReqClose copies
    # FabricMember resends ahead of every rejoin (one each, by design).
    rejected = sum(l.stats.rejected for l in stack.leaders.values())
    if rejected != stack.rejoins:
        problems.append(
            f"leaders rejected {rejected} frames, {stack.rejoins} rejoins"
        )
    for sid, host in stack.hosts.items():
        stats = host.stats
        if stats.foreign_rejected or stats.malformed or stats.shed:
            problems.append(f"{sid}: demux dropped frames: {stats}")

    # Power-cut every disk: each journal must replay to its leader's
    # exact state (fsync_every=1: nothing acknowledged may be lost).
    for sid, host in stack.hosts.items():
        disk = stack.disks[sid]
        disk.crash(keep="none")
        disk.restart()
        for gid in host.groups:
            try:
                replay = replay_records(
                    disk.read(host.journal_path(gid)),
                    stack.directory.storage_key(gid),
                )
            except RecoveryError as exc:
                problems.append(f"{gid}: journal unreadable: {exc}")
                continue
            snapshot = json.loads(json.dumps(snapshot_leader(host.leader(gid))))
            if replay.truncated or replay.state != snapshot:
                problems.append(
                    f"{gid}: journal replay differs from the live leader "
                    f"({replay.reason})"
                )
    return problems
