"""Causal trace graphs: per-operation DAGs over the typed event stream.

The telemetry events already carry everything a causal reconstruction
needs — this module adds **no** runtime hooks; it is a pure consumer:

* **Frame edges.**  Wire frames are named by
  :func:`~repro.telemetry.events.frame_id`; events reference frames via
  their ``frame``, ``inner``, and ``caused_by`` fields.  Two events
  that mention the same frame id are causally ordered by ``(ts, seq)``
  and chained: ``JoinStarted(frame=F)`` → ``ShardDelivered(inner=F)``
  → ``AuthAccepted(caused_by=F)`` → ``JournalAppended(caused_by=F)``
  is exactly the path of one AuthInitReq through the fabric demux, the
  leader core, and the WAL.
* **Attribute edges.**  Where causality is provable from correlation
  fields rather than frame ids: a ``JoinCompleted`` follows its
  member's ``JoinStarted``; an ``AttestationIssued`` co-signs the
  ``JournalAppended`` record with the same seq; a
  ``CertificateVerified`` consumes the ``CertificateIssued`` for the
  same (session, epoch); a ``RekeyInstalled`` installs the
  ``RekeyIssued`` epoch; journal ``Synced``/``Shipped`` follow the
  append on the same node; migration and view-change completions
  follow their start events.
* **Session edges** (fallback).  A member-side event whose frame ids
  appear nowhere else — mid-handshake frames the member sends without
  emitting anything — anchors to the most recent ``JoinStarted`` /
  ``JoinCompleted`` of the same (member, leader) session, which *is*
  the operation that caused it.

A node with no parent is either a recognized **operation root** (a
``JoinStarted``, a leader-initiated ``RekeyIssued``, a fault-window
opening...) or an **orphan** — an event the model cannot attach, which
the ``repro obs trace`` command treats as a failure.

Feed the builder live (``bus.subscribe(builder)``) or offline
(:meth:`TraceBuilder.from_jsonl` on an exported, schema-validated
log); both paths normalize to the same flat dicts, so a trace rendered
from a live run and from its export are identical.
"""

from __future__ import annotations

from repro.telemetry.events import TelemetryRecord

#: Fields whose (non-empty) values are frame ids.
_FRAME_FIELDS = ("frame", "inner", "caused_by")

#: Event types allowed to start a causal chain.  Anything else that
#: ends up parentless is an orphan — a hole in the causal model.
_ROOT_TYPES = frozenset({
    "JoinStarted",
    "MemberExpelled",
    "FaultWindowOpened",
    "FaultWindowClosed",
    "WatchdogFired",
    "LeaderCrashed",
    "LeaderRestored",
    "LeaderFailover",
    "StandbyPromoted",
    "JournalReplayed",
    "DirectoryUpdated",
    "GroupHosted",
    "ShardFailed",
    "MigrationStarted",
    "ViewChangeStarted",
    "FrameInjected",
    "FrameDropped",
    "FrameDuplicated",
    "FrameDelayed",
    "FrameReplaced",
})

#: The short fields worth showing in a rendered node line.
_DISPLAY_FIELDS = (
    "node", "leader", "member", "session", "group", "peer", "kind",
    "epoch", "record_seq", "signers", "reason", "accused", "message",
)


class TraceNode:
    """One event in the graph, with its resolved parents/children."""

    __slots__ = ("seq", "ts", "name", "data", "parents", "children")

    def __init__(self, payload: dict) -> None:
        self.seq: int = payload["seq"]
        self.ts: float = payload["ts"]
        self.name: str = payload["event"]
        self.data: dict = payload
        #: ``[(parent seq, edge kind), ...]`` in insertion order.
        self.parents: list[tuple[int, str]] = []
        self.children: list[tuple[int, str]] = []

    @property
    def is_root_type(self) -> bool:
        if self.name in _ROOT_TYPES:
            return True
        # Leader-initiated rotations/appends (no inbound frame) are
        # legitimate chain starts; frame-caused ones are not.
        if self.name in ("RekeyIssued", "JournalAppended"):
            return not self.data.get("caused_by")
        return False

    def describe(self) -> str:
        bits = []
        for field in _DISPLAY_FIELDS:
            value = self.data.get(field)
            if value is not None and value != "":
                text = str(value)
                if len(text) > 24:
                    text = text[:21] + "..."
                bits.append(f"{field}={text}")
        inner = f" {' '.join(bits)}" if bits else ""
        return f"[{self.seq}] t={self.ts:.2f} {self.name}{inner}"


class TraceGraph:
    """The built DAG: nodes by seq, edges resolved, renderable."""

    def __init__(self, nodes: dict[int, TraceNode]) -> None:
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)

    # -- structure -----------------------------------------------------------

    def roots(self) -> list[TraceNode]:
        """Nodes with no parent, in seq order (legitimate or not)."""
        return [
            node for _, node in sorted(self.nodes.items())
            if not node.parents
        ]

    def orphans(self) -> list[TraceNode]:
        """Parentless nodes that are *not* recognized operation roots."""
        return [node for node in self.roots() if not node.is_root_type]

    def find(self, event: str, **match) -> TraceNode | None:
        """First node of type ``event`` whose fields equal ``match``."""
        for _, node in sorted(self.nodes.items()):
            if node.name == event and all(
                node.data.get(k) == v for k, v in match.items()
            ):
                return node
        return None

    def _closure(self, seq: int, direction: str) -> list[int]:
        seen: set[int] = set()
        stack = [seq]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            node = self.nodes.get(current)
            if node is None:
                continue
            for linked, _ in getattr(node, direction):
                if linked not in seen:
                    stack.append(linked)
        return sorted(seen)

    def ancestors(self, seq: int) -> list[int]:
        """Seqs of ``seq`` and everything that (transitively) caused it."""
        return self._closure(seq, "parents")

    def descendants(self, seq: int) -> list[int]:
        """Seqs of ``seq`` and everything it (transitively) caused."""
        return self._closure(seq, "children")

    def operation(self, root_seq: int) -> list[TraceNode]:
        """All nodes of the operation rooted at ``root_seq``."""
        return [self.nodes[s] for s in self.descendants(root_seq)]

    # -- rendering -----------------------------------------------------------

    def render(self, root_seq: int) -> str:
        """Indented causal tree below ``root_seq``.

        A node reachable along several paths is printed where first
        reached (depth-first in child order) and elided afterwards, so
        the output stays a tree even though the structure is a DAG.
        """
        lines: list[str] = []
        seen: set[int] = set()

        def walk(seq: int, depth: int, kind: str) -> None:
            node = self.nodes[seq]
            prefix = "  " * depth
            via = f" <-{kind}-" if kind else ""
            if seq in seen:
                lines.append(f"{prefix}{via} (see [{seq}] above)")
                return
            seen.add(seq)
            lines.append(f"{prefix}{via} {node.describe()}".strip())
            for child_seq, edge_kind in sorted(node.children):
                walk(child_seq, depth + 1, edge_kind)

        walk(root_seq, 0, "")
        return "\n".join(lines)


class TraceBuilder:
    """Accumulate event payloads, then :meth:`build` the causal graph.

    Usable as a bus subscriber (``bus.subscribe(builder)``) or fed
    parsed JSONL dicts via :meth:`add` / :meth:`extend`.
    """

    def __init__(self) -> None:
        self._payloads: list[dict] = []

    # -- ingestion -----------------------------------------------------------

    def __call__(self, record: TelemetryRecord) -> None:
        self._payloads.append(record.as_dict())

    def add(self, payload: dict) -> None:
        for required in ("ts", "seq", "event"):
            if required not in payload:
                raise ValueError(f"payload missing {required!r}: {payload}")
        self._payloads.append(dict(payload))

    def extend(self, payloads) -> None:
        for payload in payloads:
            self.add(payload)

    @classmethod
    def from_jsonl(cls, source) -> "TraceBuilder":
        """Build from an exported log (path or iterable of lines),
        schema-validating every line first."""
        from repro.telemetry.export import validate_jsonl

        builder = cls()
        builder.extend(validate_jsonl(source))
        return builder

    def __len__(self) -> int:
        return len(self._payloads)

    # -- graph construction --------------------------------------------------

    def build(self) -> TraceGraph:
        nodes: dict[int, TraceNode] = {}
        for payload in sorted(self._payloads, key=lambda p: p["seq"]):
            node = TraceNode(payload)
            nodes[node.seq] = node
        ordered = [nodes[seq] for seq in sorted(nodes)]

        def link(parent: TraceNode, child: TraceNode, kind: str) -> None:
            if parent.seq == child.seq:
                return
            if any(p == parent.seq for p, _ in child.parents):
                return
            child.parents.append((parent.seq, kind))
            parent.children.append((child.seq, kind))

        self._link_frames(ordered, link)
        self._link_attributes(ordered, link)
        self._link_sessions(ordered, link)
        return TraceGraph(nodes)

    @staticmethod
    def _link_frames(ordered: list[TraceNode], link) -> None:
        """Chain events that mention the same frame id, in seq order."""
        by_frame: dict[str, list[TraceNode]] = {}
        for node in ordered:
            mentioned: list[str] = []
            for field in _FRAME_FIELDS:
                value = node.data.get(field)
                if value and value not in mentioned:
                    mentioned.append(value)
            for fid in mentioned:
                chain = by_frame.setdefault(fid, [])
                if chain:
                    link(chain[-1], node, "frame")
                chain.append(node)

    @staticmethod
    def _link_attributes(ordered: list[TraceNode], link) -> None:
        """Correlation-field edges (see the rules in the module doc)."""
        last: dict[tuple, TraceNode] = {}
        attestations: dict[tuple, list[TraceNode]] = {}
        for node in ordered:
            name, data = node.name, node.data

            if name == "JoinCompleted":
                started = last.get(
                    ("join", data.get("node"), data.get("leader"))
                )
                if started is not None:
                    link(started, node, "join")
            elif name == "AttestationIssued":
                appended = last.get(("journal-seq", data.get("record_seq")))
                if appended is not None:
                    link(appended, node, "journal")
                attestations.setdefault(
                    (data.get("session"), data.get("record_seq")), []
                ).append(node)
            elif name == "CertificateIssued":
                for attn in attestations.get(
                    (data.get("session"), data.get("record_seq")), ()
                ):
                    link(attn, node, "attest")
            elif name in ("CertificateVerified", "EquivocationDetected"):
                issued = last.get(
                    ("certificate", data.get("session"), data.get("epoch"))
                )
                if issued is not None:
                    link(issued, node, "certificate")
                if name == "EquivocationDetected":
                    # A gossip detection carries no frame; the accepted
                    # half of the conflicting pair — the offending
                    # mutation — is the CertificateVerified at the same
                    # (session, epoch).
                    verified = last.get(
                        ("verified", data.get("session"), data.get("epoch"))
                    )
                    if verified is not None:
                        link(verified, node, "conflict")
            elif name == "RekeyInstalled":
                issued = last.get(
                    ("rekey", data.get("leader"), data.get("epoch"))
                )
                if issued is not None:
                    link(issued, node, "rekey")
            elif name in ("JournalSynced", "JournalShipped",
                          "JournalCompacted"):
                appended = last.get(("journal-node", data.get("node")))
                if appended is not None:
                    link(appended, node, "journal")
            elif name == "FollowerLagged":
                shipped = last.get(
                    ("shipped", data.get("node"), data.get("peer"))
                )
                if shipped is not None:
                    link(shipped, node, "journal")
            elif name in ("RejoinCompleted", "RecoveryGaveUp"):
                fired = last.get(("watchdog", data.get("node")))
                if fired is not None:
                    link(fired, node, "recovery")
            elif name in ("GroupMigrated", "MigrationAborted"):
                started = last.get(("migration", data.get("group")))
                if started is not None:
                    link(started, node, "migration")
            elif name in ("ReplicaEvicted", "ViewChangeCompleted"):
                started = last.get(("viewchange", data.get("session")))
                if started is not None:
                    link(started, node, "viewchange")
            elif name == "ProbeViolation":
                # The probe fires synchronously from the record it was
                # checking: the immediately preceding event.
                idx = ordered.index(node)
                if idx > 0:
                    link(ordered[idx - 1], node, "probe")

            # Register this node as a future edge source.
            if name == "JoinStarted":
                last[("join", data.get("node"), data.get("leader"))] = node
            elif name == "JournalAppended":
                last[("journal-seq", data.get("record_seq"))] = node
                last[("journal-node", data.get("node"))] = node
            elif name == "JournalShipped":
                last[("shipped", data.get("node"), data.get("peer"))] = node
            elif name == "CertificateIssued":
                last[
                    ("certificate", data.get("session"), data.get("epoch"))
                ] = node
            elif name == "CertificateVerified":
                last[
                    ("verified", data.get("session"), data.get("epoch"))
                ] = node
            elif name == "RekeyIssued":
                last[("rekey", data.get("node"), data.get("epoch"))] = node
            elif name == "WatchdogFired":
                last[("watchdog", data.get("node"))] = node
            elif name == "MigrationStarted":
                last[("migration", data.get("group"))] = node
            elif name == "ViewChangeStarted":
                last[("viewchange", data.get("session"))] = node

    @staticmethod
    def _link_sessions(ordered: list[TraceNode], link) -> None:
        """Anchor still-parentless in-session events to their session.

        Runs last: only events the frame and attribute passes could not
        attach fall through to here.
        """
        anchors: dict[tuple[str, str], TraceNode] = {}
        for node in ordered:
            data = node.data
            if not node.parents:
                if node.name == "ShardDelivered":
                    key = (data.get("member"), data.get("group"))
                else:
                    key = (data.get("node"), data.get("leader"))
                anchor = anchors.get(key)
                if anchor is not None:
                    link(anchor, node, "session")
            if node.name in ("JoinStarted", "JoinCompleted"):
                anchors[(data["node"], data["leader"])] = node


__all__ = ["TraceBuilder", "TraceGraph", "TraceNode"]
