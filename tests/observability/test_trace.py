"""Tests for causal trace reconstruction (frame/attribute/session edges)."""

import pytest

from repro.observability.trace import TraceBuilder


def ev(seq, event, **fields):
    """One payload dict the builder accepts (ts mirrors seq)."""
    return {"ts": float(seq), "seq": seq, "event": event, **fields}


def build(*payloads):
    builder = TraceBuilder()
    builder.extend(payloads)
    return builder.build()


def parent_kinds(node):
    return {kind for _, kind in node.parents}


class TestFrameEdges:
    def test_same_frame_mentions_chain_in_seq_order(self):
        g = build(
            ev(1, "JoinStarted", node="a", leader="g", frame="F1"),
            ev(2, "ShardDelivered", node="s", group="g", member="a",
               frame="F2", inner="F1"),
            ev(3, "AuthAccepted", node="g", member="a", caused_by="F1"),
        )
        assert g.nodes[2].parents == [(1, "frame")]
        assert g.nodes[3].parents == [(2, "frame")]
        assert (2, "frame") in g.nodes[1].children

    def test_distinct_frames_do_not_link(self):
        g = build(
            ev(1, "JoinStarted", node="a", leader="g", frame="F1"),
            ev(2, "JoinStarted", node="b", leader="g", frame="F2"),
        )
        assert g.nodes[2].parents == []

    def test_duplicate_parent_edges_are_deduplicated(self):
        # Both the frame pass and the join pass would link 1 -> 2; the
        # child must end up with exactly one edge to that parent.
        g = build(
            ev(1, "JoinStarted", node="a", leader="g", frame="F1"),
            ev(2, "JoinCompleted", node="a", leader="g", caused_by="F1"),
        )
        assert len(g.nodes[2].parents) == 1


class TestAttributeEdges:
    def test_join_completion_follows_its_start(self):
        g = build(
            ev(1, "JoinStarted", node="a", leader="g"),
            ev(2, "JoinStarted", node="b", leader="g"),
            ev(3, "JoinCompleted", node="a", leader="g"),
        )
        assert g.nodes[3].parents == [(1, "join")]

    def test_journal_chain_append_attest_certify(self):
        g = build(
            ev(1, "JournalAppended", node="p", kind="delta", record_seq=5,
               size=64, caused_by=""),
            ev(2, "AttestationIssued", node="r1", session="s",
               record_seq=5, epoch=2),
            ev(3, "CertificateIssued", node="p", session="s",
               record_seq=5, epoch=2, signers=2, caused_by=""),
        )
        assert g.nodes[2].parents == [(1, "journal")]
        assert (2, "attest") in g.nodes[3].parents

    def test_sync_ship_compact_follow_the_append_on_node(self):
        g = build(
            ev(1, "JournalAppended", node="p", kind="delta", record_seq=5,
               size=64, caused_by=""),
            ev(2, "JournalSynced", node="p", records=1),
            ev(3, "JournalShipped", node="p", peer="q", record_seq=5),
            ev(4, "JournalCompacted", node="p", record_seq=5, folded=3),
            ev(5, "FollowerLagged", node="p", peer="q", applied_seq=0,
               offered_seq=5),
        )
        for seq in (2, 3, 4):
            assert g.nodes[seq].parents == [(1, "journal")]
        assert g.nodes[5].parents == [(3, "journal")]

    def test_certificate_verification_and_conflict_edges(self):
        g = build(
            ev(1, "CertificateIssued", node="p", session="s",
               record_seq=1, epoch=2, signers=2, caused_by=""),
            ev(2, "CertificateVerified", node="m1", session="s",
               epoch=2, signers=2, caused_by=""),
            ev(3, "EquivocationDetected", node="m2", session="s",
               accused="p", epoch=2, evidence="be", caused_by=""),
        )
        assert g.nodes[2].parents == [(1, "certificate")]
        # The gossip detection reaches the offending (accepted) mutation
        # through the CertificateVerified at the same (session, epoch).
        assert (1, "certificate") in g.nodes[3].parents
        assert (2, "conflict") in g.nodes[3].parents

    def test_rekey_install_follows_its_issue(self):
        g = build(
            ev(1, "RekeyIssued", node="g", epoch=3, eviction=False,
               caused_by=""),
            ev(2, "RekeyInstalled", node="a", leader="g", epoch=3,
               fingerprint="f", caused_by=""),
            ev(3, "RekeyInstalled", node="a", leader="g", epoch=9,
               fingerprint="f", caused_by=""),
        )
        assert g.nodes[2].parents == [(1, "rekey")]
        assert g.nodes[3].parents == []  # different epoch: no edge

    def test_recovery_edges(self):
        g = build(
            ev(1, "WatchdogFired", node="a", leader="g", silence=9.0),
            ev(2, "RejoinCompleted", node="a", leader="g", attempts=1,
               downtime=3.0),
            ev(3, "WatchdogFired", node="b", leader="g", silence=9.0),
            ev(4, "RecoveryGaveUp", node="b", attempts=5, last_error="x"),
        )
        assert g.nodes[2].parents == [(1, "recovery")]
        assert g.nodes[4].parents == [(3, "recovery")]

    def test_migration_and_viewchange_edges(self):
        g = build(
            ev(1, "MigrationStarted", group="grp", source="s0",
               target="s1"),
            ev(2, "MigrationAborted", group="grp", source="s0",
               reason="lossy"),
            ev(3, "ViewChangeStarted", session="s", accused="p",
               reason="evidence"),
            ev(4, "ReplicaEvicted", session="s", replica="p"),
            ev(5, "ViewChangeCompleted", session="s", new_primary="q",
               epoch=4),
        )
        assert g.nodes[2].parents == [(1, "migration")]
        assert g.nodes[4].parents == [(3, "viewchange")]
        assert g.nodes[5].parents == [(3, "viewchange")]

    def test_probe_violation_links_to_preceding_event(self):
        g = build(
            ev(1, "RekeyInstalled", node="a", leader="g", epoch=3,
               fingerprint="f", caused_by=""),
            ev(2, "ProbeViolation", message="stale epoch"),
        )
        assert g.nodes[2].parents == [(1, "probe")]


class TestSessionFallback:
    def test_unmatched_member_event_anchors_to_session(self):
        g = build(
            ev(1, "JoinStarted", node="a", leader="g", frame="F1"),
            ev(2, "RekeyInstalled", node="a", leader="g", epoch=1,
               fingerprint="f", caused_by="ZZ"),
        )
        assert g.nodes[2].parents == [(1, "session")]

    def test_shard_delivery_anchors_by_member_and_group(self):
        # Mid-handshake frames the member sends without emitting any
        # event: the delivery's frame ids appear nowhere else, but its
        # (member, group) names the join session that caused it.
        g = build(
            ev(1, "JoinStarted", node="a", leader="g", frame="F1"),
            ev(2, "ShardDelivered", node="s", group="g", member="a",
               frame="Q", inner="R"),
        )
        assert g.nodes[2].parents == [(1, "session")]


class TestRootsAndOrphans:
    def test_recognized_roots_are_not_orphans(self):
        g = build(
            ev(1, "JoinStarted", node="a", leader="g"),
            ev(2, "RekeyIssued", node="g", epoch=1, eviction=False,
               caused_by=""),
            ev(3, "JournalAppended", node="p", kind="snapshot",
               record_seq=0, size=64, caused_by=""),
        )
        assert [n.seq for n in g.roots()] == [1, 2, 3]
        assert g.orphans() == []

    def test_frame_caused_events_left_parentless_are_orphans(self):
        g = build(
            ev(1, "RekeyIssued", node="g", epoch=1, eviction=False,
               caused_by="deadbeef"),
        )
        assert [n.seq for n in g.orphans()] == [1]

    def test_unattachable_event_is_an_orphan(self):
        g = build(
            ev(1, "CertificateVerified", node="m", session="s", epoch=1,
               signers=2, caused_by=""),
        )
        assert [n.seq for n in g.orphans()] == [1]


class TestGraphQueries:
    def graph(self):
        return build(
            ev(1, "JoinStarted", node="a", leader="g", frame="F1"),
            ev(2, "AuthAccepted", node="g", member="a", caused_by="F1"),
            ev(3, "JoinCompleted", node="a", leader="g", caused_by="F1"),
        )

    def test_find_matches_fields(self):
        g = self.graph()
        assert g.find("JoinStarted", node="a").seq == 1
        assert g.find("JoinStarted", node="zz") is None

    def test_ancestors_and_descendants(self):
        g = self.graph()
        assert g.ancestors(3) == [1, 2, 3]
        assert g.descendants(1) == [1, 2, 3]

    def test_render_elides_nodes_reachable_twice(self):
        g = build(
            ev(1, "JoinStarted", node="a", leader="g", frame="A"),
            ev(2, "AuthAccepted", node="g", member="a", caused_by="A"),
            ev(3, "JoinCompleted", node="a", leader="g", caused_by="A"),
        )
        # 3 has two parents (frame via 2, join via 1): rendered once,
        # elided on the second path, so the tree stays finite.
        text = g.render(1)
        assert text.count("JoinCompleted") == 1
        assert "(see [3] above)" in text


class TestIngestion:
    def test_add_rejects_incomplete_payloads(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError, match="missing"):
            builder.add({"ts": 0.0, "event": "JoinStarted"})
