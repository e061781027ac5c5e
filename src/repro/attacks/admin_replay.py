"""Duplicate delivery of a group-management message.

The §3.1 requirement says "no group-management message accepted by A is
a duplicate".  The attacker simply plays every admin/rekey frame to the
victim twice.  The legacy ``new_key`` has no freshness and is applied
twice (observable: the rekey-accept counter increments twice for one
leader rekey).  The improved AdminMsg chains nonces, so the second copy
is stale and discarded — whether its X is one payload or a batch: the
frame is the replay unit, so no item of a replayed batch is re-applied.
"""

from __future__ import annotations

from repro.attacks.base import Attack, AttackResult, build_itgm, build_legacy
from repro.wire.labels import Label
from repro.wire.message import Envelope


class AdminReplayAttack(Attack):
    """Duplicate every group-management frame to the victim."""

    name = "admin-replay"
    reference = "§3.1 (no-duplication requirement)"
    expected_on_legacy = True
    expected_on_itgm = False

    def __init__(self, seed: int = 4) -> None:
        self.seed = seed

    def run_legacy(self) -> AttackResult:
        scenario = build_legacy(["alice", "bob"], seed=self.seed)
        net, leader = scenario.net, scenario.leader
        alice = scenario.members["alice"]

        def duplicate(envelope: Envelope):
            if envelope.label is Label.NEW_KEY and envelope.recipient == "alice":
                return [envelope, envelope]
            return None

        net.set_interceptor(duplicate)
        net.post_all(leader.rekey_now())
        net.run()
        net.set_interceptor(None)

        # One leader rekey, but alice applied the key-change twice.
        duplicated = alice.stats.rekeys_accepted == 2
        return AttackResult(
            self.name, "legacy", duplicated,
            f"one rekey, {alice.stats.rekeys_accepted} applications at alice"
            if duplicated else "duplicate was not applied",
        )

    def run_itgm(self) -> AttackResult:
        scenario = build_itgm(["alice", "bob"], seed=self.seed)
        net, leader = scenario.net, scenario.leader
        alice = scenario.members["alice"]
        recorded: list[Envelope] = []

        def duplicate(envelope: Envelope):
            if (
                envelope.label is Label.ADMIN_MSG
                and envelope.recipient == "alice"
            ):
                recorded.append(envelope)
                return [envelope, envelope]
            return None

        accepted_before = alice.stats.admin_accepted
        sent_before = len(leader.admin_send_log("alice"))
        rejected_before = alice.stats.rejected
        net.set_interceptor(duplicate)
        # A lone payload, then a batch (bob's departure reaches alice as
        # [MemberLeft, NewGroupKey] in one AdminMsg), each played twice.
        net.post_all(leader.rekey_now())
        net.run()
        net.post(scenario.members["bob"].start_leave())
        net.run()
        net.set_interceptor(None)
        # Move the chain on, then replay every recorded frame late: the
        # cached-Ack window has closed, so each is stale as a whole.
        net.post_all(leader.rekey_now())
        net.run()
        for envelope in recorded:
            net.inject(envelope)
        net.run()

        accepted = alice.stats.admin_accepted - accepted_before
        sent = len(leader.admin_send_log("alice")) - sent_before
        rejected = alice.stats.rejected - rejected_before
        duplicated = (
            accepted != sent
            or alice.admin_log != leader.admin_send_log("alice")
            or alice.group_epoch != leader.group_epoch
        )
        unique = len(alice.admin_log) == len(set(map(repr, alice.admin_log)))
        return AttackResult(
            self.name, "itgm", duplicated or not unique,
            "a duplicate admin message was accepted" if duplicated
            else f"each of {sent} payloads accepted exactly once (lone and "
                 f"batched), {rejected} late replay(s) rejected as stale; "
                 "admin log has no duplicates",
        )
