"""Byzantine insider: the leader shows different members different keys.

A compromised leader that cannot fabricate state alone (because members
demand certificates) can still try to *equivocate*: fork its journal
stream, harvest attestations for two conflicting states from disjoint
witness subsets, and show each half of the group its own "certified"
world.  Against a single trusted leader the same split needs no
ceremony at all — two bare rekeys do it, and the group is permanently
forked: members at one epoch hold different keys and can no longer read
each other's traffic, violating the §5.4 common-key agreement.

The quorum layer does not make the fork *impossible* — with ``f + 1``
thresholds a primary plus one duped witness can mint each side — it
makes the fork **detectable and attributable**: any observer that sees
both certificates holds self-verifying evidence convicting a specific
replica.  Certificate gossip between members provides that observer;
the evidence drives an automatic view change (evict the primary,
promote the healthiest honest witness, re-key above both forks) and the
group converges again.  The attack is "blocked" in the sense that
matters: it cannot create a *lasting, undetected* fork.

Column note: as with :mod:`repro.attacks.quorum_forgery`, the "legacy"
column runs the single-trusted-leader deployment of the improved §3.2
stack — the baseline the quorum hardens.
"""

from __future__ import annotations

from repro.attacks.base import Attack, AttackResult
from repro.quorum.byzantine import (
    EquivocatingPrimary,
    build_quorum_scenario,
    build_single_scenario,
)
from repro.quorum.soak import quorum_respond


class QuorumEquivocationAttack(Attack):
    """Compromised leader splits the group across two certified keys."""

    name = "quorum-equivocation"
    reference = "§5.4 (common-key agreement) under a Byzantine leader"
    expected_on_legacy = True
    expected_on_itgm = False

    def __init__(self, seed: int = 3) -> None:
        self.seed = seed

    def run_legacy(self) -> AttackResult:
        scenario = build_single_scenario(
            ["alice", "bob"], seed=self.seed
        )
        strike = EquivocatingPrimary(seed=self.seed).strike_single(scenario)
        alice = scenario.members["alice"]
        bob = scenario.members["bob"]
        forked = (
            alice.group_epoch == bob.group_epoch
            and alice.group_key_fingerprint != bob.group_key_fingerprint
        )
        return AttackResult(
            self.name, "legacy", forked,
            f"group forked at epoch {strike['epoch']}: alice holds "
            f"{alice.group_key_fingerprint}, bob holds "
            f"{bob.group_key_fingerprint}; neither can read the other"
            if forked else "the group did not fork",
        )

    def run_itgm(self) -> AttackResult:
        scenario = build_quorum_scenario(["alice", "bob"], seed=self.seed)
        qs = scenario.qs
        strike = EquivocatingPrimary(seed=self.seed).strike_quorum(scenario)

        # Gossip, evidence, view change: the response the soak runs.
        _, _, detector, evidence = quorum_respond(scenario, "equivocation")
        if evidence is None:
            return AttackResult(
                self.name, "itgm", True,
                f"fork at epoch {strike['epoch']} went undetected",
            )

        fingerprints = {
            member.group_key_fingerprint
            for member in scenario.members.values()
        }
        healed = (
            len(fingerprints) == 1
            and fingerprints == {qs.leader.group_key_fingerprint}
            and qs.leader.group_epoch > strike["epoch"]
        )
        return AttackResult(
            self.name, "itgm", not healed,
            f"{detector} detected the fork; evidence convicted "
            f"{evidence.accused}; view change promoted {qs.primary_id} "
            f"and re-keyed at epoch {qs.leader.group_epoch} "
            f"(above both forks at {strike['epoch']})"
            if healed else "the fork survived the view change",
        )
