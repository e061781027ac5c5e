"""Attack framework: scenarios, results, and the attacker's powers.

The attacker here is the paper's threat model made concrete: it sees
every frame on the wire (the :class:`~repro.enclaves.harness.SyncNetwork`
wire log), can inject arbitrary envelopes with any claimed sender, can
replay recorded frames, and — when the attack casts it as a compromised
*member* — holds real credentials and a real protocol instance whose
internal keys it may extract (a compromised participant "may be one who
intentionally misbehaves", §3.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.crypto.rng import DeterministicRandom
from repro.enclaves.common import RekeyPolicy, UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig
from repro.enclaves.itgm.member import MemberProtocol
from repro.enclaves.legacy.leader import LegacyGroupLeader
from repro.enclaves.legacy.member import LegacyMemberProtocol


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one attack run against one protocol stack."""

    attack: str
    protocol: str  # "legacy" | "itgm"
    succeeded: bool
    detail: str

    def __str__(self) -> str:
        verdict = "SUCCEEDED" if self.succeeded else "blocked"
        return f"{self.attack} vs {self.protocol}: {verdict} — {self.detail}"


@dataclass
class Scenario:
    """A running group with a deterministic seed: legacy (§2.2),
    improved (§3.2), or improved with the data plane on its members."""

    net: SyncNetwork
    leader: GroupLeader | LegacyGroupLeader
    members: dict  # user id -> the stack's member (protocol or DataMember)
    directory: UserDirectory


def _build(member_ids, seed, leader_cls, member_cls, **leader_options):
    """Start a group of ``leader_cls``/``member_cls`` with every listed
    member joined."""
    rng = DeterministicRandom(seed)
    net = SyncNetwork()
    directory = UserDirectory()
    leader = leader_cls(
        "leader", directory, rng=rng.fork("leader"), **leader_options
    )
    wire(net, "leader", leader)
    members = {}
    for user_id in member_ids:
        creds = directory.register_password(user_id, f"pw-{user_id}")
        member = member_cls(creds, "leader", rng.fork(user_id))
        members[user_id] = member
        wire(net, user_id, member)
    for user_id in member_ids:
        net.post(members[user_id].start_join())
        net.run()
    return Scenario(net, leader, members, directory)


def build_legacy(
    member_ids: list[str],
    seed: int = 0,
    rekey_policy: RekeyPolicy = RekeyPolicy.MANUAL,
) -> Scenario:
    """Start a legacy group with every listed member joined."""
    return _build(member_ids, seed, LegacyGroupLeader, LegacyMemberProtocol,
                  rekey_policy=rekey_policy)


def build_itgm(
    member_ids: list[str],
    seed: int = 0,
    rekey_policy: RekeyPolicy = RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE,
) -> Scenario:
    """Start an improved-protocol group with every listed member joined."""
    return _build(member_ids, seed, GroupLeader, MemberProtocol,
                  config=LeaderConfig(rekey_policy=rekey_policy))


def build_data(
    member_ids: list[str],
    seed: int = 0,
    ratcheted: bool = True,
    reliable: bool = True,
    rekey_policy: RekeyPolicy = RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE,
) -> Scenario:
    """Start an improved-protocol group with the data plane attached.

    ``ratcheted=False`` swaps every member's channel for the
    group-key-only :class:`~repro.dataplane.channel.GroupKeyChannel`
    baseline — the "legacy" column of the data-plane attack rows.  The
    *management* plane is the §3.2 stack in both configurations; what
    the baseline lacks is per-sender ratcheting and replay accounting
    on the data traffic itself.  ``reliable=False`` drops the ACK/NACK
    layer — attacks probing the channel itself use it so the contrast
    isn't muddied by the reliability layer's own deduplication.
    """
    from repro.dataplane.member import DataMember

    scenario = build_itgm(member_ids, seed=seed, rekey_policy=rekey_policy)
    for user_id, member in list(scenario.members.items()):
        dm = DataMember(member, ratcheted=ratcheted, reliable=reliable)
        scenario.members[user_id] = dm
        wire(scenario.net, user_id, dm)
    return scenario


class Attack(ABC):
    """One named attack, runnable against both protocol stacks."""

    #: Short identifier used in the matrix table.
    name: str = "attack"
    #: Paper reference for the weakness this attack exercises.
    reference: str = ""
    #: What the paper predicts against the legacy stack.
    expected_on_legacy: bool = True
    #: What the paper guarantees for the improved stack (always False).
    expected_on_itgm: bool = False

    def adversary_rng(self) -> DeterministicRandom:
        """The attacker's own seeded stream: a forgery draws its nonce
        here, so a seeded run forges the same bytes every time."""
        return DeterministicRandom(self.seed).fork("adversary")

    @abstractmethod
    def run_legacy(self) -> AttackResult:
        """Run against the legacy §2.2 stack."""

    @abstractmethod
    def run_itgm(self) -> AttackResult:
        """Run against the improved §3.2 stack."""

    def run_both(self) -> tuple[AttackResult, AttackResult]:
        return self.run_legacy(), self.run_itgm()
