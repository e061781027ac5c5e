"""§2.3: a member forges ``mem_removed`` to corrupt another's view.

    "Such a message can be easily forged by any group member since it is
     encrypted with the common group key.  A malevolent A can then
     convince a member B that A has left the group."

The attacker (mallory) is a *legitimate, joined member* — a compromised
participant in the paper's terms — so it holds the real group key.  In
the legacy stack membership notices are sealed only under that shared
key, so mallory's forgery is indistinguishable from the leader's.  In
the improved stack membership changes arrive only through the
nonce-chained AdminMsg channel under the victim's *session* key, which
mallory does not hold.
"""

from __future__ import annotations

from repro.attacks.base import Attack, AttackResult, build_itgm, build_legacy
from repro.crypto.aead import AuthenticatedCipher
from repro.enclaves.itgm.admin import MemberLeftPayload
from repro.enclaves.itgm.member import seal_ad
from repro.wire.codec import encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope


class ForgedRemovalAttack(Attack):
    """Compromised member convinces bob that mallory left the group."""

    name = "forged-removal"
    reference = "§2.3 (membership notice forgery)"
    expected_on_legacy = True
    expected_on_itgm = False

    def __init__(self, seed: int = 2) -> None:
        self.seed = seed

    def run_legacy(self) -> AttackResult:
        scenario = build_legacy(["mallory", "bob"], seed=self.seed)
        mallory = scenario.members["mallory"]
        bob = scenario.members["bob"]
        assert "mallory" in bob.membership

        # Mallory extracts the group key from her own (compromised)
        # endpoint and forges the leader's removal notice.
        group_key = mallory.current_group_key
        assert group_key is not None
        cipher = AuthenticatedCipher(group_key, self.adversary_rng())
        body = cipher.seal(
            encode_fields([encode_str("mallory")]),
            seal_ad(Label.MEM_REMOVED, "leader", "bob"),
        ).to_bytes()
        scenario.net.inject(
            Envelope(Label.MEM_REMOVED, "leader", "bob", body)
        )
        scenario.net.run()

        fooled = "mallory" not in bob.membership
        still_member = "mallory" in scenario.leader.members
        return AttackResult(
            self.name, "legacy", fooled and still_member,
            "bob now believes mallory left while mallory is still a member"
            if fooled else "bob's view was not corrupted",
        )

    def run_itgm(self) -> AttackResult:
        scenario = build_itgm(["mallory", "bob"], seed=self.seed)
        mallory = scenario.members["mallory"]
        bob = scenario.members["bob"]
        assert "mallory" in bob.membership

        # Mallory holds the group key but NOT bob's session key; the best
        # she can do is seal a fake MemberLeft admin payload under the
        # group key and hope bob's admin channel accepts it.
        group_key = mallory._group_key
        assert group_key is not None
        cipher = AuthenticatedCipher(group_key, self.adversary_rng())
        fake = MemberLeftPayload("mallory").encode()
        body = cipher.seal(
            encode_fields(
                [encode_str("leader"), encode_str("bob"),
                 bytes(16), bytes(16), fake]
            ),
            seal_ad(Label.ADMIN_MSG, "leader", "bob"),
        ).to_bytes()
        rejected_before = bob.stats.rejected
        scenario.net.inject(Envelope(Label.ADMIN_MSG, "leader", "bob", body))
        scenario.net.run()

        fooled = "mallory" not in bob.membership
        return AttackResult(
            self.name, "itgm", fooled,
            "bob's view was corrupted" if fooled
            else "bob rejected the forgery "
                 f"({bob.stats.rejected - rejected_before} rejection(s)); "
                 "membership notices require the member's session key",
        )
