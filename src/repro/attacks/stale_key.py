"""Old-session-key attacks (oops-tolerance).

§3.1: "Each time A enters the group, L generates a new session key for
A, and the requirements must be satisfied even if old session keys are
compromised and known to nontrustworthy agents."  The formal model
publishes closed session keys via Oops events; this attack does the
concrete analogue: alice's first session key leaks in full to the
attacker after she leaves, and the attacker tries to use it against her
*second* session — injecting admin messages and forging her leave.
"""

from __future__ import annotations

from repro.attacks.base import Attack, AttackResult, build_itgm, build_legacy
from repro.crypto.aead import AuthenticatedCipher
from repro.enclaves.itgm.admin import MemberLeftPayload
from repro.enclaves.itgm.member import seal_ad
from repro.wire.codec import encode_fields, encode_str
from repro.wire.labels import Label
from repro.wire.message import Envelope


class StaleSessionKeyAttack(Attack):
    """Use a leaked old session key against the victim's new session."""

    name = "stale-session-key"
    reference = "§3.1 (tolerance of compromised old session keys)"
    expected_on_legacy = False
    expected_on_itgm = False

    def __init__(self, seed: int = 7) -> None:
        self.seed = seed

    def run_legacy(self) -> AttackResult:
        scenario = build_legacy(["alice", "bob"], seed=self.seed)
        net, leader = scenario.net, scenario.leader
        alice = scenario.members["alice"]

        # Session 1: capture the session key (full endpoint compromise),
        # then alice leaves and rejoins with a fresh key.
        old_key = alice._session_key
        assert old_key is not None
        net.post(alice.start_leave())
        net.run()
        net.post(alice.start_join())
        net.run()
        assert "alice" in leader.members

        # Inject a NEW_KEY under the old session key.
        from repro.crypto.keys import GroupKey
        cipher = AuthenticatedCipher(old_key, self.adversary_rng())
        evil_group_key = GroupKey(b"\x13" * 32)
        body = cipher.seal(
            encode_fields([evil_group_key.material]),
            seal_ad(Label.NEW_KEY, "leader", "alice"),
        ).to_bytes()
        net.inject(Envelope(Label.NEW_KEY, "leader", "alice", body))
        net.run()

        hijacked = alice.group_key_fingerprint == evil_group_key.fingerprint()
        return AttackResult(
            self.name, "legacy", hijacked,
            "alice installed a key from a stale-session forgery" if hijacked
            else "stale-key forgery rejected: the new session uses a fresh "
                 "session key",
        )

    def run_itgm(self) -> AttackResult:
        scenario = build_itgm(["alice", "bob"], seed=self.seed)
        net, leader = scenario.net, scenario.leader
        alice = scenario.members["alice"]

        old_key = alice._session_key
        assert old_key is not None
        net.post(alice.start_leave())
        net.run()
        net.post(alice.start_join())
        net.run()
        assert "alice" in leader.members

        # Forge an AdminMsg and a ReqClose under the leaked old key.
        cipher = AuthenticatedCipher(old_key, self.adversary_rng())
        admin_body = cipher.seal(
            encode_fields(
                [encode_str("leader"), encode_str("alice"),
                 bytes(16), bytes(16), MemberLeftPayload("bob").encode()]
            ),
            seal_ad(Label.ADMIN_MSG, "leader", "alice"),
        ).to_bytes()
        close_body = cipher.seal(
            encode_fields([encode_str("alice"), encode_str("leader")]),
            seal_ad(Label.REQ_CLOSE, "alice", "leader"),
        ).to_bytes()
        membership_before = set(alice.membership)
        net.inject(Envelope(Label.ADMIN_MSG, "leader", "alice", admin_body))
        net.inject(Envelope(Label.REQ_CLOSE, "alice", "leader", close_body))
        net.run()

        corrupted = alice.membership != membership_before
        expelled = "alice" not in leader.members
        succeeded = corrupted or expelled
        return AttackResult(
            self.name, "itgm", succeeded,
            "a stale-key forgery was accepted" if succeeded
            else "both forgeries rejected: the new session's key is fresh, "
                 "exactly as the Oops events in the formal model demand",
        )
