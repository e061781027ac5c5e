"""§2.3: the group-key replay by a past member.

    "An attacker can then force A to reuse an old group key K'_g by
     replaying an old key-distribution message. ... The attack can then
     be performed by a past member of the group who has left the
     application but has kept the old key K'_g.  The rekeying procedure
     is then insecure unless all present and past participants in the
     current application are trustworthy."

Scenario: mallory is a member at epoch 0 and records the leader's
rekeying message to alice (epoch 1) before leaving.  After mallory's
departure the leader rotates to epoch 2, locking mallory out — unless
she can replay the recorded epoch-1 message and drag alice back to a key
mallory still holds, at which point alice's "confidential" traffic is
readable by an ex-member.
"""

from __future__ import annotations

from repro.attacks.base import Attack, AttackResult, build_itgm, build_legacy
from repro.crypto.aead import AuthenticatedCipher, SealedBox
from repro.enclaves.common import RekeyPolicy
from repro.enclaves.itgm.member import app_ad
from repro.exceptions import IntegrityError
from repro.wire.codec import decode_fields
from repro.wire.labels import Label


class RekeyReplayAttack(Attack):
    """Past member replays an old rekey message to force key reuse."""

    name = "rekey-replay"
    reference = "§2.3 (new_key replay / old group key reuse)"
    expected_on_legacy = True
    expected_on_itgm = False

    def __init__(self, seed: int = 3) -> None:
        self.seed = seed

    def run_legacy(self) -> AttackResult:
        scenario = build_legacy(
            ["alice", "mallory"], seed=self.seed,
            rekey_policy=RekeyPolicy.ON_LEAVE,
        )
        net, leader = scenario.net, scenario.leader
        alice = scenario.members["alice"]
        mallory = scenario.members["mallory"]

        # Epoch bump while mallory is present: she records the NEW_KEY
        # frame addressed to alice and keeps the key it carries.
        net.post_all(leader.rekey_now())
        net.run()
        recorded = [
            e for e in net.wire_log
            if e.label is Label.NEW_KEY and e.recipient == "alice"
        ][-1]
        old_group_key = mallory.current_group_key
        assert old_group_key is not None

        # Mallory leaves; ON_LEAVE policy rotates the key away from her.
        net.post(mallory.start_leave())
        net.run()
        assert alice.group_key_fingerprint != old_group_key.fingerprint()

        # The replay: alice has no freshness evidence and re-installs
        # the old key.
        net.inject(recorded)
        net.run()
        reverted = alice.group_key_fingerprint == old_group_key.fingerprint()

        # Demonstrate the confidentiality loss: alice "confidentially"
        # messages the group; ex-member mallory decrypts it off the wire.
        leaked = None
        if reverted:
            net.post(alice.seal_app(b"attack at dawn"))
            net.run()
            app_frames = [
                e for e in net.wire_log
                if e.label is Label.APP_DATA and e.sender == "alice"
            ]
            cipher = AuthenticatedCipher(old_group_key, self.adversary_rng())
            for frame in app_frames:
                try:
                    plain = cipher.open(
                        SealedBox.from_bytes(frame.body), app_ad("alice")
                    )
                    leaked = decode_fields(plain, expect=2)[1]
                    break
                except IntegrityError:
                    continue
        succeeded = reverted and leaked == b"attack at dawn"
        return AttackResult(
            self.name, "legacy", succeeded,
            "alice reverted to the old key; ex-member mallory read "
            f"{leaked!r} off the wire" if succeeded
            else "alice did not revert to the old key",
        )

    def run_itgm(self) -> AttackResult:
        scenario = build_itgm(
            ["alice", "mallory"], seed=self.seed,
            rekey_policy=RekeyPolicy.ON_LEAVE,
        )
        net, leader = scenario.net, scenario.leader
        alice = scenario.members["alice"]
        mallory = scenario.members["mallory"]

        net.post_all(leader.rekey_now())
        net.run()
        recorded = [
            e for e in net.wire_log
            if e.label is Label.ADMIN_MSG and e.recipient == "alice"
        ][-1]
        old_group_key = mallory._group_key
        assert old_group_key is not None
        old_epoch = alice.group_epoch

        net.post(mallory.start_leave())
        net.run()
        assert alice.group_epoch > old_epoch

        current_epoch = alice.group_epoch
        rejected_before = alice.stats.rejected
        net.inject(recorded)
        net.run()

        reverted = alice.group_epoch < current_epoch
        return AttackResult(
            self.name, "itgm", reverted,
            "alice reverted to the old group key" if reverted
            else "replayed rekey rejected (stale nonce, "
                 f"{alice.stats.rejected - rejected_before} rejection(s)); "
                 f"alice still at epoch {alice.group_epoch}",
        )
