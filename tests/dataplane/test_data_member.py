"""End-to-end data-plane tests through the leader relay."""

from repro.attacks.base import build_data
from repro.wire.labels import Label
from repro.wire.message import Envelope


class TestRelayedDelivery:
    def test_payload_reaches_every_other_member(self):
        scenario = build_data(["alice", "bob", "carol"], seed=1)
        net = scenario.net
        net.post_all(scenario.members["alice"].send_data(b"hi all"))
        net.run()
        assert [p for (_s, _q, p)
                in scenario.members["bob"].inbox] == [b"hi all"]
        assert [p for (_s, _q, p)
                in scenario.members["carol"].inbox] == [b"hi all"]
        assert scenario.members["alice"].inbox == []  # no echo

    def test_leader_never_opens_data(self):
        """The relay holds no message key: its fan-out copies are the
        sender's bytes verbatim."""
        scenario = build_data(["alice", "bob"], seed=1)
        net = scenario.net
        net.post_all(scenario.members["alice"].send_data(b"opaque"))
        net.run()
        to_leader = [e.body for e in net.wire_log
                     if e.label is Label.DATA_MSG and e.recipient == "leader"]
        to_bob = [e.body for e in net.wire_log
                  if e.label is Label.DATA_MSG and e.recipient == "bob"]
        assert to_bob and to_bob[0] == to_leader[0]

    def test_acks_clear_sender_pending(self):
        scenario = build_data(["alice", "bob", "carol"], seed=1)
        net = scenario.net
        net.post_all(scenario.members["alice"].send_data(b"acked"))
        net.run()
        sender = scenario.members["alice"].sender
        assert sender.pending == 0
        assert sender.fully_acked == 1

    def test_non_member_data_rejected(self):
        scenario = build_data(["alice", "bob"], seed=1)
        net = scenario.net
        before = [len(m.inbox) for m in scenario.members.values()]
        forged = Envelope(Label.DATA_MSG, "mallory", "leader", b"\x00junk")
        net.post(forged)
        net.run()
        assert [len(m.inbox) for m in scenario.members.values()] == before

    def test_rekey_reseeds_and_traffic_continues(self):
        scenario = build_data(["alice", "bob"], seed=1)
        net = scenario.net
        alice, bob = scenario.members["alice"], scenario.members["bob"]
        net.post_all(alice.send_data(b"before"))
        net.run()
        old_epoch = alice.channel.epoch
        net.post_all(scenario.leader.rekey_now())
        net.run()
        assert alice.channel.epoch > old_epoch
        assert bob.channel.epoch == alice.channel.epoch
        net.post_all(alice.send_data(b"after"))
        net.run()
        assert [p for (_s, _q, p) in bob.inbox] == [b"before", b"after"]

    def test_unreliable_member_interoperates(self):
        """A reliable=False sender's bare payloads still deliver."""
        scenario = build_data(["alice", "bob"], seed=1, reliable=False)
        net = scenario.net
        assert scenario.members["alice"].sender is None
        net.post_all(scenario.members["alice"].send_data(b"bare"))
        net.run()
        assert [p for (_s, _q, p)
                in scenario.members["bob"].inbox] == [b"bare"]


class TestKeyLifetimes:
    """What is derived when, and what stays cached afterwards (the
    ``provider_log`` fixture runs each case under both backends)."""

    def test_three_rekeys_without_data_derive_no_key(self, provider_log):
        scenario = build_data(["alice", "bob", "carol"], seed=5)
        net = scenario.net
        joined = len(provider_log.calls)
        epoch = scenario.members["alice"].channel.epoch
        for _ in range(3):
            net.post_all(scenario.leader.rekey_now())
            net.run()
        assert scenario.members["alice"].channel.epoch == epoch + 3
        # Three installs at the leader and at every member: no chain
        # seed, no group-key subkeys — nobody has used the keys yet.
        rekeys = [name for name, _a, _k in provider_log.calls[joined:]]
        assert "hkdf_extract" not in rekeys and "hkdf_expand" not in rekeys
        net.post_all(scenario.members["alice"].send_data(b"first use"))
        net.run()
        for peer in ("bob", "carol"):
            assert [p for (_s, _q, p) in scenario.members[peer].inbox] \
                == [b"first use"]
        assert scenario.members["alice"].sender.pending == 0

    def test_used_message_keys_are_cached_nowhere(self, provider_log):
        scenario = build_data(["alice", "bob"], seed=5)
        net = scenario.net
        for index in range(64):
            sender = scenario.members[("alice", "bob")[index % 2]]
            net.post_all(sender.send_data(b"frame %d" % index))
            net.run()
        assert [len(m.inbox) for m in scenario.members.values()] == [32, 32]
        provider = provider_log.provider
        one_time = provider_log.enc_keys(reuse=False)
        assert len(one_time) == 64  # sealed once, opened once, same key
        assert not any(provider.caches_key(key) for key in one_time)
        # The long-lived keys are the ones held: each K_a for the admin
        # traffic that set the group up.  K_g encrypts nothing on a
        # data-only run — an ACK is MAC'd under it, not sealed.
        long_lived = provider_log.enc_keys(reuse=True)
        assert all(provider.caches_key(key) for key in long_lived)
        alice = scenario.members["alice"].member
        assert alice.group_key.subkeys()[0] not in long_lived
        assert alice._session_key.subkeys()[0] in long_lived
        assert not long_lived & one_time
