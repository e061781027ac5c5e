"""End-to-end data-plane tests through the leader relay."""

from repro.attacks.base import build_data
from repro.crypto.rng import DeterministicRandom
from repro.dataplane.member import DataMember
from repro.enclaves.common import UserDirectory
from repro.enclaves.harness import SyncNetwork, wire
from repro.enclaves.itgm.member import MemberProtocol
from repro.fabric.directory import GroupDirectory
from repro.fabric.member import FabricMember
from repro.fabric.shard import ShardHost
from repro.storage.simdisk import SimDisk
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

        # MAC keys.  One-time: each message key's MAC half (64) and each
        # chain key a ratchet step keyed its labels under — on neither
        # backend is one of them left in a cache.
        one_time_macs = provider_log.mac_keys(reuse=False)
        chain_keys = provider_log.chain_keys()
        assert len(one_time_macs) == 64 and len(chain_keys) >= 64
        assert not any(provider.caches_key(key)
                       for key in one_time_macs | chain_keys)
        # Long-lived: every K_a and K_g MAC subkey (K_g's tags the ACKs).
        # Both backends keep each one's keyed HMAC state.
        long_lived_macs = provider_log.mac_keys(reuse=True)
        assert alice.group_key.subkeys()[1] in long_lived_macs
        assert alice._session_key.subkeys()[1] in long_lived_macs
        assert not long_lived_macs & (one_time_macs | chain_keys)
        assert all(provider.caches_key(key) for key in long_lived_macs)


class _DataProtocol:
    """What ``FabricMember``'s ``protocol_factory`` seam is given to put a
    data plane on a fabric member: a :class:`MemberProtocol` whose
    ``handle`` is its :class:`DataMember`'s."""

    def __init__(self, member):
        self.member = member
        self.data = DataMember(member)
        self.handle = self.data.handle

    def __getattr__(self, name):
        return getattr(self.member, name)


class TestSessionRebuild:
    """``FabricMember.reset_for_rejoin`` (a redirect while connected, a
    watchdog reset) replaces the protocol: the member comes back with a
    fresh ``DataMember`` whose message ids restart at 0.  Peers used to
    hold those ids against it for ever — ACK the first *k* messages of
    the new session, deliver none of them."""

    SHARD = "shard-0"
    GROUP = "grp"

    def fabric(self, size=4):
        rng = DeterministicRandom(23)
        directory = GroupDirectory([self.SHARD], rng=rng.fork("directory"))
        shard = ShardHost(self.SHARD, SimDisk(rng=rng.fork("disk")),
                          rng=rng.fork("shard"))
        record = directory.create_group(self.GROUP)
        users = UserDirectory()
        net = SyncNetwork()
        wire(net, self.SHARD, shard)
        members = {}
        for index in range(size):
            uid = f"m{index}"
            members[uid] = FabricMember(
                users.register_password(uid, f"pw-{uid}"), self.GROUP,
                directory, rng=rng.fork(uid),
                protocol_factory=lambda creds, group_id, rng, grace, bus:
                    _DataProtocol(MemberProtocol(
                        creds, group_id, rng=rng, rekey_grace=grace,
                        telemetry=bus)),
            )
            wire(net, uid, members[uid])
        shard.host_group(self.GROUP, users, storage_key=record.storage_key)
        for member in members.values():
            net.post_all(member.start_join())
            net.run()
        return net, members

    @staticmethod
    def send(net, member, payload):
        data = member.protocol.data
        net.post_all(member._wrap(frame) for frame in data.send_data(payload))
        net.run()
        assert data.sender.pending == 0  # every peer acknowledged it

    @staticmethod
    def received(member, sender):
        return [p for (s, _q, p) in member.protocol.data.inbox if s == sender]

    def test_every_message_of_the_new_session_is_delivered_once(self):
        net, members = self.fabric()
        m0, peers = members["m0"], [members[u] for u in ("m1", "m2", "m3")]
        first = [b"a0", b"a1", b"a2"]
        for payload in first:
            self.send(net, m0, payload)

        m0.reset_for_rejoin()
        net.post_all(m0.start_join())
        net.run()
        assert m0.connected and m0.protocol.data.sender._next_msg_id == 0

        second = [b"b0", b"b1", b"b2"]
        for payload in second:
            self.send(net, m0, payload)
        for peer in peers:
            assert self.received(peer, "m0") == first + second
            assert peer.protocol.data.receiver.duplicates_suppressed == 0

    def test_also_for_a_peer_that_was_away_when_it_happened(self):
        """m2 leaves (keeping its DataMember), m0 is rebuilt, m2 comes
        back: no ``MemberJoined(m0)`` ever reaches m2, only its own
        membership view."""
        net, members = self.fabric()
        m0, m2 = members["m0"], members["m2"]
        self.send(net, m0, b"a0")
        net.post(m2.start_leave())
        net.run()
        m0.reset_for_rejoin()
        for member in (m0, m2):
            net.post_all(member.start_join())
            net.run()
        self.send(net, m0, b"b0")
        assert self.received(m2, "m0") == [b"a0", b"b0"]
        assert m2.protocol.data.receiver.duplicates_suppressed == 0

    def test_a_rekey_alone_forgets_nothing(self):
        """The duplicate the memory exists for — delivered, ACK lost,
        re-sealed after a rekey with nobody (re)joining — is still
        caught (the unit case is
        ``test_reliable.py::test_cross_epoch_duplicate_suppressed``)."""
        scenario = build_data(["alice", "bob"], seed=1)
        net = scenario.net
        alice, bob = scenario.members["alice"], scenario.members["bob"]
        net.set_interceptor(
            lambda e: [] if e.label is Label.DATA_ACK else None)
        net.post_all(alice.send_data(b"once only"))
        net.run()
        assert alice.sender.pending == 1 and len(bob.inbox) == 1
        net.set_interceptor(None)
        net.post_all(scenario.leader.rekey_now())
        net.run()
        assert alice.sender.pending == 0
        assert [p for (_s, _q, p) in bob.inbox] == [b"once only"]
        assert bob.receiver.duplicates_suppressed == 1
