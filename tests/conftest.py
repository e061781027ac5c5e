"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# Tier-1 runs on the `fast` crypto backend unless told otherwise: the
# conformance suite (tests/crypto) proves the backends byte-identical
# and keeps exercising both by name, so the rest of the suite need not
# pay for the from-scratch primitives (8 m 20 s -> about a minute).
# Set before anything imports `repro`; an explicit
# REPRO_CRYPTO_BACKEND=reference still selects them.
os.environ.setdefault("REPRO_CRYPTO_BACKEND", "fast")

import pytest  # noqa: E402

from repro.crypto.rng import DeterministicRandom  # noqa: E402
from repro.enclaves.common import RekeyPolicy, UserDirectory  # noqa: E402
from repro.enclaves.harness import SyncNetwork, wire  # noqa: E402
from repro.enclaves.itgm.leader import GroupLeader, LeaderConfig  # noqa: E402
from repro.enclaves.itgm.member import MemberProtocol  # noqa: E402
from repro.enclaves.legacy.leader import LegacyGroupLeader  # noqa: E402
from repro.enclaves.legacy.member import LegacyMemberProtocol  # noqa: E402


@pytest.fixture
def rng():
    """A deterministic random source, fresh per test."""
    return DeterministicRandom(0xDEADBEEF)


@pytest.fixture
def directory():
    return UserDirectory()


class ItgmGroup:
    """A ready improved-protocol group for tests."""

    def __init__(self, member_ids, seed=0, config=None):
        self.rng = DeterministicRandom(seed)
        self.net = SyncNetwork()
        self.directory = UserDirectory()
        self.leader = GroupLeader(
            "leader",
            self.directory,
            config=config or LeaderConfig(),
            rng=self.rng.fork("leader"),
        )
        wire(self.net, "leader", self.leader)
        self.members = {}
        for user_id in member_ids:
            creds = self.directory.register_password(user_id, f"pw-{user_id}")
            member = MemberProtocol(creds, "leader", self.rng.fork(user_id))
            self.members[user_id] = member
            wire(self.net, user_id, member)

    def join_all(self):
        for user_id, member in self.members.items():
            self.net.post(member.start_join())
            self.net.run()
        return self

    def add_member(self, user_id):
        creds = self.directory.register_password(user_id, f"pw-{user_id}")
        member = MemberProtocol(creds, "leader", self.rng.fork(user_id))
        self.members[user_id] = member
        wire(self.net, user_id, member)
        return member


class LegacyGroup:
    """A ready legacy group for tests."""

    def __init__(self, member_ids, seed=0,
                 rekey_policy=RekeyPolicy.MANUAL):
        self.rng = DeterministicRandom(seed)
        self.net = SyncNetwork()
        self.directory = UserDirectory()
        self.leader = LegacyGroupLeader(
            "leader", self.directory, rekey_policy=rekey_policy,
            rng=self.rng.fork("leader"),
        )
        wire(self.net, "leader", self.leader)
        self.members = {}
        for user_id in member_ids:
            creds = self.directory.register_password(user_id, f"pw-{user_id}")
            member = LegacyMemberProtocol(
                creds, "leader", self.rng.fork(user_id)
            )
            self.members[user_id] = member
            wire(self.net, user_id, member)

    def join_all(self):
        for user_id, member in self.members.items():
            self.net.post(member.start_join())
            self.net.run()
        return self


@pytest.fixture
def itgm_group():
    """Factory for improved-protocol groups."""
    return ItgmGroup


@pytest.fixture
def legacy_group():
    """Factory for legacy groups."""
    return LegacyGroup
