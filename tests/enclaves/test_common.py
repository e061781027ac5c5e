"""Tests for shared protocol infrastructure."""

import pytest

from repro.enclaves.common import (
    Credentials,
    RekeyPolicy,
    UserDirectory,
    allow_all,
)
from repro.exceptions import UnknownPeer


class TestCredentials:
    def test_from_password_deterministic(self):
        a = Credentials.from_password("alice", "pw")
        b = Credentials.from_password("alice", "pw")
        assert a.long_term_key == b.long_term_key

    def test_user_binding(self):
        a = Credentials.from_password("alice", "pw")
        b = Credentials.from_password("bob", "pw")
        assert a.long_term_key != b.long_term_key


class TestUserDirectory:
    def test_register_and_lookup(self):
        directory = UserDirectory()
        creds = directory.register_password("alice", "pw")
        assert directory.lookup("alice") == creds.long_term_key
        assert directory.knows("alice")

    def test_unknown_user(self):
        directory = UserDirectory()
        assert not directory.knows("ghost")
        with pytest.raises(UnknownPeer):
            directory.lookup("ghost")

    def test_replace_key(self):
        directory = UserDirectory()
        first = directory.register_password("alice", "pw1")
        second = directory.register_password("alice", "pw2")
        assert directory.lookup("alice") == second.long_term_key
        assert first.long_term_key != second.long_term_key

    def test_len_and_iter(self):
        directory = UserDirectory()
        directory.register_password("bob", "x")
        directory.register_password("alice", "y")
        assert len(directory) == 2
        assert list(directory) == ["alice", "bob"]


class TestRekeyPolicy:
    def test_flags_combine(self):
        both = RekeyPolicy.ON_JOIN | RekeyPolicy.ON_LEAVE
        assert RekeyPolicy.ON_JOIN in both
        assert RekeyPolicy.ON_LEAVE in both
        assert RekeyPolicy.PERIODIC not in both

    def test_manual_is_empty(self):
        assert RekeyPolicy.ON_JOIN not in RekeyPolicy.MANUAL

    def test_allow_all(self):
        assert allow_all("anyone")
