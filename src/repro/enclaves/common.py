"""Shared protocol infrastructure: credentials, policies, events.

The paper assumes "each potential group member has a long-term password
that must be known in advance to the group leader."  A
:class:`UserDirectory` is the leader's registry of user -> ``P_a``; a
:class:`Credentials` object is one user's own identity + ``P_a``.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.crypto.keys import LongTermKey, derive_long_term_key
from repro.exceptions import UnknownPeer

#: An access policy maps a user id to "may this user join now?".
AccessPolicy = Callable[[str], bool]


def allow_all(_user_id: str) -> bool:
    """The permissive access policy: any registered user may join."""
    return True


class RekeyPolicy(enum.Flag):
    """When the leader generates a fresh group key (paper §2.2).

    "Typically, new keys can be generated when new members join, when
    members leave, or on a periodic basis."  Flags combine:
    ``ON_JOIN | ON_LEAVE`` rekeys on any membership change.
    """

    MANUAL = 0
    ON_JOIN = enum.auto()
    ON_LEAVE = enum.auto()
    PERIODIC = enum.auto()


@dataclass(frozen=True)
class Credentials:
    """One user's identity and long-term key ``P_a``."""

    user_id: str
    long_term_key: LongTermKey

    @classmethod
    def from_password(cls, user_id: str, password: str) -> "Credentials":
        """Derive credentials from a password, as the paper prescribes."""
        return cls(user_id, derive_long_term_key(user_id, password))


@dataclass
class UserDirectory:
    """The leader's registry of potential members and their keys."""

    _users: dict[str, LongTermKey] = field(default_factory=dict)

    def register(self, user_id: str, key: LongTermKey) -> None:
        """Register (or replace) a user's long-term key."""
        self._users[user_id] = key

    def register_password(self, user_id: str, password: str) -> Credentials:
        """Register a user by password and return their credentials."""
        creds = Credentials.from_password(user_id, password)
        self.register(user_id, creds.long_term_key)
        return creds

    def lookup(self, user_id: str) -> LongTermKey:
        """Return ``P_a`` for a user, raising :class:`UnknownPeer` if absent."""
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownPeer(f"no long-term key registered for {user_id!r}") from None

    def knows(self, user_id: str) -> bool:
        return user_id in self._users

    def __len__(self) -> int:
        return len(self._users)

    def __iter__(self):
        return iter(sorted(self._users))


# -- protocol events ------------------------------------------------------
#
# Sans-IO state machines emit events instead of performing IO; the asyncio
# runtimes and the test suites consume them.


@dataclass(frozen=True)
class Event:
    """Base class for protocol events."""


@dataclass(frozen=True)
class Joined(Event):
    """This endpoint completed authentication and entered the group."""

    user_id: str


@dataclass(frozen=True)
class Left(Event):
    """This endpoint left the group (or was told a session closed)."""

    user_id: str


@dataclass(frozen=True)
class MemberJoined(Event):
    """The leader announced that ``user_id`` joined the group."""

    user_id: str


@dataclass(frozen=True)
class MemberLeft(Event):
    """The leader announced that ``user_id`` left the group."""

    user_id: str


@dataclass(frozen=True)
class GroupKeyChanged(Event):
    """A new group key is in effect.

    ``epoch`` is the epoch of *this* key (-1 on the legacy stack, which
    has none) — one frame may install several, so a listener must not
    read it off the endpoint afterwards.
    """

    fingerprint: str
    epoch: int = -1


@dataclass(frozen=True)
class MembershipView(Event):
    """The leader communicated the full current membership."""

    members: tuple[str, ...]


@dataclass(frozen=True)
class AppMessage(Event):
    """An application (chat) payload from another member."""

    sender: str
    payload: bytes


@dataclass(frozen=True)
class AdminDelivered(Event):
    """An admin payload was accepted (used to check ordering/duplication)."""

    payload: object


@dataclass(frozen=True)
class Rejected(Event):
    """A message was discarded, with the reason.

    Honest endpoints never crash on bad input; they discard and emit
    this event so tests and monitors can see the attack being repelled.
    """

    reason: str
    label: object = None


@dataclass(frozen=True)
class Denied(Event):
    """A join attempt was rejected (access policy or legacy denial)."""

    user_id: str
    reason: str
