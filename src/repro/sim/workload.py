"""Workload generators: join/leave churn and application messaging.

Workloads are deterministic streams of :class:`WorkloadEvent` derived
from a seeded RNG, so any simulation run can be replayed exactly.
Inter-arrival times are exponential (Poisson processes), the standard
model for membership churn and chat traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.crypto.rng import DeterministicRandom


class WorkloadKind(enum.Enum):
    JOIN = "join"
    LEAVE = "leave"
    MESSAGE = "message"


@dataclass(frozen=True)
class WorkloadEvent:
    """One timed action by one user."""

    time: float
    kind: WorkloadKind
    user_id: str
    payload: bytes = b""


class _Exponential:
    """Exponential inter-arrival sampler over a deterministic stream."""

    def __init__(self, rng: DeterministicRandom, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._rng = rng
        self._rate = rate

    def sample(self) -> float:
        return self._rng.exponential() / self._rate


class ChurnWorkload:
    """Members repeatedly join, linger, and leave.

    ``join_rate`` is the aggregate join arrival rate (events/second);
    each joined member stays for an exponential time with mean
    ``mean_session``.
    """

    def __init__(
        self,
        user_ids: list[str],
        join_rate: float = 1.0,
        mean_session: float = 10.0,
        seed: int = 0,
    ) -> None:
        self.user_ids = list(user_ids)
        self.join_rate = join_rate
        self.mean_session = mean_session
        self.seed = seed

    def events(self, duration: float) -> list[WorkloadEvent]:
        """All join/leave events within ``[0, duration]``, time-sorted."""
        rng = DeterministicRandom(self.seed).fork("churn")
        joins = _Exponential(rng.fork("joins"), self.join_rate)
        stay = _Exponential(rng.fork("stay"), 1.0 / self.mean_session)
        picker = rng.fork("picker")

        out: list[WorkloadEvent] = []
        # Track whether each user is (scheduled to be) in the group so
        # the stream never double-joins.
        busy_until = {u: 0.0 for u in self.user_ids}
        t = 0.0
        while True:
            t += joins.sample()
            if t > duration:
                break
            idle = [u for u in self.user_ids if busy_until[u] <= t]
            if not idle:
                continue
            index = int.from_bytes(picker.random_bytes(4), "big") % len(idle)
            user = idle[index]
            session = stay.sample()
            out.append(WorkloadEvent(t, WorkloadKind.JOIN, user))
            leave_at = t + session
            busy_until[user] = leave_at
            if leave_at <= duration:
                out.append(WorkloadEvent(leave_at, WorkloadKind.LEAVE, user))
        out.sort(key=lambda e: (e.time, e.kind.value, e.user_id))
        return out


class MessageWorkload:
    """Poisson application-message traffic from a set of senders."""

    def __init__(
        self,
        user_ids: list[str],
        rate: float = 5.0,
        payload_size: int = 64,
        seed: int = 0,
    ) -> None:
        self.user_ids = list(user_ids)
        self.rate = rate
        self.payload_size = payload_size
        self.seed = seed

    def events(self, duration: float) -> Iterator[WorkloadEvent]:
        rng = DeterministicRandom(self.seed).fork("messages")
        arrivals = _Exponential(rng.fork("arrivals"), self.rate)
        picker = rng.fork("picker")
        payload_rng = rng.fork("payloads")
        t = 0.0
        while True:
            t += arrivals.sample()
            if t > duration:
                return
            index = (
                int.from_bytes(picker.random_bytes(4), "big")
                % len(self.user_ids)
            )
            yield WorkloadEvent(
                t,
                WorkloadKind.MESSAGE,
                self.user_ids[index],
                payload=payload_rng.random_bytes(self.payload_size),
            )
